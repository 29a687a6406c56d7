(** Expressions over protocol variables.

    Expressions appear in guards (enabling conditions, message payloads,
    assignments).  They are evaluated against an environment mapping
    variable names to {!Value.t}.  Inside a remote-node process, [Self]
    denotes the node's own identity. *)

type t =
  | Const of Value.t
  | Var of string
  | Self  (** the remote node's own id; ill-typed in the home process *)
  | Set_add of t * t  (** [Set_add (set, rid)] *)
  | Set_remove of t * t
  | Set_singleton of t
  | Full_set
      (** the set of all remote ids; resolved to a constant when the
          protocol is instantiated for a concrete [n] ({!Link.compile}) *)
  | Succ of t  (** integer increment *)

type b =
  | True
  | Not of b
  | And of b * b
  | Or of b * b
  | Eq of t * t
  | Set_mem of t * t  (** [Set_mem (rid, set)] *)
  | Set_is_empty of t

(** Simple types, the erasure of {!Value.domain} (every integer range
    erases to [Tint]). *)
type ty = Tunit | Tbool | Tint | Trid | Tset

exception Eval_error of string

val eval : lookup:(string -> Value.t) -> self:Value.rid option -> t -> Value.t
(** Evaluate; raises {!Eval_error} on unbound variables, [Self] outside a
    remote, or set operations on non-sets.  Validated protocols never
    raise. *)

val eval_b : lookup:(string -> Value.t) -> self:Value.rid option -> b -> bool

val ty_of_domain : Value.domain -> ty

val infer :
  var_ty:(string -> ty option) -> in_remote:bool -> t -> (ty, string) result
(** Infer the type of an expression, or return an error message naming the
    ill-typed sub-expression. *)

val check_b :
  var_ty:(string -> ty option) -> in_remote:bool -> b -> (unit, string) result

val vars : t -> string list
(** Variable names read by the expression (without duplicates). *)

val vars_b : b -> string list

val pp : t Fmt.t
val pp_b : b Fmt.t
val pp_ty : ty Fmt.t
