(** Synchronous (rendezvous) semantics of a linked protocol.

    This is the atomic-transaction view the designer writes and verifies
    (paper §2.3): a rendezvous between the home and a remote happens in a
    single indivisible step; [Tau] guards interleave freely.  Its state
    space is what the left columns of the paper's Table 3 measure. *)

open Ccr_core

type pstate = { ctl : int; env : Value.t array }

type state = { h : pstate; r : pstate array }

type proc_id = Ph | Pr of int

type label =
  | L_tau of proc_id * string
  | L_rendezvous of {
      active : proc_id;
      passive : proc_id;
      msg : string;
      payload : Value.t list;
    }

val initial : Prog.t -> state

val successors : Prog.t -> state -> (label * state) list
(** All enabled transitions: every [Tau] instance of every process and
    every matching (active send, passive receive) guard pair. *)

val encode : state -> string
(** Injective byte encoding, for visited-state hashing. *)

val decode : Prog.t -> string -> state
(** The inverse of {!encode} for the program's states:
    [decode prog (encode st) = st], and a key that decodes at all
    decodes to the state that {!encode}s back to it.
    @raise Invalid_argument naming [Rendezvous.decode] and the byte
    offset on a truncated, garbage or trailing-byte key. *)

val decode_from : Prog.t -> Value.cursor -> state
(** {!decode}'s reader from the cursor on, leaving the cursor just past
    the state's bytes. *)

val encode_perm : p:int array -> inv:int array -> state -> string
(** [encode_perm ~p ~inv st] is byte-identical to [encode] applied to [st]
    with the remotes permuted by [p] ([inv] is [p]'s inverse: slot [j] of
    the permuted state is [st]'s slot [inv.(j)]), without materializing the
    permuted state.  Backbone of fast symmetry canonicalization. *)

val pp_proc_id : proc_id Fmt.t
val pp_label : label Fmt.t
val pp_state : Prog.t -> state Fmt.t
