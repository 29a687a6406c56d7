(** Runtime values and finite domains for protocol variables.

    The refinement framework model-checks protocols by explicit state
    enumeration, so every variable ranges over a small finite domain that is
    declared up front.  Remote-node identities ([Vrid]) and sets of remote
    identities ([Vset], represented as bitmasks) are first-class because
    directory protocols are parameterized by the remote population. *)

type rid = int
(** A remote node identity, [0 .. n-1] for a system with [n] remotes. *)

type t =
  | Vunit
  | Vbool of bool
  | Vint of int
  | Vrid of rid
  | Vset of int  (** bitmask over remote ids; bit [i] = remote [i] present *)

type domain =
  | Dunit
  | Dbool
  | Dint of int * int  (** inclusive range [lo, hi] *)
  | Drid
  | Dset

val equal : t -> t -> bool
val compare : t -> t -> int

val default : domain -> t
(** Initial value of a variable of the given domain: [Vunit], [false],
    the low bound, remote [0], or the empty set. *)

val member : n:int -> domain -> t -> bool
(** Is the value a member of the domain, in a system with [n] remotes? *)

val enumerate : n:int -> domain -> t list
(** All members of the domain in a system with [n] remotes.  [Dset] has
    [2^n] members; callers should restrict themselves to small [n]. *)

(** {2 Set operations (bitmask sets of remote ids)} *)

val set_empty : t
val set_mem : rid -> t -> bool
val set_add : rid -> t -> t
val set_remove : rid -> t -> t
val set_is_empty : t -> bool
val set_members : t -> rid list
val set_of_list : rid list -> t
val set_cardinal : t -> int

(** {2 Printing and encoding} *)

val pp : t Fmt.t
val pp_domain : domain Fmt.t

val encode : Buffer.t -> t -> unit
(** Append a compact, injective byte encoding; used to key hash tables of
    visited states during model checking. *)

val encode_int : Buffer.t -> int -> unit
(** The same variable-length integer encoding used by {!encode}; injective
    over non-negative ints, usable for control states and counters. *)

val encode_perm : Buffer.t -> int array -> t -> unit
(** [encode_perm buf p v] writes exactly the bytes [encode] would write for
    [v] with remote ids renamed by the permutation [p]: [Vrid r] encodes as
    [Vrid p.(r)], [Vset m] as the mask with bit [p.(i)] set for every bit
    [i] of [m].  Lets canonicalization encode a permuted state without
    materializing it. *)

(** {2 Decoding encoded keys}

    The inverse of the encoders, over a cursor into a key.  Each reader
    accepts exactly the bytes the matching encoder writes: a truncated
    or damaged key raises [Invalid_argument] naming the cursor's decoder
    and the byte offset, never an index error, so a key that decodes at
    all decodes to the state that encodes back to it. *)

type cursor = private { key : string; mutable pos : int; who : string }

val cursor : who:string -> string -> cursor
(** A cursor at byte 0 of a key; [who] (e.g. ["Async.decode"]) opens
    every refusal message. *)

val refuse : cursor -> int -> string -> 'a
(** [refuse c at what] raises
    [Invalid_argument "<who>: <what> at byte <at>"]. *)

val decode_int : cursor -> int
(** Read an {!encode_int} varint. *)

val decode_count : cursor -> int
(** {!decode_int}, refusing a negative value (list lengths, sizes). *)

val decode_string : cursor -> int -> string
(** [decode_string c len] reads [len] raw bytes. *)

val decode_char : cursor -> char
(** Read one raw byte. *)

val decode : cursor -> t
(** Read an {!encode}d value. *)

val decode_values : cursor -> int -> t array
(** [decode_values c len] reads [len] {!encode}d values, in order. *)

val decode_end : cursor -> unit
(** Refuse bytes past the cursor: a decoder calls it once its layout is
    read in full. *)
