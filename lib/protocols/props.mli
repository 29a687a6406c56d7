(** Helpers for writing protocol invariants at both semantic levels.

    Invariants are plain predicates over global states.  The same logical
    property is usually checked on the rendezvous system and on the
    refined asynchronous system; these helpers give both phrasings access
    to control states and variables.

    They are staged: names are resolved once per instantiated program,
    into a table over the process's control states or a variable slot,
    and the per-state predicates only index.  An invariant builder
    resolves every name before it returns its closures, so a misspelled
    name refuses the whole invariant list instead of making it vacuous
    or failing mid-exploration. *)

open Ccr_core
open Ccr_semantics
open Ccr_refine

(** {2 Resolving names} *)

type home_states
(** A set of the home's control states, as a table over its indices. *)

type remote_states
(** A set of the remote's control states. *)

type home_var
(** A home variable's slot. *)

type remote_var
(** A remote variable's slot. *)

val home_states : Prog.t -> string list -> home_states
(** @raise Invalid_argument naming the home process and the name when
    one of the names is not a control state of the home. *)

val remote_states : Prog.t -> string list -> remote_states
(** @raise Invalid_argument as {!home_states}, for the remote. *)

val home_var : Prog.t -> string -> home_var
(** @raise Invalid_argument naming the home process and the name when
    the home declares no such variable. *)

val remote_var : Prog.t -> string -> remote_var
(** @raise Invalid_argument as {!home_var}, for the remote. *)

(** {2 Rendezvous-level accessors} *)

val rv_remotes_in : remote_states -> Rendezvous.state -> int
(** How many remotes' control state is in the set. *)

val rv_remote_in : remote_states -> Rendezvous.state -> int -> bool
(** Whether remote [i]'s control state is in the set. *)

val rv_home_in : home_states -> Rendezvous.state -> bool
val rv_home_var : home_var -> Rendezvous.state -> Value.t
val rv_remote_var : remote_var -> Rendezvous.state -> int -> Value.t

(** {2 Asynchronous-level accessors}

    A transient process' control state is its underlying communication
    state (the refinement does not change it until the rendezvous
    completes), so the same state names apply. *)

val as_remotes_in : remote_states -> Async.state -> int
val as_remote_in : remote_states -> Async.state -> int -> bool
val as_home_in : home_states -> Async.state -> bool
val as_home_var : home_var -> Async.state -> Value.t
val as_remote_var : remote_var -> Async.state -> int -> Value.t

val as_home_idle : Async.state -> bool
(** True when the home is not mid-rendezvous (mode [Hcomm]).  Useful for
    invariants that only make sense between transactions. *)

val as_home_awaits : Async.state -> int -> bool
(** Whether the home is transient towards remote [i]. *)

(** {2 Combinators} *)

val forall_remotes : int -> (int -> bool) -> bool
