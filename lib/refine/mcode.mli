(** Compiled microcode tables for the event-loop engine.

    {!Async} interprets the refined semantics: every transition re-walks
    the control state's guard array, evaluates [cexpr] trees, copies
    environments and allocates successor lists.  That is what the model
    checker needs (it wants {e all} successors), but an execution engine
    picks {e one} transition per step, so this module compiles a
    {!Prog.t} once into dispatch-table form — the paper's "implementable
    directly, for example in microcode" endpoint (§2.3):

    - guard conditions, choose-sets, assignment right-hand sides and
      send payloads become closures over a scratch environment (no tree
      walking at run time);
    - message names are interned to dense ids and receive dispatch is an
      array indexed by message id (no name comparison on the hot path,
      a one-entry memo catches the common same-sender streak);
    - node state lives in mutable machines ({!home}, {!remote}) updated
      in place: environments are fixed arrays, the home buffer is a pair
      of parallel growable arrays, transient modes are integers.

    The step functions mirror {!Async.home_local}/{!Async.home_recv}/
    {!Async.remote_local}/{!Async.remote_recv} rule for rule — the
    engine's trace replay through {!Async.successors} (tested over the
    whole registry, and the [engine] fuzz oracle) checks that
    correspondence — but execute exactly one uniformly-chosen
    enabled transition (single-pass reservoir selection) instead of
    materializing the successor list.

    Concurrency contract: a [t] is immutable after {!compile} and may be
    shared across domains; each {!home}/{!remote} machine must be owned
    by exactly one domain. *)

open Ccr_core

type t
(** Compiled tables: immutable, shareable across domains. *)

type home
(** Mutable home-node machine; single-owner. *)

type remote
(** Mutable remote-node machine; single-owner. *)

val compile : Prog.t -> t

val home_make : t -> k:int -> seed:int -> home
(** [k] is the home buffer capacity ({!Async.config}); [seed] seeds the
    home's transition choice. *)

val remote_make : t -> seed:int -> int -> remote
(** [remote_make t ~seed i] builds remote [i]'s machine. *)

(** {2 Step functions}

    Each returns the dense rule code of the transition taken ([-1] when
    no transition is enabled or every enabled one is blocked by [room]),
    updating the machine in place.  [room j] must answer whether one
    more message fits the channel towards remote [j] (resp. [room_h]
    towards the home); emission happens through [emit] within the step.
    Blocked transitions are excluded from the random choice but never
    reordered: retrying after the mailbox drains yields a legal
    schedule of the refined semantics.

    @raise Async.Protocol_error exactly where the interpreter would. *)

val home_local :
  home -> room:(int -> bool) -> emit:(int -> Wire.t -> unit) -> int

val home_recv : home -> int -> Wire.t -> emit:(int -> Wire.t -> unit) -> int
(** The caller must ensure [room] for the sender's return channel (a
    nack may be emitted); always consumes the message. *)

val remote_local : remote -> room_h:bool -> emit:(Wire.t -> unit) -> int

val remote_recv : remote -> Wire.t -> int
(** Never emits.  Returns [-2] when the one-slot buffer is full and the
    request must stay queued (the {!Async.remote_recv} [[]] case). *)

(** {2 Rule codes} *)

val n_rules : int
val rule_of_code : int -> Async.rule_id
val code_of_rule : Async.rule_id -> int

val completes : int -> bool
(** The rendezvous-completion rules, as the simulator counts them:
    true for the codes of H-C1, H-C1-silent, H-T1-repl, R-C3-ack,
    R-C3-silent and R-repl-recv. *)

(** {2 Observation}

    [last_actor]/[last_subject] describe the transition most recently
    returned by a step function, in {!Async.label} terms. *)

val home_last_actor : home -> int
val home_last_subject : home -> string
val remote_last_subject : remote -> string

val home_buf_len : home -> int
val home_at_comm : home -> bool
val remote_at_comm : remote -> bool

val remote_at_start : remote -> bool
(** Control at the initial state in communication mode — the condition
    the engine uses to charge the cycle budget. *)

val home_snapshot : home -> Async.home
val remote_snapshot : remote -> Async.remote
(** Fresh {!Async} values (environments copied) for invariant checks,
    trace capture and the watchdog. *)
