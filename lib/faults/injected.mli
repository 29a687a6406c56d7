(** Fault-injected transition systems for the model checker.

    Wraps the asynchronous semantics ({!Ccr_refine.Async}) with network
    faults drawn from a finite {!Fault.spec} budget carried inside the
    state, so the composed system stays finite and explorable:

    - {b Vanilla} mode executes the faults literally on the paper's
      channels: a drop removes a channel head, a duplication doubles it,
      a delay reorders it past the rest of its channel.  This is the
      refinement as derived — built on the §2.2 reliability assumption —
      so a single lost ack wedges a remote forever (the counterexample
      [ccr check --faults] exhibits).
    - {b Hardened} mode models the timeout/retransmit/dedup transport of
      {!Ccr_runtime.Faultlink} abstractly ("ghost ARQ"): a dropped or
      delayed message becomes a {e gap} at the head of its channel — the
      channel stalls (in-order delivery cannot proceed past the gap)
      until a retransmission re-injects the lost message at its original
      position; duplicates are absorbed by sequence-number dedup and only
      spend budget.  No sequence numbers enter the state, so the space
      stays finite and small.

    A reception that raises {!Ccr_refine.Async.Protocol_error} (reachable
    under duplication in vanilla mode: a stale ack hitting a
    non-transient process) is folded into a {e wedged} terminal state
    instead of an exception, so exploration can report it as an invariant
    violation with a concrete trace. *)

open Ccr_core
open Ccr_refine

type mode = Vanilla | Hardened

type budget = { b_drop : int; b_dup : int; b_delay : int; b_pause : int }

type fstate = {
  base : Async.state;
  left : budget;  (** remaining fault budget *)
  lost_h : Wire.t option array;
      (** hardened: gap at the head of [to_h.(i)], awaiting retransmit *)
  lost_r : Wire.t option array;
  paused : bool array;  (** remotes currently not reacting *)
  wedged : string option;
      (** a reception raised [Protocol_error]; terminal *)
}

type event =
  | Ev_drop of Fault.chan
  | Ev_dup of Fault.chan
  | Ev_delay of Fault.chan
  | Ev_retransmit of Fault.chan  (** hardened: the gap is refilled *)
  | Ev_pause of int
  | Ev_resume of int
  | Ev_wedge of string

type label = Step of Async.label | Fault of event

val initial : Fault.spec -> Prog.t -> Async.config -> fstate

val successors :
  ?faults:bool ->
  mode ->
  Fault.spec ->
  Prog.t ->
  Async.config ->
  fstate ->
  (label * fstate) list
(** All transitions of the composed system: the protocol's own steps
    (masked by pauses and hardened channel stalls, with [Protocol_error]
    receptions turned into wedge transitions) plus, with [faults]
    (default [true]), the nondeterministic fault transitions the
    remaining budget allows.  A wedged state has no successors. *)

val protocol_successors :
  ?paused:bool array ->
  ?stalled_h:bool array ->
  ?stalled_r:bool array ->
  Prog.t ->
  Async.config ->
  Async.state ->
  (Async.label * Async.state) list * (Fault.chan * string) list
(** The protocol steps alone, on a raw state under the given masks:
    paused remotes take no transition, stalled channels deliver nothing.
    Second component: channels whose head reception raises
    [Protocol_error], with the message (never raises).  Shared with the
    simulator's fault driver ({!Drive}). *)

val encode : fstate -> string

val decode : Prog.t -> string -> fstate
(** The inverse of {!encode}, as {!Ccr_refine.Async.decode}.
    @raise Invalid_argument naming [Injected.decode] and the byte offset
    on a malformed key. *)

val no_wedge : string * (fstate -> bool)
(** Invariant: the run never wedged on a protocol error. *)

val lift_invariant :
  string * (Async.state -> bool) -> string * (fstate -> bool)

val completes : Async.label -> bool
(** The label commits a rendezvous (the checker's progress notion). *)

val pp_event : event Fmt.t
val pp_label : label Fmt.t
val pp_fstate : Prog.t -> fstate Fmt.t

(** {2 Rendezvous level}

    At the rendezvous level there are no channels, so only pause faults
    apply: a paused process takes part in no transition until resumed. *)

type rv_fstate = {
  rv_base : Ccr_semantics.Rendezvous.state;
  rv_left : int;
  rv_paused : bool array;
}

type rv_label =
  | Rv_step of Ccr_semantics.Rendezvous.label
  | Rv_pause of int
  | Rv_resume of int

val rv_initial : Fault.spec -> Prog.t -> rv_fstate
val rv_successors : Prog.t -> rv_fstate -> (rv_label * rv_fstate) list
val rv_encode : rv_fstate -> string
val rv_decode : Prog.t -> string -> rv_fstate
(** The inverse of {!rv_encode}.
    @raise Invalid_argument naming [Injected.rv_decode] and the byte
    offset on a malformed key. *)

val pp_rv_label : rv_label Fmt.t
val pp_rv_fstate : Prog.t -> rv_fstate Fmt.t
