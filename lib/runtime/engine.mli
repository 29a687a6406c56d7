(** Domain-sharded event-loop engine over compiled microcode tables: the
    paper's "implemented directly, for example in microcode" endpoint
    (§2.3), and the only way [ccr run] executes a protocol.

    The engine executes the {!Mcode} dispatch tables directly: nodes are
    sharded over OCaml 5 domains (home on domain 0, remote [i] on domain
    [i mod domains]) and exchange {!Wire} messages through preallocated
    SPSC {!Ring} mailboxes, drained in batches of up to [batch] messages
    per node visit.  Steady-state message passing takes no locks and
    allocates nothing beyond the payloads themselves (acks and nacks are
    constant constructors).

    Each remote runs [budget] protocol cycles ({!Runtime}); the run ends
    quiescent, at [deadline_s], at [max_steps], or with a deterministic
    [stop_cause = "stall"] when no transition can ever fire again
    (single-domain fault-free runs detect this after one full
    no-progress sweep; sharded runs after the step count stays frozen
    across repeated idle checks).  Quiescence is verified after the
    domains join, race-free: all modes communicating, transport
    drained, budgets spent.

    With [faults] the rings are replaced by the {!Faultlink} transport:
    [Vanilla] executes drops/dups/delays/pauses on the paper's
    unprotected channels (expect a deadline hit or a protocol error —
    that is the point), [Hardened] runs the timeout/retransmit/dedup
    transport and must stay quiescent and coherent.  A node that raises
    {!Async.Protocol_error} poisons the transport ({!Channel.close}) so
    the run winds down at once instead of at the deadline.

    [on_step] observes every executed transition as an {!Async.label}
    in execution order; tracing forces [domains = 1] and requires a
    fault-free run ([Invalid_argument] otherwise) so the label sequence
    is a deterministic legal schedule of the refined semantics, which
    {!replay} checks against {!Async.successors}. *)

open Ccr_core
open Ccr_refine
open Ccr_faults

val run :
  ?seed:int ->
  ?deadline_s:float ->
  ?max_steps:int ->
  ?domains:int ->
  ?batch:int ->
  ?ring_cap:int ->
  ?metrics:Ccr_obs.Metrics.t ->
  ?faults:Injected.mode * Plan.t ->
  ?on_step:(Async.label -> unit) ->
  budget:int ->
  invariants:(string * (Async.state -> bool)) list ->
  Prog.t ->
  Async.config ->
  Runtime.stats
(** [domains] (default 1) is clamped to [[1, n]]; [batch] (default 64)
    bounds both the mailbox drain and the local-transition burst per
    node visit; [ring_cap] (default 1024, rounded up to a power of two)
    sizes each mailbox — the protocol's in-flight occupancy per channel
    is O(1), so the default never exerts backpressure.  [metrics] is
    filled once after the domains join: [msg.req]/[msg.ack]/[msg.nack]/
    [msg.data]/[rendezvous] counters, the [home_buffer_occupancy]
    histogram, [engine.batch_size] and [engine.mailbox_occupancy]
    histograms (sampled at non-empty mailbox drains), per-domain
    [engine.msgs_per_sec.d<i>] gauges and, with a fault plan, the
    [fault.*] counters. *)

val replay :
  ?deadline_s:float ->
  ?max_steps:int ->
  budget:int ->
  invariants:(string * (Async.state -> bool)) list ->
  Prog.t ->
  Async.config ->
  (Runtime.stats * Async.label list, string) result
(** The engine's reference check: a traced single-domain {!run} with
    seed 0, replayed label by label through {!Async.successors}.  Every
    executed transition must be one the
    interpreter offers from a configuration the earlier labels reach
    (the frontier of such configurations is deduplicated and capped at
    64); the trace must cover every counted step; its completing labels
    ({!Mcode.completes}) must equal the reported rendezvous; and a
    reported quiescence must be a quiescent replayed configuration.
    Returns the stats and the trace, or the first discrepancy.  A run
    with protocol errors is a discrepancy; invariant failures are left
    to the caller. *)
