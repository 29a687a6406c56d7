(** Fault-injecting transport between the engine's nodes.

    Wraps the raw {!Channel}s with the fault layer: every protocol send
    is given its planned fate ({!Ccr_faults.Plan.decide}) — delivered,
    dropped, duplicated or delayed.  In [Vanilla] mode the faults hit the
    receiver directly, exactly as the paper's channels would misbehave.
    In [Hardened] mode the link runs the timeout/retransmit transport the
    checker models abstractly in {!Ccr_faults.Injected}: frames carry
    sequence numbers, the sender keeps unacknowledged frames and
    retransmits them after [rto]; the receiver deduplicates, resequences
    out-of-order arrivals, and returns cumulative transport acks on the
    reverse pipe.  Transport acks and retransmissions are exempt from the
    fault plan (the budget is spent on protocol messages), so a finite
    budget is always survivable.

    Ownership: for each direction, the sender-side state is only touched
    by [send]/[tick] (the sending node's domain) and the receiver-side
    state only by [peek]/[pop] (the receiving node's domain); the pipes
    between them are mutex-guarded {!Channel}s. *)

open Ccr_refine
open Ccr_faults

type t

val make :
  n:int -> mode:Injected.mode -> plan:Plan.t -> counts:Fault.counts -> t

val send : t -> Fault.chan -> Wire.t -> unit
(** Called by the channel's sending side only. *)

val peek : t -> Fault.chan -> Wire.t option
(** Next deliverable message (pumps the pipe first).  Called by the
    channel's receiving side only. *)

val pop : t -> Fault.chan -> Wire.t option

val tick : t -> Fault.chan -> unit
(** Sender-side timers: flush due delayed frames, retransmit frames
    unacknowledged past the timeout.  Call regularly from the sending
    side. *)

val quiet : t -> bool
(** Nothing in flight anywhere: pipes, ready queues, resequencing
    buffers, unacked lists and delay queues all empty. *)

val close : t -> unit
(** Poison every pipe and ready queue (see {!Channel.close}). *)

val inbox_length : t -> Fault.chan -> int
(** Frames queued toward the receiver (pipe + deliverable), for watchdog
    reports. *)

val drain : t -> Fault.chan -> Wire.t list
(** Remaining undelivered messages in FIFO-ish order (deliverable first,
    then in-flight, then resequencing buffer), for reassembling the final
    global state after the domains join. *)
