(** The result of executing a refined protocol with {!Engine.run}.

    Workload: each remote runs [budget] protocol cycles (a cycle starts
    whenever the remote leaves its initial control state) and then goes
    quiet, still answering home requests.  The final configuration is
    reassembled into a global {!Ccr_refine.Async.state} and handed to
    the caller's invariants: coherence must hold at the end of a real
    execution, not only in the model. *)

open Ccr_faults

type stats = {
  completions : int array;  (** per-remote completed rendezvous *)
  rendezvous : int;
  messages : int;  (** wire messages actually sent *)
  reqs : int;  (** request messages (incl. replies) *)
  acks : int;
  nacks : int;
  data_msgs : int;  (** requests carrying a non-empty payload *)
  buf_occupancy : int array;
      (** histogram over home transitions: index [i] counts transitions
          that left [i] requests buffered at the home *)
  steps : int;  (** node transitions executed *)
  quiescent : bool;  (** clean termination before the deadline *)
  invariant_failures : string list;  (** on the final global state *)
  protocol_errors : string list;
      (** {!Ccr_refine.Async.Protocol_error}s raised by any node *)
  faults : Fault.fcounts;
      (** injection accounting (all zero without a fault plan) *)
  watchdog : (string * string) list;
      (** per-node snapshot taken after the run: control state, mode,
          remaining budget, inbox depth — on a deadline hit this names
          the stuck node instead of a bare [quiescent = false] *)
  wall_s : float;
  stop_cause : string;
      (** why the run ended: ["quiescent"], ["deadline"], ["step-cap"],
          ["stall"] (deterministic no-progress exit before the deadline)
          or ["error"] *)
}

val pp_stats : stats Fmt.t
