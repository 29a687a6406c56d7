(** The differential oracle battery.

    Every generated spec is valid by construction, so each oracle states
    a property the refinement pipeline must satisfy on it — a failure is
    a bug in the pipeline (or in the generator's validity argument), and
    is handed to {!Shrink}:

    - [Validate]: the built system passes {!Ccr_core.Validate.check};
    - [Roundtrip]: pretty-printing to the [.ccr] syntax and re-parsing
      yields a structurally identical {!Ccr_core.Ir.system};
    - [Rv]: rendezvous-level exploration finds no deadlock, and the
      state-key codec round-trips on every state it generates
      ([decode (encode st) = st], and the decoded state encodes back to
      the same key);
    - [Async]: refined-level exploration finds no deadlock and no
      {!Ccr_refine.Async.Protocol_error}, and the codec round-trips as
      for [Rv];
    - [Eq1]: the §4 stuttering simulation (Equation 1) holds;
    - [Symmetry]: the fast and brute-force symmetry quotients agree, and
      are no larger than the full space;
    - [Par]: the 4-domain parallel explorer reports the same state and
      transition counts as the sequential one;
    - [Faults]: under a one-drop budget the hardened transport stays
      safe — no wedge, no deadlock — and the fault-injected codec
      round-trips as for [Rv];
    - [Store]: the disk-backed visited store reports the same state and
      transition counts as the exact in-memory store (sequentially even
      under a state cap — the discovery order is shared — and with a
      tiny spill buffer forcing the disk read-back path; in parallel
      with 2 domains);
    - [Engine]: a budgeted traced run of the loop engine replays
      ({!Ccr_runtime.Engine.replay}) label-for-label through
      {!Ccr_refine.Async.successors} — every transition the compiled
      microcode tables execute must be one the interpreter offers from
      the same configuration (strictly stronger than label-count
      agreement with the simulator, which draws from that same successor
      function), the completing-label count must match the reported
      rendezvous, a reported quiescence must be a real quiescent
      configuration, and the trace must be deterministic in the seed;
    - [Resume]: interrupting the refined-level exploration halfway with
      a state cap, checkpointing it ({!Ccr_modelcheck.Ckpt}) to a
      temporary directory, reloading the file, and resuming reproduces
      the uninterrupted run's states, transitions and outcome exactly;
    - [Serve]: round-tripping the spec through a live in-process
      [ccr serve] daemon ({!Ccr_serve.Daemon}) as an inline [.ccr] body
      yields a verdict byte-identical to the in-process
      {!Ccr_serve.Api.check} — cold, and again warm, where a cacheable
      verdict must additionally be answered from the result cache.

    All explorations are capped at [max_states]; hitting the cap passes
    the oracle (the budget bounds work, it is not a verdict). *)

open Ccr_refine

type name =
  | Validate
  | Roundtrip
  | Rv
  | Async_explore
  | Eq1
  | Symmetry
  | Par
  | Faults
  | Store
  | Engine
  | Resume
  | Serve

val all : name list
val name_to_string : name -> string
val name_of_string : string -> (name, string) result

type outcome = Pass | Fail of string

type result = { oracle : name; outcome : outcome }

val n_rules : int
val rule_index : Async.rule_id -> int
(** Dense index into a coverage array, aligned with {!Async.all_rules}. *)

val run_battery :
  ?only:name list ->
  ?rules:int array ->
  max_states:int ->
  Gen.spec ->
  result list
(** Run the oracles in the fixed order of {!all} (restricted to [only]).
    [rules] (length {!n_rules}) accumulates per-rule transition counts
    enumerated during the [Async_explore] oracle — the Tables 1–2
    coverage matrix.  Compilation and the asynchronous exploration are
    shared across oracles, so the battery costs a handful of capped
    explorations per spec.  Any exception an oracle raises is folded
    into its [Fail]. *)

val failures : result list -> (name * string) list

val serve_dir : unit -> string
(** The [Serve] oracle's result-cache directory,
    [$TMPDIR/ccr-fuzz-serve-<pid>]; it exists while that oracle's daemon
    runs. *)

val stop_serve : unit -> unit
(** Stop the [Serve] oracle's daemon, if one runs, and remove its cache
    directory with every entry in it.  Also run at exit; the next
    [Serve] oracle starts a fresh daemon. *)

val coverage_of_spec :
  ?rules:int array -> max_states:int -> Gen.spec -> unit
(** Just the [Async_explore] rule accounting, for coverage baselines. *)
