(** Reusable model-checking entry point: configuration record in, verdict
    record out.

    Extracted from the [ccr check] command so the CLI and the [ccr serve]
    daemon run the exact same code path.  The CLI injects a full-featured
    {!explorer} (checkpointing, provenance, progress);
    the daemon uses {!default_explorer}.  Everything user-visible — the
    rendered outcome line, counterexample states, starvation witnesses,
    journal events — is produced here so that a daemon verdict is
    byte-identical to the in-process one. *)

module Explore = Ccr_modelcheck.Explore
module J = Ccr_obs.Journal

(** A protocol either by registry name or as inline [.ccr] source. *)
type spec_src = Named of string | Inline of string

type config = {
  spec : spec_src;
  level : [ `Rv | `Async ];
  n : int;  (** remote nodes *)
  k : int;  (** home buffer capacity *)
  generic : bool;  (** disable the request/reply optimization *)
  symmetry : [ `Auto | `Off | `Brute ];
  faults : string option;  (** fault budget spec, e.g. ["drop=1@ack"] *)
  harden : bool;
  max_states : int;
  max_mem_mb : int option;
  deadline_s : float option;
  store : [ `Mem | `Collapse | `Disk ];
  jobs : int;  (** worker domains; the daemon always runs 1 *)
}

(** [default] is [ccr check]'s defaults with an empty spec. *)
val default : config

val level_name : config -> string
val symmetry_name : config -> string
val store_name : config -> string

(** Normalized fault-budget name ("none" when absent or unparsable);
    feeds {!spec_hash} and checkpoint manifests. *)
val faults_name : config -> string

val fault_spec :
  config -> (Ccr_faults.Fault.spec option, string) result

(** The exploration engine a caller plugs into {!check_entry}.  The field
    is explicitly polymorphic: one record serves every (state, label)
    instantiation of the four check branches. *)
type explorer = {
  explore :
    'st 'lbl.
    check_deadlock:bool ->
    split:(string -> int array) option ->
    invariants:(string * ('st -> bool)) list ->
    ('st, 'lbl) Explore.system ->
    ('st, 'lbl) Explore.stats;
}

(** Sequential (or [jobs]-domain) exploration honouring the config's
    store/caps; no checkpointing, no progress UI. *)
val default_explorer :
  ?on_level:(depth:int -> states:int -> unit) ->
  ?interrupt:(unit -> bool) ->
  config ->
  explorer

(** The deterministic part of a check result.  Wall-clock and memory
    figures live in {!meta} so verdicts are byte-comparable across
    machines and cache hits. *)
type verdict = {
  v_protocol : string;
  v_level : string;  (** "rendezvous" | "async" *)
  v_outcome : string;
      (** service outcome: "complete", "violation", "deadlock",
          "starvation", "limit-states", "limit-memory", "limit-time",
          "interrupted" *)
  v_explored : string;
      (** raw exploration outcome tag; differs from [v_outcome] only for
          starvation, where exploration itself completed *)
  v_ok : bool;
  v_states : int;
  v_transitions : int;
  v_max_depth : int;
  v_canon_fallbacks : int;
  v_sym : bool;  (** symmetry reduction was active *)
  v_invariant : string option;  (** violated invariant, if any *)
  v_starved : int option;  (** starved remote, if any *)
  v_rules : string list option;
      (** rule labels of the counterexample / witness path; [None] when
          the engine produced no trace at all *)
  v_outcome_line : string;  (** rendered text after "outcome: " *)
  v_trace : string list;  (** rendered counterexample states *)
  v_msc : string option;  (** rendered message-sequence chart *)
  v_liveness : string option;  (** rendered liveness block, async+faults *)
}

type meta = {
  m_time_s : float;
  m_mem_bytes : int;
  m_raw_bytes : int;
  m_peak_frontier : int;
}

val outcome_tag : _ Explore.outcome -> string

(** Resolve a spec source to a registry entry.  Inline sources are parsed
    and validated; they get no built-in invariants, like [.ccr] files. *)
val resolve : spec_src -> (Ccr_protocols.Registry.t, string) result

(** Pins *what* is being explored: the registry name and marshalled IR
    (entries without IR, such as [migratory-hand], differ by name alone)
    plus instance parameters and semantics flags.  Store/caps excluded —
    they may change across a checkpoint resume. *)
val spec_hash : Ccr_protocols.Registry.t -> config -> string

(** The checker's version as the result cache sees it.  Bump it whenever
    a change can alter a verdict for the same spec and config: checker
    semantics, the registry's invariants, or the key layout (which fixes
    exploration order and so [limit-states] stops).  It is part of
    {!cache_key} only, not of {!spec_hash}: a persisted cache stops
    serving verdicts computed by another checker, while checkpoints,
    whose resume is byte-identical by construction, still resume. *)
val checker_version : int

(** Content-addressed result-cache key: {!spec_hash} plus the
    verdict-affecting execution knobs (max_states, store) and
    {!checker_version}. *)
val cache_key : Ccr_protocols.Registry.t -> config -> string

(** Only machine-independent outcomes may be cached: complete, violation,
    deadlock, limit-states (BFS order is deterministic at jobs=1).
    Time/memory caps and interrupts depend on the machine. *)
val cacheable : verdict -> bool

(** Run one check.  [meter], [observe_label], [sym_stats] and [on_orbit]
    are CLI observability hooks; the daemon omits them. *)
val check_entry :
  ?explorer:explorer ->
  ?meter:Ccr_refine.Async.meter ->
  ?observe_label:(Ccr_refine.Async.label -> unit) ->
  ?sym_stats:Ccr_refine.Symmetry.stats ->
  ?on_orbit:(int -> unit) ->
  Ccr_protocols.Registry.t ->
  config ->
  (verdict * meta, string) result

(** {!resolve} + {!check_entry}. *)
val check : ?explorer:explorer -> config -> (verdict * meta, string) result

(** {2 Journal rendering}

    These reproduce the [ccr check] journal byte-for-byte: the daemon and
    the CLI call the same functions. *)

(** The schema-v1 "config" event fields (sans run-identity extras). *)
val journal_config : protocol:string -> config -> (string * J.value) list

(** Post-exploration events in emission order: cap/violation, canon,
    starvation. *)
val journal_events : verdict -> (string * (string * J.value) list) list

(** Fields of the pending "end" event. *)
val journal_end : verdict -> (string * J.value) list

(** {2 JSON codecs} (journal-codec values, HTTP bodies) *)

val config_to_json : config -> J.value
val config_of_json : J.value -> (config, string) result
val verdict_to_json : verdict -> J.value
val verdict_of_json : J.value -> (verdict, string) result
