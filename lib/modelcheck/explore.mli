(** Explicit-state reachability analysis.

    This is the reproduction's substitute for the paper's use of SPIN
    (§5): breadth-first enumeration of the reachable states of a labeled
    transition system, with invariant checking, deadlock detection,
    counterexample traces, and the resource caps that produce the
    "Unfinished" entries of Table 3. *)

type 's canon = {
  canon_key : 's -> string;
      (** canonical (orbit-representative) encoding used to key the
          visited set; must be deterministic and injective {e across
          orbits} (two states may share a key only if they are related by
          a symmetry of the system) *)
  canon_fresh : ('s -> unit) option;
      (** if given, called on each state right after it is found fresh.
          With one shard ([jobs = 1]) that is right after the state's
          [canon_key] call, in the same domain, so per-state
          canonicalization by-products (e.g. orbit sizes held in
          domain-local storage) are still readable; with more shards
          freshness is decided in other domains, so such by-products
          are {e not} readable there — attach domain-local harvesting
          only to one-shard runs *)
  canon_fallbacks : unit -> int;
      (** read at the end of the search: how many canonicalizations gave
          up on exactness and returned a merely injective key (sound, but
          reduces less) — surfaced as {!stats.canon_fallbacks} *)
}
(** Symmetry-reduction hook.  When present, exploration stores
    [canon_key st] in the visited set but keeps the {e concrete} state —
    as its [encode]d key in the frontier — for successor generation,
    invariant checking and traces — so quotient exploration changes
    which states count as duplicates, while counterexamples remain
    concrete, replayable runs (de-canonicalization is free: canonical
    keys never replace states). *)

type key_io = {
  export : string -> string;
  import : string -> string;
}
(** Keys that exist only inside one run (e.g. {!Ccr_refine.Table}'s
    component ids) and their form outside it: [export] maps a key to
    bytes that mean the same state in any run, [import] maps such bytes
    back, so [import (export k)] is a key equal to [k]. *)

type ('s, 'l) system = {
  init : 's;
  succ : 's -> ('l * 's) list;
  encode : 's -> string;  (** injective encoding for visited-state hashing *)
  decode : string -> 's;
      (** the inverse of [encode]: [decode (encode st)] must be a state
          equal to [st] — same successors, in the same order, same
          invariant verdicts, same printing.  The BFS frontier holds
          each discovered state as its key and decodes it when expanding
          it (and when a deadlock report needs it), so no structured
          state outlives its level *)
  canon : 's canon option;
      (** optional symmetry reduction; [None] = explore the full space *)
  key_io : key_io option;
      (** how [encode]d keys — the frontier's, and the visited keys of a
          run without [canon] — are written to a checkpoint and read back
          on resume; [None] = they are portable as they are (canonical
          keys always are) *)
}

type limit =
  | L_states
  | L_memory
  | L_time
  | L_interrupt
      (** the [interrupt] callback asked the engine to stop (e.g. a
          SIGINT/SIGTERM handler); work done so far is reported — and,
          with a checkpoint control attached, persisted *)

type visited_mode =
  | Exact  (** hash table of full encodings: exact counts *)
  | Bitstate of int
      (** supertrace/bitstate hashing with a [2^bits]-bit table and two
          independent hash functions, as SPIN's [-DBITSTATE] (Holzmann
          1991, which the paper used).  Collisions silently prune states:
          the visit count is a lower bound, using [2^bits / 8] bytes
          regardless of the state space. *)

type 's outcome =
  | Complete  (** the full reachable state space was enumerated *)
  | Limit of limit  (** exploration stopped at a resource cap *)
  | Violation of { invariant : string; state : 's }
  | Deadlock of 's  (** a state with no successors (when enabled) *)

type ('s, 'l) stats = {
  outcome : 's outcome;
  states : int;  (** distinct states visited *)
  transitions : int;  (** transitions traversed *)
  time_s : float;
  mem_bytes : int;
      (** honest resident bytes of the visited-state set, including index
          tables, headers and tail buffers — what [max_mem_bytes] meters *)
  raw_bytes : int;
      (** what the plain in-memory store would hold for the same states
          (key bytes plus a fixed per-state overhead); with the
          out-of-core store, [raw_bytes /. mem_bytes] is the resident
          saving *)
  peak_frontier : int;  (** the largest BFS level expanded *)
  max_depth : int;
      (** deepest discovery (the eccentricity of the initial state over
          the explored region) *)
  canon_fallbacks : int;
      (** canonicalizations that fell back to a non-canonical key (0
          without a [canon] hook); a non-zero value means the symmetry
          quotient was computed only partially — counts stay sound upper
          bounds of the quotient, verdicts are unaffected *)
  trace : ('l option * 's) list option;
      (** with [~trace:true]: initial state to offending state, each entry
          carrying the label that led to it *)
}

(** {2 Checkpoint control}

    The driver exposes resumable points through this record; the file
    format, write policy and refusal logic live in {!Ckpt}.  Every
    checkpoint is a level boundary: its frontier is the whole unexpanded
    level, in id order, so the frontier's ids are the last ones before
    [v_states] and its depth is [v_depth].  Frontier keys leave a run
    through the system's [key_io.export] and come back through
    [key_io.import] (as they are without a [key_io]); the visited keys
    do the same, except under [canon], whose keys are portable. *)

type ckpt_view = {
  v_states : int;
  v_transitions : int;
  v_depth : int;  (** BFS depth of the frontier *)
  v_final : bool;
      (** the driver is stopping at a cap or interrupt: last chance to
          persist *)
  v_frontier : string array Lazy.t;
      (** the unexpanded frontier's keys, exported (lazy: costs nothing
          when the policy declines the boundary) *)
  v_iter_keys : (string -> unit) -> unit;
      (** visit every visited-set key {e at this boundary}, through the
          system's [key_io.export] when it has one and no [canon] *)
}

type ckpt_resume = {
  r_states : int;
  r_transitions : int;
  r_depth : int;  (** BFS depth of the frontier *)
  r_frontier : string array;
      (** the frontier keys as [v_frontier] gave them; the driver
          imports them through [key_io.import] *)
  r_keys : (string -> unit) -> unit;
      (** the visited keys as [v_iter_keys] gave them; the driver
          re-imports them through [key_io.import] *)
  r_refused : string -> string;
      (** the one-line refusal for a resumed key that [key_io.import] or
          [decode] refuses, given the section, the key's index and the
          decoder's message (e.g. ["frontier key 0: …"]); the driver
          raises it as [Invalid_argument] before exploring anything *)
}

type ckpt = {
  ck_resume : ckpt_resume option;
      (** continue from this level boundary (as {!Ckpt.resume} builds it)
          instead of [sys.init].  The visited store is re-populated from
          [r_keys], counts continue from [r_states]/[r_transitions], and
          the frontier is re-queued.  A provenance table passed alongside
          must already hold [r_states] records. *)
  ck_save : ckpt_view -> unit;
      (** offered at every BFS level boundary after the first, and once
          more with [v_final = true] at the boundary the driver stops
          at: on a state or memory cap the driver first completes the
          level it was merging (the reported figures stay those of the
          stop); a time cap or interrupt caught at a boundary makes that
          boundary final, and so does one caught mid-level beyond one
          shard (the interrupted level is discarded); with one shard, one
          caught mid-level leaves the previous checkpoint standing *)
}

val run :
  ?jobs:int ->
  ?visited:visited_mode ->
  ?store:Vstore.kind ->
  ?max_states:int ->
  ?max_mem_bytes:int ->
  ?max_time_s:float ->
  ?check_deadlock:bool ->
  ?trace:bool ->
  ?invariants:(string * ('s -> bool)) list ->
  ?on_progress:(Ccr_obs.Progress.sample -> unit) ->
  ?progress_every:int ->
  ?prov:Vstore.Prov.t ->
  ?on_level:(depth:int -> states:int -> unit) ->
  ?interrupt:(unit -> bool) ->
  ?ckpt:ckpt ->
  ('s, 'l) system ->
  ('s, 'l) stats
(** Breadth-first search from [init], one level at a time, over [jobs]
    shards of the visited-key space (default 1), each an OCaml 5 domain
    with its own store.  Beyond one shard, each candidate is routed to
    the shard owning its key, each owner deduplicates its candidates in
    sequential discovery order, and one rank merge replays the fresh
    ones in that order — so [outcome], [states], [transitions],
    [max_depth], [trace] and the [on_level] sequence are identical at
    every [jobs] setting, including where a cap or an event stops the
    search (with [Exact] visited sets; [Bitstate] counts are
    approximate, with per-shard collision patterns).  [mem_bytes] and
    [raw_bytes] sum the shards.

    The frontier of a level holds keys, not states: without [canon] the
    very strings the visited store holds, with it each fresh state's
    [encode]d key (computed once per fresh state); a key is decoded just
    before its expansion.  Candidate states live only within the level
    that generated them.

    Requirement beyond one shard: [succ], [encode], [decode],
    [canon_key] and the invariants must be safe to call concurrently
    from several domains
    (true of all systems in this repository: they only read the
    compiled program).

    [store] (default {!Vstore.Mem}) selects the visited-set
    representation — in memory or out-of-core, see {!Vstore}; both
    kinds produce identical counts, only memory use differs.  A
    [Bitstate] visited mode takes precedence over [store].  Invariants
    are checked on every state as it is discovered (including the
    initial one); the first violation stops the search.
    [check_deadlock] (default [false]) reports a state with no
    successors.  [trace] (default [false]) rebuilds the offending
    state's path with {!replay_path} from [prov], or from an internal
    in-memory provenance table (8 bytes per state) when [prov] is not
    given.  [max_mem_bytes] caps the visited stores alone
    ([mem_bytes], summed over the shards): the frontier, the provenance
    table, a system's own tables (e.g. {!Ccr_refine.Table}'s interned
    components) and the rest of the heap are not metered, so the
    process's resident peak can be several times the cap (invalidate
    async n=6 under a 64 MB cap with the disk store completes with
    33.6 MB of store against a 103 MB peak RSS).  [max_time_s] and
    [interrupt] are polled before every
    expansion and stop with [Limit L_time]/[Limit L_interrupt]; beyond
    one shard a level they interrupt is discarded, so the figures are
    those of its boundary.  [on_progress] (default: none) is invoked every
    [progress_every] (default 8192) discoveries with a live
    {!Ccr_obs.Progress.sample}, whose [shard_balance] reports how evenly
    the visited set spreads over the shards.  [on_level] fires once per
    completed BFS level with its depth and the cumulative state count. *)

val replay_path :
  Vstore.Prov.t -> ('s, 'l) system -> int -> ('l option * 's) list
(** [replay_path prov sys id] rebuilds the path from [sys.init] to the
    state with visited id [id] out of the provenance side-table: an
    O(depth) parent-chain walk followed by one successor expansion per
    step (the recorded ordinal pins the concrete transition).  The result
    has the same shape and contents as {!stats.trace}.  Valid for any
    [prov] filled by {!run} over the same system. *)

val bitstate_positions : bits:int -> string -> int * int
(** The two bit-table positions a key occupies under {!Bitstate}
    hashing (seeded hashes 0 and 1 of the key, masked to [2^bits]).
    Exposed so tests can pin the independence of the two positions.
    (Alias of {!Vstore.bitstate_positions}.) *)

val pp_outcome : 's Fmt.t -> 's outcome Fmt.t
