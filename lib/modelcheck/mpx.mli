(** The multi-process partition of {!Explore.run}'s BFS driver, and the
    partition interface the driver runs every level against.

    {!partition} splits the canonical-key space over [workers] forked OS
    processes, each owning the visited-store shard for its keys and each
    free to run its own OCaml 5 domain pool; the parent routes frontier
    and candidate batches between them over pipes (see the
    implementation header for the wire steps).  Use it when one
    process's heap is the bottleneck: each worker holds [1/workers] of
    the visited set, and with [--store collapse] or [--store disk] per
    worker the per-process resident set shrinks further.

    The parent also supervises.  It retains, per worker, an append-only
    log of the keys merged into that worker's shard, so a worker that
    dies (crash, OOM kill, [CCR_CRASH_AT] injection) is respawned with
    exponential backoff, its store rebuilt from the log, and the
    interrupted protocol step replayed — counts are unaffected.  When
    the respawn budget ([2 * workers], reset on degradation) is
    exhausted, the key space is re-partitioned over one fewer worker and
    the round restarts; only the loss of the last worker fails the run.
    The same logs are the checkpoint's visited section. *)

val tag : int -> int -> int
(** [tag i ord] packs a frontier index and a successor ordinal into one
    int that sorts in sequential discovery order.
    @raise Invalid_argument past 65536 successors. *)

type 's cands = {
  mutable tags : int array;
  mutable keys : string array;
  mutable sts : 's array;
  mutable n : int;  (** the first [n] slots of each column are used *)
}
(** A growable buffer of successor candidates [(tag, key, state)], kept
    as three columns. *)

val cands : unit -> 's cands
val push : 's cands -> int -> string -> 's -> unit

val merge_iter : 's cands array -> (int -> int -> unit) -> unit
(** [merge_iter bufs f] visits the candidates of [bufs], each sorted by
    tag, in tag order: [f b h] for the [h]-th candidate of buffer [b]. *)

val count_succ : int -> 's cands list -> int array
(** Successor counts for a frontier of the given length, from the
    candidates' tags. *)

type 's level = {
  nsucc : int array;  (** successor count per frontier index *)
  fresh : 's cands array;  (** per shard, its fresh candidates by tag *)
  viol : (int * string) option;
      (** the tag-least fresh state violating an invariant, and which *)
  halted : bool;
      (** the time cap or interrupt stopped the expansion: nothing was
          deduplicated, the shards still hold the level's boundary *)
}
(** One expanded and deduplicated BFS level, before the rank merge. *)

type 's partition = {
  level : depth:int -> 's array -> 's level;
      (** expand this frontier (the states of [depth], in id order) and
          deduplicate its successors *)
  seed : string -> unit;  (** mark a key visited: the root, or a resumed key *)
  iter_keys : (string -> unit) -> unit;
  mem_bytes : unit -> int;
  raw_bytes : unit -> int;
  balance : unit -> float;  (** largest shard over the mean shard *)
  fallbacks : unit -> int;
      (** canonicalization fallbacks counted outside this process *)
  close : unit -> unit;
}

val parallel : int -> (int -> unit) -> unit
(** [parallel n f] runs [f 0] .. [f (n - 1)], each on its own domain ([f 0]
    on the caller's); an exception re-raises once all have joined. *)

val expand :
  jobs:int ->
  shards:int ->
  owner:(string -> int) ->
  key_of:('s -> string) ->
  succ:('s -> ('l * 's) list) ->
  halt:(unit -> bool) ->
  index:(int -> int) ->
  's array ->
  's cands array array * bool
(** Expand the states on [jobs] domains, off an atomic cursor: every
    successor of the k-th state as [(tag (index k) ord, key, state)], in
    per-domain buffers bucketed by [owner key] among [shards] — each
    sorted by tag when [index] is increasing.  Expansion stops once
    [halt ()] is true, which the flag reports. *)

val first_viol :
  (int * string) option -> (int * string) option -> (int * string) option
(** The tag-least of two violations. *)

val dedup :
  add:(string -> bool) ->
  violated:('s -> string option) ->
  's cands array ->
  's cands * (int * string) option
(** Deduplicate one owner's candidates, given as tag-sorted buffers, in
    tag order: the fresh candidates, in tag order, and the tag-least
    fresh violation. *)

val partition :
  workers:int ->
  jobs:int ->
  new_store:(unit -> Vstore.t) ->
  key_of:('s -> string) ->
  canon_fallbacks:(unit -> int) ->
  succ:('s -> ('l * 's) list) ->
  violated:('s -> string option) ->
  deadline:float option ->
  ?metrics:Ccr_obs.Metrics.t ->
  ?on_respawn:(worker:int -> unit) ->
  ?on_degrade:(workers:int -> unit) ->
  unit ->
  's partition
(** Fork [workers] processes of [jobs] domains each; each builds its
    shard with [new_store] and stops expanding past [deadline].
    [metrics] receives per-worker [mpx.w<i>.states_per_s] and
    [mpx.w<i>.bytes_per_state] gauges; [on_respawn]/[on_degrade] observe
    a worker replaced after a crash and the worker count dropping after
    a respawn-budget exhaustion.  Must be called before any domain is
    spawned in the calling process. *)

(** {2 Deterministic crash injection}

    [CCR_CRASH_AT=level=L] kills the checkpoint-writing process at BFS
    level [L] (see {!Ckpt.saver}); [CCR_CRASH_AT=worker=W,level=L] kills
    worker [W] as it is about to expand level [L].  Test-only. *)

type crash_at = { ca_worker : int option; ca_level : int }

val crash_at : unit -> crash_at option
val crash_here : unit -> unit
