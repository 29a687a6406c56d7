(** Visited-state stores for the exploration engines.

    Explicit-state exploration is bounded by the visited set (the paper's
    Table 3 "Unfinished" entries are exactly this cliff), so the store is
    pluggable.  Two stores are exact, and they are one index: an
    open-addressing table of one word per slot (the key's offset, an
    8-bit hash tag, its length), outside the OCaml heap.  A tag and
    length hit is confirmed by comparing the stored key's bytes, a word
    at a time, so — unlike bitstate hashing — counts stay exact.  Each
    key is stored once, as a varint length and its bytes, appended to a
    log; the stores differ only in where that log lives:

    - {!Mem}: in RAM, in off-heap chunks that start at 4 KiB and grow to
      256 KiB; about 8 bytes per slot plus the key bytes and one length
      byte per key.  Neither the GC's marking nor its slack grows with
      the store.
    - {!Disk}: out-of-core.  The log is an unlinked temporary file behind
      a small RAM tail buffer, so resident memory is ~8 bytes per slot;
      a probe that hits a tag reads the stored key back.

    All stores are single-threaded; [Explore.run ~jobs] gives each domain
    shard its own store, touched by one domain at a time. *)

type t = {
  add : string -> bool;
      (** [add key] is [true] when the key was not seen before (and marks
          it) — the one hot-path operation *)
  mem_bytes : unit -> int;
      (** honest resident memory: table slots {e plus} the RAM log's
          bytes (key bytes and lengths) or the disk store's tail and
          read buffers — what a memory cap should meter *)
  raw_bytes : unit -> int;
      (** what a store of boxed key strings would hold for the same
          states (key bytes + a fixed per-state overhead): the stable
          baseline for resident-saving and bytes/state comparisons *)
  count : unit -> int;  (** keys marked *)
  iter_keys : (string -> unit) -> unit;
      (** visit every stored key in insertion order, in both stores, by
          walking the log (the index is not sorted); so a run's
          serialization is reproducible and the same for {!Mem} and
          {!Disk}.
          @raise Invalid_argument for {!bitstate}, which drops the keys
          by construction. *)
}

type kind = Mem | Disk
(** Store selector, as exposed by [ccr check --store]. *)

val kind_name : kind -> string

val make : ?init_slots:int -> ?tail_cap:int -> kind -> t
(** [init_slots] (default 4096 for {!Mem}, 1024 for {!Disk}; must be a
    power of two) sizes the initial index so sharded engines can start
    small — with honest [mem_bytes], 64 eagerly-huge shards would burn a
    small memory cap before exploring a single state.  The index doubles
    when an insert fills it to 7/8, rehashing each key from the log in
    insertion order.
    [tail_cap] (default 64 KiB, {!Disk} only) bounds the in-RAM append
    buffer. *)

val exact : ?init_slots:int -> unit -> t
val disk : ?path:string -> ?init_slots:int -> ?tail_cap:int -> unit -> t
(** [?path] names the backing file (created/truncated, left on disk) so a
    checkpointed run can reopen a stable store file; without it the store
    lives in an unlinked temp file that vanishes with the process. *)

val bitstate : int -> t
(** Supertrace/bitstate hashing with a [2^bits]-bit table and two
    independent hash positions, as SPIN's [-DBITSTATE].  Collisions
    silently prune states: [count] is a lower bound.  Not a [kind]: the
    engines select it through their [visited] mode, which takes
    precedence over [--store]. *)

val bitstate_positions : bits:int -> string -> int * int
(** The two bit-table positions a key occupies under {!bitstate} (seeded
    hashes 0 and 1, masked to [2^bits]); exposed so tests can pin the
    independence of the two positions. *)

val per_state_overhead : int
(** The fixed per-state overhead {!t.raw_bytes} adds to the key bytes. *)

(** {2 Provenance side-table}

    Optional per-state provenance for the exploration engines: for each
    visited state id (dense, in discovery order) the parent id and the
    ordinal of the fired transition within the parent's successor list.
    One packed 8-byte record per state, in off-heap RAM chunks ([P_mem],
    the {!Mem} store's log: growing never copies more than the first
    chunk) or appended to an unlinked temporary file through a tail
    buffer ([P_disk]) so the table stays out-of-core alongside
    [--store disk].  Labels are not
    stored — replaying the recorded ordinals from the initial state
    recovers them — so counterexample reconstruction is an O(depth)
    chain walk instead of a sequential re-exploration. *)
module Prov : sig
  type t

  type pkind = P_mem | P_disk

  val pkind_name : pkind -> string

  val create : ?kind:pkind -> ?tail_cap:int -> unit -> t
  (** Defaults: [P_mem]; [tail_cap] (bytes, [P_disk] only) 64 KiB. *)

  val record : t -> id:int -> parent:int -> ord:int -> unit
  (** Record state [id]'s provenance.  Ids must arrive densely in
      increasing order ([id] = number of records so far).  The root is
      recorded as [~parent:0 ~ord:(-1)].
      @raise Invalid_argument on out-of-order ids, ordinals outside
      [-1, 2^16-2], or a non-root parent not preceding its child. *)

  val entry : t -> int -> int * int
  (** [(parent, ord)] of a recorded id; the root yields [(0, -1)]. *)

  val chain : t -> int -> int list
  (** Successor ordinals along the chain from the root to [id], root
      first (the root's pseudo-ordinal excluded). *)

  val count : t -> int

  val mem_bytes : t -> int
  (** Resident bytes (the records in RAM, or the tail/read buffers). *)

  val bytes : t -> int
  (** Total provenance bytes recorded, resident or not: 8 per state. *)
end
