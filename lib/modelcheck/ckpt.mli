(** Crash-safe exploration checkpoints.

    One file, [DIR/ckpt], holds everything the BFS driver needs to continue
    from a level boundary: a JSON manifest (spec hash, instance
    parameters, engine flags, cumulative counts), the unexpanded frontier
    and the visited set as keys (each a varint length and the key's
    bytes, as the system exports them through {!Explore.key_io}), and the
    provenance slots.  Fault budgets have no section of their own — they
    live inside the states of the fault-injected semantics and ride in
    the frontier keys.  Nothing is marshalled: a key the reader's
    decoder does not accept is refused with its byte offset when the
    resumed run imports or expands it.

    Writes are atomic (temp file, fsync, rename, directory fsync): a
    crash at any byte leaves either the previous checkpoint or a complete
    new one.  Every section carries its length and CRC32, so torn or
    corrupted files are refused on load with a precise message.  The
    engine side of the contract ({!Explore.ckpt}) is deliberately
    format-blind; everything about bytes on disk lives here. *)

val version : int
(** Format version stamped in the header and manifest (2: frontier keys;
    1 marshalled decoded states).  Readers refuse checkpoints of any
    other version with one line naming both versions; compatible format
    changes keep the number, incompatible ones bump it. *)

val file : string -> string
(** [file dir] is the checkpoint path inside [dir] ([dir ^ "/ckpt"]). *)

val crc32 : string -> int
(** IEEE CRC32 (the one in zlib/PNG), exposed for tests. *)

val save :
  dir:string ->
  manifest:(string * Ccr_obs.Journal.value) list ->
  prov:Vstore.Prov.t option ->
  Explore.ckpt_view ->
  int
(** Write a checkpoint for the boundary [view] into [dir] (created if
    missing), returning the file's size in bytes.  [manifest] is the
    caller's static description of the run (see {!guard_keys}); the
    dynamic fields ([ckpt_version], [states], [transitions], [depth],
    [frontier_len], [prov_records]) are appended here.  When [prov] is
    given it must hold exactly [v_states] records. *)

type loaded = {
  l_manifest : (string * Ccr_obs.Journal.value) list;
  l_states : int;
  l_transitions : int;
  l_depth : int;  (** BFS depth of the checkpointed frontier *)
  l_frontier : string array;
      (** the frontier's exported keys, in id order: the last ids before
          [l_states] *)
  l_keys : (string -> unit) -> unit;
      (** re-iterate the visited-set keys, insertion order preserved *)
  l_prov : (int * int) array;
      (** [(parent, ord)] per dense id, empty when saved without
          provenance; {!resume} replays them *)
  l_bytes : int;  (** checkpoint file size *)
  l_file : string;  (** the checkpoint's path, [file dir] *)
}

val load : dir:string -> (loaded, string) result
(** Read and verify [dir]'s checkpoint.  Any damage — missing file, bad
    magic, truncation at whatever byte, CRC mismatch, bad key framing,
    manifest/section disagreement, another format version — yields
    [Error] with a one-line diagnosis; this function never raises on
    malformed input.  Keys are not decoded here: {!mismatch} decides
    whether they belong to the run at hand, and the run's own strict
    decoder refuses a damaged one. *)

val resume :
  ?prov:Vstore.Prov.t ->
  ?save:(Explore.ckpt_view -> unit) ->
  loaded ->
  Explore.ckpt
(** The checkpoint control that continues from [loaded]: its counts,
    depth, frontier and visited keys as {!Explore.ckpt_resume}, and
    [save] (default: none) for the boundaries still to come.  When
    [prov] is given, the loaded provenance slots are recorded into it
    first; it must be empty. *)

val guard_keys : string list
(** Manifest fields that pin {e what} is being explored ([spec_hash],
    [protocol], [level], [n], [k], [generic], [symmetry], [faults],
    [harden]).  Store kind, provenance kind, job counts and resource
    caps are deliberately absent: they affect how, not what, and may
    change between sessions of one run — so may keys a loaded manifest
    carries beyond these, such as the ["workers"] count of checkpoints
    written by the retired multi-process engine. *)

val mismatch :
  expected:(string * Ccr_obs.Journal.value) list ->
  found:(string * Ccr_obs.Journal.value) list ->
  string option
(** Compare the current run's manifest ([expected]) against a loaded
    one over {!guard_keys}.  [None] means resuming is safe; [Some diff]
    is a multi-line, field-by-field refusal message. *)

type every = E_states of int | E_secs of float

val parse_every : string -> (every, string) result
(** Parse a [--checkpoint-every] argument: a plain integer is a state
    count, a [30s]/[0.5s] suffix form is a wall-clock period. *)

val saver :
  dir:string ->
  manifest:(string * Ccr_obs.Journal.value) list ->
  prov:Vstore.Prov.t option ->
  ?every:every ->
  ?on_save:(bytes:int -> states:int -> depth:int -> unit) ->
  unit ->
  Explore.ckpt_view ->
  unit
(** The standard write policy, packaged as an {!Explore.ckpt} [ck_save]
    callback.  Writes at every level boundary by default, or when
    [every] states/seconds have accumulated since the last write.  A
    [v_final] view writes regardless of [every] — but only when its
    frontier is non-empty: a finished exploration has nothing a resume
    could continue, so the (large) final write is skipped.  [on_save]
    observes each completed
    write (for journaling and byte metering).  Honors [CCR_CRASH_AT]
    (see {!crash_at}) by killing the process {e after} the boundary's
    write.
    @raise Invalid_argument when [CCR_CRASH_AT] is malformed. *)

(** {2 Deterministic crash injection} *)

val crash_at : unit -> (int option, string) result
(** The [CCR_CRASH_AT] directive.  [CCR_CRASH_AT=level=L] makes
    {!saver} [SIGKILL] the process — no atexit, no flush, the closest
    portable stand-in for power loss — right after it writes the
    boundary at BFS depth [L]: [Ok (Some L)].  Unset or empty: [Ok None].
    Anything else — an unknown key, a non-numeric level, or the retired
    [worker=W,level=L] form — is [Error] with a one-line message naming
    the variable.  Test-only: this is how the resume smoke makes
    crashes reproducible. *)
