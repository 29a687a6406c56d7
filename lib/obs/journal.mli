(** Schema-versioned JSONL run journal.

    A journal buffers a run's events in memory — one JSON object per
    {!event} call — and writes them to a file in one append at the end of
    the run, one object per line.  Every line carries
    [{"v": <schema_version>, "ev": <kind>, ...}]: consumers parse line by
    line and skip kinds (or newer versions) they do not know, so the
    schema can grow compatibly; breaking changes bump {!schema_version}.

    Rendering is deterministic (caller field order, fixed float format),
    and the engines only feed parallelism-independent facts, so journals
    are byte-identical across [-j] counts — the property [ccr report]
    and the cram tests rely on.

    {!value} and {!parse} double as the repository's minimal JSON codec
    (there is no external JSON dependency): [ccr report] reads journals
    and bench rows back through them. *)

val schema_version : int
(** Current schema version, stamped as ["v"] on every line.  Version 1:
    events [config], [level], [limit], [canon], [faults], [violation],
    [coverage], [end]. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** Compact JSON, no whitespace; object fields in given order. *)

type t

val create : unit -> t

val event : t -> string -> (string * value) list -> unit
(** [event t kind fields] appends one line
    [{"v": .., "ev": kind, fields...}]. *)

val count : t -> int
(** Events buffered. *)

val bytes : t -> int
(** Size of {!contents} in bytes. *)

val contents : t -> string
(** All lines, oldest first, each newline-terminated. *)

val append_to_file : t -> string -> unit
(** Append {!contents} to a file (created 0644 if missing) — one
    line-block per invocation, [fsync]ed before returning so a crash
    immediately after cannot lose it. *)

(** {2 Parsing} *)

val parse : string -> value option
(** Parse one JSON document ([None] on malformed input).  Accepts the
    full JSON grammar; [\u] escapes decode to UTF-8. *)

val find : value -> string -> value option
(** Object field lookup ([None] on non-objects and missing keys). *)

val get_int : value option -> int option
val get_float : value option -> float option
val get_str : value option -> string option
val get_list : value option -> value list option
