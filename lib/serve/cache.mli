(** Content-addressed result cache: one JSON file per {!Api.cache_key},
    holding the key, the config, the deterministic verdict and the job's
    journal lines, framed by the CRC32 ({!Ccr_modelcheck.Ckpt.crc32}) of
    those bytes.  Writes are atomic (temp file + rename) so a concurrent
    reader never sees a torn entry; eviction removes the oldest entries
    (mtime) past [max_entries]. *)

type t

type entry = {
  e_key : string;
  e_config : Ccr_obs.Journal.value;
  e_verdict : Api.verdict;
  e_journal : string list;  (** the job's journal, one JSON line each *)
}

val create : dir:string -> ?max_entries:int -> unit -> t
val dir : t -> string

val find : ?on_damaged:(string -> unit) -> t -> string -> entry option
(** The entry filed under [key], or [None].  A file that is there but
    fails its CRC, does not parse, holds another key's entry or lacks
    the CRC line (as entries written before the framing do) is a miss
    too, reported to [on_damaged] with the reason; the next {!store}
    under that key replaces it. *)

val store : t -> entry -> unit

(** Number of entries currently on disk. *)
val count : t -> int
