(** Metrics registry: named counters, gauges, and log-scale histograms.

    Updates are O(1), allocation-free in steady state, and touch only the
    calling domain's shard (via [Domain.DLS]), so the parallel explorer's
    worker domains never contend.  Reads ({!snapshot}) merge the shards:
    counters and histogram buckets sum, gauges take the maximum (they are
    watermarks).  A snapshot taken while writers run can lag them by a few
    updates — metrics are monitoring data, not semantics. *)

type t
(** A registry.  Handles are interned by name: registering the same name
    twice returns the same underlying metric. *)

type counter
type gauge
type histogram

val create : unit -> t
val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit
(** Last-writer-wins within a domain; across domains the merged reading
    is the maximum. *)

val set_max : gauge -> float -> unit

val observe : histogram -> int -> unit

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v n] records value [v] [n] times in one update — for
    bulk-loading a histogram from an externally accumulated array. *)

(** {2 Bucket layout}

    [n_buckets] log-scale buckets: bucket [0] holds values [<= 0]; bucket
    [b >= 1] holds [2^(b-1) <= v < 2^b]; the top bucket absorbs all larger
    values. *)

val n_buckets : int
val bucket_of : int -> int
val bucket_range : int -> int * int
(** Inclusive [(lo, hi)] of a bucket ([(min_int, 0)] for bucket 0,
    [(_, max_int)] for the top bucket). *)

(** {2 Merged snapshots and renderers} *)

type hist_snapshot = { buckets : int array; count : int; sum : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot
val reset : t -> unit

val to_json : snapshot -> string
(** One flat JSON object: counters and gauges as numbers, histograms as
    [{"count": _, "sum": _, "buckets": [{"lo": _, "hi": _, "n": _}, ...]}]
    with empty buckets omitted. *)

val to_openmetrics : snapshot -> string
(** OpenMetrics text exposition — the scrape surface for a future
    [ccr serve].  Names are sanitized to [[a-zA-Z0-9_:]] (dots become
    underscores); counters are suffixed [_total]; histograms render as
    cumulative [_bucket{le="..."}] series (log-scale upper bounds, empty
    buckets elided, the top bucket folded into [le="+Inf"]) with [_sum]
    and [_count]; the document ends with [# EOF]. *)

val pp : snapshot Fmt.t
(** Human-readable table, one metric per line. *)

val pp_hist : hist_snapshot Fmt.t

(** {2 Process gauges} *)

val peak_rss_mb : unit -> float
(** The process's peak resident set so far (VmHWM in
    [/proc/self/status]), in MB; 0 where that file is unavailable. *)
