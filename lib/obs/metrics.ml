(* Metrics registry with per-domain shards.

   The hot path (incr/add/set/observe) touches only the calling domain's
   shard: a plain record of mutable int/float arrays reached through
   [Domain.DLS], so parallel explorer workers never contend on a lock or
   an atomic, and a steady-state update allocates nothing.  Readers merge
   the shards under the registry lock; merged values can lag concurrent
   writers by a few updates (metrics are monitoring data, not semantics). *)

type shard = {
  mutable s_counters : int array;
  mutable s_gauges : float array;
  mutable s_hists : int array array;
  mutable s_hist_count : int array;
  mutable s_hist_sum : float array;
}

type t = {
  lock : Mutex.t;
  mutable counter_names : string array;
  mutable n_counters : int;
  mutable gauge_names : string array;
  mutable n_gauges : int;
  mutable hist_names : string array;
  mutable n_hists : int;
  mutable shards : shard list;
  key : shard Domain.DLS.key;
}

type counter = { cr : t; cid : int }
type gauge = { gr : t; gid : int }
type histogram = { hr : t; hid : int }

let no_buckets : int array = [||]

let fresh_shard () =
  {
    s_counters = [||];
    s_gauges = [||];
    s_hists = [||];
    s_hist_count = [||];
    s_hist_sum = [||];
  }

let create () =
  let self = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        let s = fresh_shard () in
        (match !self with
        | Some t ->
          Mutex.lock t.lock;
          t.shards <- s :: t.shards;
          Mutex.unlock t.lock
        | None -> ());
        s)
  in
  let t =
    {
      lock = Mutex.create ();
      counter_names = [||];
      n_counters = 0;
      gauge_names = [||];
      n_gauges = 0;
      hist_names = [||];
      n_hists = 0;
      shards = [];
      key;
    }
  in
  self := Some t;
  t

(* ---- registration (cold path) ------------------------------------------- *)

let index_of names n name =
  let rec go i = if i >= n then -1 else if names.(i) = name then i else go (i + 1) in
  go 0

let push names n name =
  let names =
    if Array.length names > n then names
    else Array.append names (Array.make (max 8 (Array.length names)) "")
  in
  names.(n) <- name;
  names

let counter t name =
  Mutex.lock t.lock;
  let id =
    match index_of t.counter_names t.n_counters name with
    | -1 ->
      t.counter_names <- push t.counter_names t.n_counters name;
      t.n_counters <- t.n_counters + 1;
      t.n_counters - 1
    | i -> i
  in
  Mutex.unlock t.lock;
  { cr = t; cid = id }

let gauge t name =
  Mutex.lock t.lock;
  let id =
    match index_of t.gauge_names t.n_gauges name with
    | -1 ->
      t.gauge_names <- push t.gauge_names t.n_gauges name;
      t.n_gauges <- t.n_gauges + 1;
      t.n_gauges - 1
    | i -> i
  in
  Mutex.unlock t.lock;
  { gr = t; gid = id }

let histogram t name =
  Mutex.lock t.lock;
  let id =
    match index_of t.hist_names t.n_hists name with
    | -1 ->
      t.hist_names <- push t.hist_names t.n_hists name;
      t.n_hists <- t.n_hists + 1;
      t.n_hists - 1
    | i -> i
  in
  Mutex.unlock t.lock;
  { hr = t; hid = id }

(* ---- hot path ------------------------------------------------------------ *)

let[@inline] shard t = Domain.DLS.get t.key

let ceil_pow2 n =
  let c = ref 8 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Growth happens at most [log] times per shard and copies the old cells,
   so a concurrent merge reads either the old array (slightly stale) or
   the new one. *)
let counters_for (s : shard) id =
  let a = s.s_counters in
  if id < Array.length a then a
  else begin
    let a' = Array.make (ceil_pow2 (id + 1)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    s.s_counters <- a';
    a'
  end

let gauges_for (s : shard) id =
  let a = s.s_gauges in
  if id < Array.length a then a
  else begin
    let a' = Array.make (ceil_pow2 (id + 1)) 0.0 in
    Array.blit a 0 a' 0 (Array.length a);
    s.s_gauges <- a';
    a'
  end

let n_buckets = 32

let hist_for (s : shard) id =
  if id >= Array.length s.s_hists then begin
    let n = ceil_pow2 (id + 1) in
    let hs = Array.make n no_buckets in
    Array.blit s.s_hists 0 hs 0 (Array.length s.s_hists);
    s.s_hists <- hs;
    let hc = Array.make n 0 in
    Array.blit s.s_hist_count 0 hc 0 (Array.length s.s_hist_count);
    s.s_hist_count <- hc;
    let hh = Array.make n 0.0 in
    Array.blit s.s_hist_sum 0 hh 0 (Array.length s.s_hist_sum);
    s.s_hist_sum <- hh
  end;
  if s.s_hists.(id) == no_buckets then s.s_hists.(id) <- Array.make n_buckets 0;
  s.s_hists.(id)

let add c n =
  let a = counters_for (shard c.cr) c.cid in
  a.(c.cid) <- a.(c.cid) + n

let incr c = add c 1

(* Gauges merge by [max] across shards (they are watermarks / last-known
   levels, not additive), so [set] within one domain is last-writer-wins
   and the merged reading is the high-water mark. *)
let set g v =
  let a = gauges_for (shard g.gr) g.gid in
  a.(g.gid) <- v

let set_max g v =
  let a = gauges_for (shard g.gr) g.gid in
  if v > a.(g.gid) then a.(g.gid) <- v

(* Log-scale buckets: bucket 0 holds [v <= 0]; bucket [b >= 1] holds
   [2^(b-1) <= v < 2^b]; the top bucket absorbs everything above. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 1 and lim = ref 2 in
    while v >= !lim && !b < n_buckets - 1 do
      b := !b + 1;
      lim := !lim * 2
    done;
    !b
  end

let bucket_range b =
  if b <= 0 then (min_int, 0)
  else if b >= n_buckets - 1 then (1 lsl (n_buckets - 2), max_int)
  else (1 lsl (b - 1), (1 lsl b) - 1)

let observe h v =
  let s = shard h.hr in
  let buckets = hist_for s h.hid in
  let b = bucket_of v in
  buckets.(b) <- buckets.(b) + 1;
  s.s_hist_count.(h.hid) <- s.s_hist_count.(h.hid) + 1;
  s.s_hist_sum.(h.hid) <- s.s_hist_sum.(h.hid) +. float_of_int v

let observe_n h v n =
  if n > 0 then begin
    let s = shard h.hr in
    let buckets = hist_for s h.hid in
    let b = bucket_of v in
    buckets.(b) <- buckets.(b) + n;
    s.s_hist_count.(h.hid) <- s.s_hist_count.(h.hid) + n;
    s.s_hist_sum.(h.hid) <- s.s_hist_sum.(h.hid) +. (float_of_int v *. float_of_int n)
  end

(* ---- merged snapshots ---------------------------------------------------- *)

type hist_snapshot = { buckets : int array; count : int; sum : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * hist_snapshot) list;
}

let snapshot t =
  Mutex.lock t.lock;
  let shards = t.shards in
  let counters =
    List.init t.n_counters (fun i ->
        ( t.counter_names.(i),
          List.fold_left
            (fun acc s ->
              acc + if i < Array.length s.s_counters then s.s_counters.(i) else 0)
            0 shards ))
  in
  let gauges =
    List.init t.n_gauges (fun i ->
        ( t.gauge_names.(i),
          List.fold_left
            (fun acc s ->
              Float.max acc
                (if i < Array.length s.s_gauges then s.s_gauges.(i) else 0.0))
            0.0 shards ))
  in
  let hists =
    List.init t.n_hists (fun i ->
        let buckets = Array.make n_buckets 0 in
        let count = ref 0 and sum = ref 0.0 in
        List.iter
          (fun s ->
            if i < Array.length s.s_hists && s.s_hists.(i) != no_buckets then begin
              Array.iteri (fun b n -> buckets.(b) <- buckets.(b) + n) s.s_hists.(i);
              count := !count + s.s_hist_count.(i);
              sum := !sum +. s.s_hist_sum.(i)
            end)
          shards;
        (t.hist_names.(i), { buckets; count = !count; sum = !sum }))
  in
  Mutex.unlock t.lock;
  { counters; gauges; hists }

let reset t =
  Mutex.lock t.lock;
  List.iter
    (fun s ->
      Array.fill s.s_counters 0 (Array.length s.s_counters) 0;
      Array.fill s.s_gauges 0 (Array.length s.s_gauges) 0.0;
      Array.iter (fun b -> Array.fill b 0 (Array.length b) 0) s.s_hists;
      Array.fill s.s_hist_count 0 (Array.length s.s_hist_count) 0;
      Array.fill s.s_hist_sum 0 (Array.length s.s_hist_sum) 0.0)
    t.shards;
  Mutex.unlock t.lock

(* ---- renderers ------------------------------------------------------------ *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let to_json snap =
  let b = Buffer.create 1024 in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "  "
  in
  let name n =
    Buffer.add_char b '"';
    json_escape b n;
    Buffer.add_string b "\": "
  in
  Buffer.add_string b "{\n";
  List.iter
    (fun (n, v) ->
      sep ();
      name n;
      Buffer.add_string b (string_of_int v))
    snap.counters;
  List.iter
    (fun (n, v) ->
      sep ();
      name n;
      Buffer.add_string b (json_float v))
    snap.gauges;
  List.iter
    (fun (n, h) ->
      sep ();
      name n;
      Buffer.add_string b
        (Printf.sprintf "{\"count\": %d, \"sum\": %s, \"buckets\": [" h.count
           (json_float h.sum));
      let bfirst = ref true in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            if !bfirst then bfirst := false else Buffer.add_string b ", ";
            let lo, hi = bucket_range i in
            Buffer.add_string b
              (Printf.sprintf "{\"lo\": %d, \"hi\": %d, \"n\": %d}"
                 (max lo 0) hi c)
          end)
        h.buckets;
      Buffer.add_string b "]}")
    snap.hists;
  Buffer.add_string b "\n}";
  Buffer.contents b

(* OpenMetrics text exposition (the Prometheus scrape surface for the
   roadmap's [ccr serve]): metric names sanitized to [a-zA-Z0-9_:],
   counters suffixed [_total], histograms as cumulative [_bucket{le=..}]
   series with [_sum]/[_count], terminated by [# EOF]. *)
let om_name n =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    n

let om_float f =
  if not (Float.is_finite f) then
    if Float.is_nan f then "NaN"
    else if f > 0.0 then "+Inf"
    else "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let strip_total n =
  let suffix = "_total" in
  let nl = String.length n and sl = String.length suffix in
  if nl > sl && String.sub n (nl - sl) sl = suffix then String.sub n 0 (nl - sl)
  else n

let to_openmetrics snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (n, v) ->
      let n = strip_total (om_name n) in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    snap.counters;
  List.iter
    (fun (n, v) ->
      let n = om_name n in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (om_float v)))
    snap.gauges;
  List.iter
    (fun (n, h) ->
      let n = om_name n in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if c > 0 then begin
            let _, hi = bucket_range i in
            (* the top bucket folds into +Inf below; cumulative counts
               stay correct when empty buckets are elided *)
            if hi <> max_int then
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n hi !cum)
          end)
        h.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n"
           n h.count n (om_float h.sum) n h.count))
    snap.hists;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let pp_hist ppf h =
  let mean = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count in
  Fmt.pf ppf "count=%d mean=%.2f" h.count mean;
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bucket_range i in
        if i = 0 then Fmt.pf ppf " [<=0]:%d" c
        else if hi = max_int then Fmt.pf ppf " [>=%d]:%d" lo c
        else Fmt.pf ppf " [%d-%d]:%d" lo hi c)
    h.buckets

let pp ppf snap =
  List.iter (fun (n, v) -> Fmt.pf ppf "%-32s %d@," n v) snap.counters;
  List.iter (fun (n, v) -> Fmt.pf ppf "%-32s %.6g@," n v) snap.gauges;
  List.iter (fun (n, h) -> Fmt.pf ppf "%-32s %a@," n pp_hist h) snap.hists

(* ---- process gauges ------------------------------------------------------ *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ ->
               Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
             | [] -> None)
           | _ -> None)
    |> Option.value ~default:0.
