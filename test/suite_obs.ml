(* The observability layer: metrics registry (sharded counters, gauges,
   log-scale histograms), the trace collector, progress rendering, and
   the checker-side message meter agreeing across engine configurations. *)

open Test_util
module M = Ccr_obs.Metrics
module T = Ccr_obs.Trace
module P = Ccr_obs.Progress
module Explore = Ccr_modelcheck.Explore
module Async = Ccr_refine.Async
module Wire = Ccr_refine.Wire

let counter_total snap name =
  match List.assoc_opt name snap.M.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from snapshot" name

let gauge_value snap name =
  match List.assoc_opt name snap.M.gauges with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s missing from snapshot" name

let hist snap name =
  match List.assoc_opt name snap.M.hists with
  | Some h -> h
  | None -> Alcotest.failf "histogram %s missing from snapshot" name

(* The checker-side message meter over a protocol's async system: counts
   per enumerated transition, as bin/ccr wires it. *)
let metered_async_system reg prog =
  let req = M.counter reg "msg.req"
  and ack = M.counter reg "msg.ack"
  and nack = M.counter reg "msg.nack"
  and data = M.counter reg "msg.data" in
  let occ = M.histogram reg "home_buffer_occupancy" in
  let meter =
    Async.
      {
        m_sent =
          (fun w ->
            match w with
            | Wire.Req m ->
              M.incr req;
              if m.Wire.m_payload <> [] then M.incr data
            | Wire.Ack -> M.incr ack
            | Wire.Nack -> M.incr nack);
        m_buf = (fun o -> M.observe occ o);
      }
  in
  let cfg = Async.{ k = 2 } in
  Explore.
    {
      init = Async.initial prog cfg;
      succ = Async.successors ~meter prog cfg;
      encode = Async.encode;
      decode = Async.decode prog;
      canon = None;
      key_io = None;
    }

let tests =
  [
    case "histogram bucket boundaries" (fun () ->
        checki "v=0 -> bucket 0" 0 (M.bucket_of 0);
        checki "v<0 -> bucket 0" 0 (M.bucket_of (-5));
        checki "v=1 -> bucket 1" 1 (M.bucket_of 1);
        checki "v=2 -> bucket 2" 2 (M.bucket_of 2);
        checki "v=3 -> bucket 2" 2 (M.bucket_of 3);
        checki "v=4 -> bucket 3" 3 (M.bucket_of 4);
        checki "v=7 -> bucket 3" 3 (M.bucket_of 7);
        checki "v=8 -> bucket 4" 4 (M.bucket_of 8);
        (* every power of two opens a new bucket, until the top one *)
        for b = 1 to M.n_buckets - 2 do
          checki (Fmt.str "2^%d opens bucket" (b - 1)) b
            (M.bucket_of (1 lsl (b - 1)));
          checki
            (Fmt.str "2^%d - 1 closes bucket" b)
            b
            (M.bucket_of ((1 lsl b) - 1))
        done;
        (* the top bucket absorbs everything beyond the last boundary *)
        checki "max_int lands in the top bucket" (M.n_buckets - 1)
          (M.bucket_of max_int);
        (* ranges tile the integers: bucket b starts where b-1 ended *)
        for b = 1 to M.n_buckets - 1 do
          let _, hi_prev = M.bucket_range (b - 1) in
          let lo, _ = M.bucket_range b in
          checki (Fmt.str "bucket %d contiguous" b) (hi_prev + 1) lo
        done;
        let lo0, hi0 = M.bucket_range 0 in
        checkb "bucket 0 starts at min_int" true (lo0 = min_int);
        checki "bucket 0 ends at 0" 0 hi0;
        let _, hi_top = M.bucket_range (M.n_buckets - 1) in
        checkb "top bucket ends at max_int" true (hi_top = max_int));
    case "histogram observe fills the right buckets" (fun () ->
        let reg = M.create () in
        let h = M.histogram reg "h" in
        List.iter (M.observe h) [ 0; 1; 1; 3; 8; 1000 ];
        let s = hist (M.snapshot reg) "h" in
        checki "count" 6 s.M.count;
        checkb "sum" true (s.M.sum = 1013.0);
        checki "bucket 0" 1 s.M.buckets.(0);
        checki "bucket 1 (v=1)" 2 s.M.buckets.(1);
        checki "bucket 2 (v in 2..3)" 1 s.M.buckets.(2);
        checki "bucket 4 (v in 8..15)" 1 s.M.buckets.(4);
        checki "bucket 10 (v in 512..1023)" 1 s.M.buckets.(10));
    case "observe_n is observe repeated" (fun () ->
        let reg = M.create () in
        let a = M.histogram reg "a" and b = M.histogram reg "b" in
        M.observe_n a 5 3;
        M.observe_n a 0 2;
        M.observe_n a 9 0;
        for _ = 1 to 3 do
          M.observe b 5
        done;
        M.observe b 0;
        M.observe b 0;
        let s = M.snapshot reg in
        let ha = hist s "a" and hb = hist s "b" in
        checki "counts agree" hb.M.count ha.M.count;
        checkb "sums agree" true (ha.M.sum = hb.M.sum);
        checkb "buckets agree" true (ha.M.buckets = hb.M.buckets));
    case "counters merge across domains" (fun () ->
        let reg = M.create () in
        let c = M.counter reg "c" in
        let per_domain = 10_000 in
        let body () =
          for _ = 1 to per_domain do
            M.incr c
          done
        in
        let doms = List.init 4 (fun _ -> Domain.spawn body) in
        body ();
        List.iter Domain.join doms;
        checki "five shards sum" (5 * per_domain)
          (counter_total (M.snapshot reg) "c"));
    case "gauges merge by maximum across domains" (fun () ->
        let reg = M.create () in
        let g = M.gauge reg "g" in
        let doms =
          List.init 4 (fun i ->
              Domain.spawn (fun () -> M.set g (float_of_int (10 * (i + 1)))))
        in
        M.set g 5.0;
        List.iter Domain.join doms;
        checkb "max wins" true (gauge_value (M.snapshot reg) "g" = 40.0));
    case "re-registering a name returns the same metric" (fun () ->
        let reg = M.create () in
        M.incr (M.counter reg "x");
        M.incr (M.counter reg "x");
        checki "one counter, two increments" 2
          (counter_total (M.snapshot reg) "x");
        checki "one entry" 1 (List.length (M.snapshot reg).M.counters));
    case "peak_rss_mb reads the process's VmHWM" (fun () ->
        let mb = M.peak_rss_mb () in
        if Sys.file_exists "/proc/self/status" then
          checkb "positive where /proc exists" true (mb > 0.)
        else checkb "0 without /proc" true (mb = 0.));
    case "reset zeroes every shard" (fun () ->
        let reg = M.create () in
        let c = M.counter reg "c" and h = M.histogram reg "h" in
        M.add c 7;
        M.observe h 3;
        M.reset reg;
        let s = M.snapshot reg in
        checki "counter zero" 0 (counter_total s "c");
        checki "hist empty" 0 (hist s "h").M.count);
    case "meter counts agree across jobs 1, 2, 4" (fun () ->
        (* per-enumerated-transition semantics: a Complete run expands
           every reachable state exactly once whatever the engine, so the
           metered message counts must match exactly *)
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let totals jobs =
          let reg = M.create () in
          let sys = metered_async_system reg prog in
          let r = Explore.run ~jobs sys in
          assert_complete (Fmt.str "j=%d" jobs) r;
          let s = M.snapshot reg in
          ( counter_total s "msg.req",
            counter_total s "msg.ack",
            counter_total s "msg.nack",
            counter_total s "msg.data",
            (hist s "home_buffer_occupancy").M.count )
        in
        let seq = totals 1 in
        let req, _, _, _, succ_calls = seq in
        checkb "messages were counted" true (req > 0);
        checkb "one occupancy sample per expansion" true (succ_calls > 0);
        checkb "j=2 agrees" true (totals 2 = seq);
        checkb "j=4 agrees" true (totals 4 = seq));
    case "metrics JSON carries every metric" (fun () ->
        let reg = M.create () in
        M.add (M.counter reg "msg.req") 41;
        M.set (M.gauge reg "states_per_sec") 1234.5;
        M.observe (M.histogram reg "lat") 6;
        let json = M.to_json (M.snapshot reg) in
        checkb "object" true
          (String.length json > 2 && json.[0] = '{');
        List.iter
          (fun sub -> checkb ("contains " ^ sub) true (contains_sub ~sub json))
          [
            "\"msg.req\": 41";
            "\"states_per_sec\": 1234.5";
            "\"lat\": {\"count\": 1";
            "\"buckets\":";
          ]);
    case "trace collector emits spans and instants" (fun () ->
        T.start ();
        checkb "enabled" true (T.enabled ());
        let v = T.with_span "work" ~args:[ ("n", T.Int 3) ] (fun () -> 17) in
        checki "span returns the thunk's value" 17 v;
        T.instant "nack";
        let json = T.stop () in
        checkb "disabled after stop" true (not (T.enabled ()));
        List.iter
          (fun sub -> checkb ("contains " ^ sub) true (contains_sub ~sub json))
          [
            "\"traceEvents\"";
            "\"name\": \"work\"";
            "\"ph\": \"X\"";
            "\"dur\":";
            "\"args\": {\"n\": 3}";
            "\"name\": \"nack\"";
            "\"ph\": \"i\"";
            "\"s\": \"g\"";
            "\"dropped\": 0";
          ]);
    case "span survives an exception" (fun () ->
        T.start ();
        (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
        let json = T.stop () in
        checkb "span recorded" true (contains_sub ~sub:"\"boom\"" json));
    case "tracer disabled is a no-op" (fun () ->
        checkb "off" true (not (T.enabled ()));
        T.instant "ignored";
        checki "thunk still runs" 9 (T.with_span "ignored" (fun () -> 9)));
    case "trace cap drops events past the ring and flags it" (fun () ->
        T.start ~cap:3 ();
        for i = 1 to 5 do
          T.instant (Fmt.str "ev%d" i)
        done;
        checki "dropped counted live" 2 (T.dropped ());
        let json = T.stop () in
        List.iter
          (fun sub -> checkb ("contains " ^ sub) true (contains_sub ~sub json))
          [ "\"ev1\""; "\"ev2\""; "\"ev3\""; "\"dropped\": 2" ];
        List.iter
          (fun sub ->
            checkb ("capped out " ^ sub) true (not (contains_sub ~sub json)))
          [ "\"ev4\""; "\"ev5\"" ];
        checki "dropped resets with the collector" 0 (T.dropped ()));
    case "OpenMetrics rendering of a snapshot" (fun () ->
        let reg = M.create () in
        M.add (M.counter reg "msg.req") 41;
        M.set (M.gauge reg "states_per_sec") 1234.5;
        let h = M.histogram reg "lat" in
        M.observe h 1;
        M.observe h 6;
        let om = M.to_openmetrics (M.snapshot reg) in
        List.iter
          (fun sub -> checkb ("contains " ^ sub) true (contains_sub ~sub om))
          [
            (* dots sanitized, counters get the _total suffix *)
            "# TYPE msg_req counter";
            "msg_req_total 41";
            "# TYPE states_per_sec gauge";
            "states_per_sec 1234.5";
            "# TYPE lat histogram";
            "lat_bucket{le=";
            (* cumulative: the +Inf bucket equals the count *)
            "lat_bucket{le=\"+Inf\"} 2";
            "lat_sum 7";
            "lat_count 2";
          ];
        checkb "ends with EOF marker" true
          (let tail = "# EOF\n" in
           String.length om >= String.length tail
           && String.sub om
                (String.length om - String.length tail)
                (String.length tail)
              = tail);
        (* buckets are cumulative and non-decreasing *)
        let lines = String.split_on_char '\n' om in
        let bucket_counts =
          List.filter_map
            (fun l ->
              if
                String.length l > 11
                && String.sub l 0 11 = "lat_bucket{"
              then
                match String.rindex_opt l ' ' with
                | Some i ->
                  int_of_string_opt
                    (String.sub l (i + 1) (String.length l - i - 1))
                | None -> None
              else None)
            lines
        in
        checkb "at least two buckets rendered" true
          (List.length bucket_counts >= 2);
        let rec nondecreasing = function
          | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
          | _ -> true
        in
        checkb "cumulative buckets" true (nondecreasing bucket_counts));
    case "progress render mentions the load-bearing numbers" (fun () ->
        let s =
          P.
            {
              states = 123_456;
              transitions = 700_000;
              depth = 17;
              frontier = 999;
              rate = 250_000.0;
              mem_bytes = 3 * 1024 * 1024;
              shard_balance = 1.25;
              elapsed_s = 2.5;
            }
        in
        let line = P.render s in
        List.iter
          (fun sub -> checkb ("mentions " ^ sub) true (contains_sub ~sub line))
          [ "123456"; "depth 17"; "999" ];
        checkb "single line" true (not (String.contains line '\n')));
  ]

let suite = ("obs", tests)
