(* One workload of the repository benchmark, in its own process.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
            --ccr PATH --work-dir DIR [--rev REV] [--nproc N]

   Prints human-readable lines, then one JSON object as the last line of
   standard output.  With --trace 0 it carries the end-to-end metrics,
   measured with no instrumentation in the timed path; with --trace 1 it
   carries the per-layer metrics, measured by wrapping the closures and
   calls this program hands to the public entry points (nothing inside
   lib/ is instrumented).  README.md explains the workloads and which
   end-to-end metric each layer metric should move. *)

module Api = Ccr_serve.Api
module Cache = Ccr_serve.Cache
module Http = Ccr_serve.Http
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Sym = Ccr_refine.Symmetry
module Mcode = Ccr_refine.Mcode
module Wire = Ccr_refine.Wire
module Ring = Ccr_runtime.Ring
module Engine = Ccr_runtime.Engine
module Runtime = Ccr_runtime.Runtime
module Registry = Ccr_protocols.Registry
module M = Ccr_obs.Metrics
module J = Ccr_obs.Journal

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns *. 1e-9
let ms_of_ns ns = float_of_int ns *. 1e-6

(* ---- statistics ---------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of p99.9/p99/p90/p50 (nearest rank) that leaves at least
   ten samples above it, with that percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rec pick = function
    | [] -> if n = 0 then (100., 0.) else (100., a.(n - 1))
    | p :: rest ->
      let idx = max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1) in
      if n - 1 - idx >= 10 then (p, a.(idx)) else pick rest
  in
  pick [ 99.9; 99.; 90.; 50. ]

let ratio a b = if b = 0. then 0. else a /. b

(* ---- outcome bookkeeping and output -------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* Every operation the benchmark runs is attempted once; a wrong or
   failed one counts toward [failed]. *)
let record what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "FAILED: %s\n%!" what
  end

let show name value unit = Printf.printf "  %-30s %16.6f %s\n%!" name value unit

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ---- the end-to-end and per-layer metric sets ---------------------------- *)

(* Each workload reports all four end-to-end metrics; README.md gives
   their per-workload meaning. *)
let end_to_end ~setup_s ~op_ms ~work_per_s ~rss_mb =
  [
    ("setup_s", setup_s, "s");
    ("op_ms", op_ms, "ms");
    ("work_per_s", work_per_s, "1/s");
    ("peak_rss_mb", rss_mb, "MB");
  ]

(* Every traced run reports every name below; a layer the workload does
   not exercise in this process reads 0. *)
let per_layer_units =
  [
    ("async.successors_s", "s"); ("async.successors_calls", "count");
    ("async.branching", "trans/call"); ("async.encode_s", "s");
    ("async.encode_calls", "count"); ("async.msgs_per_transition", "msgs/trans");
    ("symmetry.canon_s", "s"); ("symmetry.calls", "count");
    ("symmetry.perms_per_call", "perms/call"); ("symmetry.tied_share", "ratio");
    ("symmetry.fallbacks", "count"); ("vstore.add_s", "s");
    ("vstore.fresh_ratio", "states/trans"); ("vstore.bytes_per_state", "B/state");
    ("vstore.store_mb", "MB"); ("explore.wall_s", "s"); ("explore.self_s", "s");
    ("explore.invariants_s", "s"); ("explore.peak_frontier", "states");
    ("explore.max_depth", "levels"); ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("explore.par_j2_s", "s"); ("explore.par_speedup", "ratio");
    ("mcode.compile_s", "s"); ("engine.msgs_per_rdv", "msgs/rdv");
    ("engine.steps_per_msg", "steps/msg"); ("engine.batch_size_mean", "msgs");
    ("engine.mailbox_occupancy_mean", "msgs"); ("ring.push_pop_ns", "ns");
    ("engine.j2_msgs_per_s", "1/s"); ("engine.j2_deadline_hit", "count");
    ("http.rtt_ms", "ms"); ("api.cache_key_us", "us"); ("cache.find_ms", "ms");
    ("cache.store_ms", "ms"); ("serve.queue_wait_ms", "ms");
    ("serve.job_ms_tail", "ms"); ("serve.job_tail_pct", "%");
    ("serve.duplicate_checks", "count");
    ("api.check_ms", "ms"); ("api.fresh_checks", "count");
    ("cache.hit_ratio", "ratio"); ("cache.lookups", "count");
    ("serve.rejected", "count"); ("serve.bad_requests", "count");
    ("trace.overhead_ratio", "ratio"); ("trace.base_s", "s");
  ]

let emit_layers measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        failwith ("unknown per-layer metric " ^ name))
    measured;
  let all =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name measured) in
        (name, v, unit))
      per_layer_units
  in
  Printf.printf "per-layer metrics (0 = layer not exercised by this workload):\n";
  List.iter (fun (n, v, u) -> if List.mem_assoc n measured then show n v u) all;
  emit all

(* ---- checking: Api.check_entry with an injected explorer ----------------- *)

type timed = {
  verdict : Api.verdict;
  meta : Api.meta;
  wall_ns : int;  (** resolve to verdict *)
  explore_ns : int;  (** the explorer call *)
}

(* Resolve and check [cfg] through [inner], timing the phases from
   outside. *)
let timed_check ?meter ?sym_stats (inner : Api.explorer) cfg =
  let t0 = now_ns () in
  let t_in = ref 0 and t_out = ref 0 in
  let explorer =
    {
      Api.explore =
        (fun ~check_deadlock ~split ~invariants sys ->
          t_in := now_ns ();
          let r = inner.Api.explore ~check_deadlock ~split ~invariants sys in
          t_out := now_ns ();
          r);
    }
  in
  let r =
    Result.bind (Api.resolve cfg.Api.spec) (fun e ->
        Api.check_entry ~explorer ?meter ?sym_stats e cfg)
  in
  let t1 = now_ns () in
  Result.map
    (fun (verdict, meta) ->
      {
        verdict;
        meta;
        wall_ns = t1 - t0;
        explore_ns = !t_out - !t_in;
      })
    r

exception Setup_done

(* Set-up alone: resolve and compile, abandoning the check at the first
   explorer call (check_entry turns the exception into an [Error]). *)
let setup_only cfg =
  let t0 = now_ns () in
  let reached = ref 0 in
  let explorer =
    {
      Api.explore =
        (fun ~check_deadlock:_ ~split:_ ~invariants:_ _ ->
          reached := now_ns ();
          raise Setup_done);
    }
  in
  (match Api.resolve cfg.Api.spec with
  | Ok e -> ignore (Api.check_entry ~explorer e cfg)
  | Error _ -> ());
  record "set-up reaches the explorer" (!reached > 0);
  s_of_ns (!reached - t0)

(* Per-domain accumulators for the wrapped closures: Explore.par_run calls
   them from several domains at once.  Each domain registers its own
   record on first use; reads sum the records. *)
type acc = {
  mutable succ_ns : int;
  mutable succ_calls : int;
  mutable succ_out : int;
  mutable encode_ns : int;
  mutable encode_calls : int;
  mutable canon_ns : int;
  mutable canon_calls : int;
  mutable inv_ns : int;
  mutable add_ns : int;
}

type tracer = {
  slot : acc Domain.DLS.key;
  accs : acc list ref;
  lock : Mutex.t;
  mutable gc_minor_words : float;
  mutable gc_major : int;
  mutable gc_top_heap_words : int;
}

let tracer () =
  let accs = ref [] and lock = Mutex.create () in
  let slot =
    Domain.DLS.new_key (fun () ->
        let a =
          {
            succ_ns = 0; succ_calls = 0; succ_out = 0; encode_ns = 0;
            encode_calls = 0; canon_ns = 0; canon_calls = 0; inv_ns = 0;
            add_ns = 0;
          }
        in
        Mutex.protect lock (fun () -> accs := a :: !accs);
        a)
  in
  { slot; accs; lock; gc_minor_words = 0.; gc_major = 0; gc_top_heap_words = 0 }

let total tr f =
  Mutex.protect tr.lock (fun () -> List.fold_left (fun s a -> s + f a) 0 !(tr.accs))

(* Wrap the system's successor, encoding, canonical-key and invariant
   closures with timers.  With [shadow], every visited-set key is also
   added to a second store of the same kind, timed separately: the
   store's own insert cost, measured outside the engine. *)
let traced_explorer tr ?shadow (base : Api.explorer) =
  {
    Api.explore =
      (fun ~check_deadlock ~split ~invariants (sys : (_, _) Explore.system) ->
        let acc () = Domain.DLS.get tr.slot in
        let feed key =
          match shadow with
          | None -> ()
          | Some (s : Vstore.t) ->
            let t0 = now_ns () in
            ignore (s.Vstore.add key);
            let a = acc () in
            a.add_ns <- a.add_ns + (now_ns () - t0)
        in
        let succ st =
          let t0 = now_ns () in
          let out = sys.Explore.succ st in
          let a = acc () in
          a.succ_ns <- a.succ_ns + (now_ns () - t0);
          a.succ_calls <- a.succ_calls + 1;
          a.succ_out <- a.succ_out + List.length out;
          out
        in
        let encode st =
          let t0 = now_ns () in
          let key = sys.Explore.encode st in
          let a = acc () in
          a.encode_ns <- a.encode_ns + (now_ns () - t0);
          a.encode_calls <- a.encode_calls + 1;
          if sys.Explore.canon = None then feed key;
          key
        in
        let canon =
          Option.map
            (fun (c : _ Explore.canon) ->
              {
                c with
                Explore.canon_key =
                  (fun st ->
                    let t0 = now_ns () in
                    let key = c.Explore.canon_key st in
                    let a = acc () in
                    a.canon_ns <- a.canon_ns + (now_ns () - t0);
                    a.canon_calls <- a.canon_calls + 1;
                    feed key;
                    key);
              })
            sys.Explore.canon
        in
        let invariants =
          List.map
            (fun (name, f) ->
              ( name,
                fun st ->
                  let t0 = now_ns () in
                  let ok = f st in
                  let a = acc () in
                  a.inv_ns <- a.inv_ns + (now_ns () - t0);
                  ok ))
            invariants
        in
        let g0 = Gc.quick_stat () in
        let r =
          base.Api.explore ~check_deadlock ~split ~invariants
            { sys with Explore.succ; encode; canon }
        in
        let g1 = Gc.quick_stat () in
        tr.gc_minor_words <-
          tr.gc_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        tr.gc_major <- tr.gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
        tr.gc_top_heap_words <- max tr.gc_top_heap_words g1.Gc.top_heap_words;
        r);
  }

(* Raw per-layer sums over one or more traced checks. *)
type layers = {
  wall_ns : int;
  explore_ns : int;
  succ_ns : int;
  succ_calls : int;
  transitions : int;
  encode_ns : int;
  encode_calls : int;
  canon_ns : int;
  canon_calls : int;
  perms : int;
  tied : int;
  fallbacks : int;
  inv_ns : int;
  add_ns : int;
  states : int;
  mem_bytes : int;
  sent : int;
  peak_frontier : int;
  max_depth : int;
  minor_words : float;
  major : int;
  top_heap_words : int;
}

let no_layers =
  {
    wall_ns = 0; explore_ns = 0; succ_ns = 0; succ_calls = 0;
    transitions = 0; encode_ns = 0; encode_calls = 0; canon_ns = 0;
    canon_calls = 0; perms = 0; tied = 0; fallbacks = 0; inv_ns = 0;
    add_ns = 0; states = 0; mem_bytes = 0; sent = 0; peak_frontier = 0;
    max_depth = 0; minor_words = 0.; major = 0; top_heap_words = 0;
  }

let add_layers a b =
  {
    wall_ns = a.wall_ns + b.wall_ns;
    explore_ns = a.explore_ns + b.explore_ns;
    succ_ns = a.succ_ns + b.succ_ns;
    succ_calls = a.succ_calls + b.succ_calls;
    transitions = a.transitions + b.transitions;
    encode_ns = a.encode_ns + b.encode_ns;
    encode_calls = a.encode_calls + b.encode_calls;
    canon_ns = a.canon_ns + b.canon_ns;
    canon_calls = a.canon_calls + b.canon_calls;
    perms = a.perms + b.perms;
    tied = a.tied + b.tied;
    fallbacks = a.fallbacks + b.fallbacks;
    inv_ns = a.inv_ns + b.inv_ns;
    add_ns = a.add_ns + b.add_ns;
    states = a.states + b.states;
    mem_bytes = a.mem_bytes + b.mem_bytes;
    sent = a.sent + b.sent;
    peak_frontier = max a.peak_frontier b.peak_frontier;
    max_depth = max a.max_depth b.max_depth;
    minor_words = a.minor_words +. b.minor_words;
    major = a.major + b.major;
    top_heap_words = max a.top_heap_words b.top_heap_words;
  }

(* One fully traced sequential check: wrapped closures, a shadow store of
   the configured kind, the symmetry statistics and the message meter. *)
let traced_check cfg =
  let tr = tracer () in
  (* every benchmark configuration uses the in-memory store *)
  let shadow = Vstore.make Vstore.Mem in
  let sym_stats = Sym.make_stats () in
  let sent = ref 0 in
  let meter = { Async.m_sent = (fun _ -> incr sent); m_buf = ignore } in
  let r =
    timed_check ~meter ~sym_stats
      (traced_explorer tr ~shadow (Api.default_explorer cfg))
      cfg
  in
  Result.map
    (fun (t : timed) ->
      record "shadow store sees exactly the explored states"
        (shadow.Vstore.count () = t.verdict.Api.v_states);
      ( t,
        {
          wall_ns = t.wall_ns;
          explore_ns = t.explore_ns;
          succ_ns = total tr (fun a -> a.succ_ns);
          succ_calls = total tr (fun a -> a.succ_calls);
          transitions = total tr (fun a -> a.succ_out);
          encode_ns = total tr (fun a -> a.encode_ns);
          encode_calls = total tr (fun a -> a.encode_calls);
          canon_ns = total tr (fun a -> a.canon_ns);
          canon_calls = total tr (fun a -> a.canon_calls);
          perms = Sym.perms_tried sym_stats;
          tied = Sym.tied_calls sym_stats;
          fallbacks = Sym.fallbacks sym_stats;
          inv_ns = total tr (fun a -> a.inv_ns);
          add_ns = total tr (fun a -> a.add_ns);
          states = t.verdict.Api.v_states;
          mem_bytes = t.meta.Api.m_mem_bytes;
          sent = !sent;
          peak_frontier = t.meta.Api.m_peak_frontier;
          max_depth = t.verdict.Api.v_max_depth;
          minor_words = tr.gc_minor_words;
          major = tr.gc_major;
          top_heap_words = tr.gc_top_heap_words;
        } ))
    r

let layer_metrics l =
  let s = s_of_ns in
  let timed_closures = l.succ_ns + l.encode_ns + l.canon_ns + l.inv_ns + l.add_ns in
  let fi = float_of_int in
  [
    ("async.successors_s", s l.succ_ns);
    ("async.successors_calls", fi l.succ_calls);
    ("async.branching", ratio (fi l.transitions) (fi l.succ_calls));
    ("async.encode_s", s l.encode_ns);
    ("async.encode_calls", fi l.encode_calls);
    ("async.msgs_per_transition", ratio (fi l.sent) (fi l.transitions));
    ("symmetry.canon_s", s l.canon_ns);
    ("symmetry.calls", fi l.canon_calls);
    ("symmetry.perms_per_call", ratio (fi l.perms) (fi l.canon_calls));
    ("symmetry.tied_share", ratio (fi l.tied) (fi l.canon_calls));
    ("symmetry.fallbacks", fi l.fallbacks);
    ("vstore.add_s", s l.add_ns);
    ("vstore.fresh_ratio", ratio (fi l.states) (fi l.transitions));
    ("vstore.bytes_per_state", ratio (fi l.mem_bytes) (fi l.states));
    ("vstore.store_mb", fi l.mem_bytes /. 1e6);
    ("explore.wall_s", s l.explore_ns);
    ("explore.self_s", s (l.explore_ns - timed_closures));
    ("explore.invariants_s", s l.inv_ns);
    ("explore.peak_frontier", fi l.peak_frontier);
    ("explore.max_depth", fi l.max_depth);
    ("gc.minor_mwords", l.minor_words /. 1e6);
    ("gc.major_collections", fi l.major);
    ("gc.top_heap_mb", fi (l.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* ---- workloads: check-full and check-quotient ---------------------------- *)

(* The paper's Table 3 configuration: invalidate, async, n=4, k=2. *)
let invalidate_cfg symmetry =
  {
    Api.default with
    Api.spec = Api.Named "invalidate";
    level = `Async;
    n = 4;
    k = 2;
    symmetry;
    store = `Mem;
    jobs = 1;
  }

(* states, transitions, canon fallbacks *)
let pinned = function `Off -> (436_618, 1_698_877, 0) | _ -> (77_965, 304_853, 0)

let check_correct ~what sym (v : Api.verdict) =
  let states, transitions, fallbacks = pinned sym in
  record
    (Printf.sprintf "%s: %d states, %d transitions, %s, %d fallbacks" what
       v.Api.v_states v.Api.v_transitions v.Api.v_outcome v.Api.v_canon_fallbacks)
    (v.Api.v_states = states
    && v.Api.v_transitions = transitions
    && v.Api.v_outcome = "complete" && v.Api.v_ok
    && v.Api.v_canon_fallbacks = fallbacks)

(* Set-ups sampled before every timed repetition, so the samples spread
   over the whole run instead of one instant of it. *)
let setup_batch = 20

(* Repeat [f] until [seconds] have passed, at least [min_reps] times. *)
let repeat ~seconds ~min_reps f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if i >= min_reps && now_ns () >= deadline then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let check_workload ~name ~sym ~seconds ~trace =
  let cfg = invalidate_cfg sym in
  Printf.printf "workload %s: invalidate async n=4 k=2 symmetry=%s store=mem jobs=1\n%!"
    name (Api.symmetry_name cfg);
  if not trace then begin
    let setups = ref [] in
    (* Peak RSS is read after the first check: one verdict from a fresh
       process, as a ccr check user sees it. *)
    let rss = ref 0. in
    let runs =
      repeat ~seconds ~min_reps:3 (fun i ->
          setups := List.init setup_batch (fun _ -> setup_only cfg) @ !setups;
          let r =
            match timed_check (Api.default_explorer cfg) cfg with
            | Ok t ->
              check_correct ~what:name sym t.verdict;
              Some t
            | Error msg ->
              record ("check: " ^ msg) false;
              None
          in
          if i = 0 then rss := peak_rss_mb "self";
          r)
      |> List.filter_map Fun.id
    in
    let check_s = median (List.map (fun (t : timed) -> s_of_ns t.wall_ns) runs) in
    let states_per_s =
      median
        (List.map
           (fun (t : timed) -> float_of_int t.verdict.Api.v_states /. s_of_ns t.explore_ns)
           runs)
    in
    let store_mb =
      match runs with t :: _ -> float_of_int t.meta.Api.m_mem_bytes /. 1e6 | [] -> 0.
    in
    let setup_s = median !setups and rss = !rss in
    (match runs with
    | t :: _ ->
      Printf.printf "  states %d, transitions %d, outcome %s, %d checks\n"
        t.verdict.Api.v_states t.verdict.Api.v_transitions t.verdict.Api.v_outcome
        (List.length runs)
    | [] -> ());
    show "check_s" check_s "s";
    show "states_per_s" states_per_s "1/s";
    show "store_mb" store_mb "MB";
    show "peak_rss_mb" rss "MB";
    show "setup_s" setup_s "s";
    show "failed_ratio" (ratio (float_of_int !failed) (float_of_int !attempted)) "ratio";
    emit
      (end_to_end ~setup_s ~op_ms:(check_s *. 1e3) ~work_per_s:states_per_s
         ~rss_mb:rss)
  end
  else begin
    (* Alternate untraced and traced checks; their ratio is the tracing
       overhead.  Then one traced run at -j 2 as a multicore diagnostic. *)
    let pairs =
      repeat ~seconds ~min_reps:1 (fun _ ->
          let base =
            match timed_check (Api.default_explorer cfg) cfg with
            | Ok t ->
              check_correct ~what:(name ^ " untraced") sym t.verdict;
              Some t
            | Error msg ->
              record ("check: " ^ msg) false;
              None
          in
          let traced =
            match traced_check cfg with
            | Ok (t, l) ->
              check_correct ~what:(name ^ " traced") sym t.verdict;
              Some l
            | Error msg ->
              record ("traced check: " ^ msg) false;
              None
          in
          (base, traced))
    in
    let base_s =
      median
        (List.filter_map (fun (b, _) -> Option.map (fun (t : timed) -> s_of_ns t.wall_ns) b) pairs)
    in
    let traced = List.filter_map snd pairs in
    let traced_s = median (List.map (fun l -> s_of_ns l.wall_ns) traced) in
    let last = match List.rev traced with l :: _ -> l | [] -> no_layers in
    let cfg2 = { cfg with Api.jobs = 2 } in
    let tr2 = tracer () in
    let par =
      match timed_check (traced_explorer tr2 (Api.default_explorer cfg2)) cfg2 with
      | Ok (t : timed) ->
        check_correct ~what:(name ^ " -j 2") sym t.verdict;
        record "-j 2 successor calls match -j 1"
          (total tr2 (fun a -> a.succ_calls) = last.succ_calls);
        [
          ("explore.par_j2_s", s_of_ns t.explore_ns);
          ("explore.par_speedup",
            ratio (float_of_int last.explore_ns) (float_of_int t.explore_ns));
        ]
      | Error msg ->
        record ("-j 2 check: " ^ msg) false;
        []
    in
    Printf.printf "  %d untraced/traced pairs; nproc-dependent -j 2 diagnostic not gated\n"
      (List.length pairs);
    emit_layers
      (layer_metrics last @ par
      @ [ ("trace.overhead_ratio", ratio traced_s base_s); ("trace.base_s", base_s) ])
  end

(* ---- workload: engine-loop ----------------------------------------------- *)

let engine_budget = 50_000
let engine_cfg = { Async.k = 2 }

(* The engine seeds a run may use, with the rendezvous and message counts
   each delivers at [engine_budget] and one domain (where a seed fixes the
   schedule), as pinned from [ccr run mesi -n 4 --engine loop -j 1
   --budget 50000 --seed S].  The workload seed picks one. *)
let engine_pins =
  [|
    (1, 600_021, 1_600_046); (2, 600_011, 1_599_987); (3, 600_003, 1_599_996);
    (4, 600_012, 1_599_987); (5, 600_008, 1_600_005); (6, 600_019, 1_600_041);
    (7, 600_004, 1_599_988); (8, 600_011, 1_600_003); (9, 600_015, 1_600_015);
    (10, 600_008, 1_599_994); (11, 600_011, 1_600_015); (12, 600_012, 1_600_018);
    (13, 600_012, 1_600_011); (14, 600_006, 1_599_983); (15, 600_011, 1_600_049);
    (16, 600_006, 1_600_004);
  |]

let engine_pin seed =
  let n = Array.length engine_pins in
  engine_pins.(((seed mod n) + n) mod n)

let engine_setup () =
  let t0 = now_ns () in
  let e = Option.get (Registry.find "mesi") in
  let prog = e.Registry.instantiate ~reqrep:true ~n:4 in
  let t1 = now_ns () in
  ignore (Mcode.compile prog);
  let t2 = now_ns () in
  (prog, e.Registry.async_invariants prog, s_of_ns (t2 - t0), s_of_ns (t2 - t1))

(* A one-domain run is correct when it ends quiescent and coherent, every
   remote spent its budget, and it delivered exactly the pinned
   rendezvous and message counts of its engine seed. *)
let engine_correct ~what ~pin:(_, rdv, msgs) (s : Runtime.stats) =
  let ok =
    s.Runtime.quiescent && s.Runtime.stop_cause = "quiescent"
    && s.Runtime.invariant_failures = [] && s.Runtime.protocol_errors = []
    && Array.for_all (fun c -> c >= engine_budget) s.Runtime.completions
    && s.Runtime.rendezvous = rdv && s.Runtime.messages = msgs
  in
  record
    (Printf.sprintf
       "%s: %s, %d rendezvous over %d messages (pinned %d over %d), %d invariant failures"
       what s.Runtime.stop_cause s.Runtime.rendezvous s.Runtime.messages rdv msgs
       (List.length s.Runtime.invariant_failures))
    ok

let engine_workload ~seed ~seconds ~trace =
  let pin = engine_pin seed in
  let engine_seed, _, pinned_msgs = pin in
  Printf.printf
    "workload engine-loop: mesi n=4 k=2, one domain, budget %d per remote, seed %d (engine seed %d)\n%!"
    engine_budget seed engine_seed;
  let setups = ref [] in
  let sample_setups () =
    setups := List.init setup_batch (fun _ -> engine_setup ()) @ !setups
  in
  sample_setups ();
  let prog, invariants, _, _ = List.hd !setups in
  let run ?metrics ?(domains = 1) ?(deadline_s = 60.) () =
    let t0 = now_ns () in
    let s =
      Engine.run ?metrics ~seed:engine_seed ~domains ~deadline_s ~budget:engine_budget
        ~invariants prog engine_cfg
    in
    (s, now_ns () - t0)
  in
  let checked what (s, ns) =
    engine_correct ~what ~pin s;
    (s, ns)
  in
  if not trace then begin
    let rss = ref 0. in
    let runs =
      repeat ~seconds ~min_reps:3 (fun i ->
          if i > 0 then sample_setups ();
          let r = checked "engine-loop" (run ()) in
          if i = 0 then rss := peak_rss_mb "self";
          r)
    in
    let rate (s, ns) = float_of_int s.Runtime.messages /. s_of_ns ns in
    let msgs_per_s = median (List.map rate runs) in
    let op_ms = median (List.map (fun (_, ns) -> ms_of_ns ns) runs) in
    let setup_s = median (List.map (fun (_, _, s, _) -> s) !setups) and rss = !rss in
    Printf.printf "  %d runs, %d messages each\n" (List.length runs) pinned_msgs;
    show "msgs_per_s" msgs_per_s "1/s";
    show "run_ms" op_ms "ms";
    show "peak_rss_mb" rss "MB";
    show "setup_s" setup_s "s";
    show "failed_ratio" (ratio (float_of_int !failed) (float_of_int !attempted)) "ratio";
    emit (end_to_end ~setup_s ~op_ms ~work_per_s:msgs_per_s ~rss_mb:rss)
  end
  else begin
    let reg = M.create () in
    let pairs =
      repeat ~seconds ~min_reps:1 (fun _ ->
          let base = checked "engine-loop untraced" (run ()) in
          M.reset reg;
          let traced = checked "engine-loop with metrics" (run ~metrics:reg ()) in
          (base, traced))
    in
    let base_s = median (List.map (fun ((_, ns), _) -> s_of_ns ns) pairs) in
    let traced_s = median (List.map (fun (_, (_, ns)) -> s_of_ns ns) pairs) in
    let s, _ = snd (List.hd (List.rev pairs)) in
    let hist_mean name =
      match List.assoc_opt name (M.snapshot reg).M.hists with
      | Some h -> ratio h.M.sum (float_of_int h.M.count)
      | None -> 0.
    in
    let ring = Ring.create ~dummy:Wire.Ack 1024 in
    let ring_ops = 2_000_000 in
    let t0 = now_ns () in
    for _ = 1 to ring_ops do
      ignore (Ring.push ring Wire.Ack);
      ignore (Ring.pop ring)
    done;
    let ring_ns = float_of_int (now_ns () - t0) /. float_of_int ring_ops in
    (* Multicore diagnostic: not gated, a deadline stop is reported, not
       failed. *)
    let s2, ns2 = run ~domains:2 ~deadline_s:5. () in
    record "engine -j 2: coherent, no protocol errors"
      (s2.Runtime.invariant_failures = [] && s2.Runtime.protocol_errors = []);
    Printf.printf "  engine -j 2: %d messages, stop cause %s\n" s2.Runtime.messages
      s2.Runtime.stop_cause;
    let fi = float_of_int in
    emit_layers
      [
        ("mcode.compile_s", median (List.map (fun (_, _, _, c) -> c) !setups));
        ("engine.msgs_per_rdv", ratio (fi s.Runtime.messages) (fi s.Runtime.rendezvous));
        ("engine.steps_per_msg", ratio (fi s.Runtime.steps) (fi s.Runtime.messages));
        ("engine.batch_size_mean", hist_mean "engine.batch_size");
        ("engine.mailbox_occupancy_mean", hist_mean "engine.mailbox_occupancy");
        ("ring.push_pop_ns", ring_ns);
        ("engine.j2_msgs_per_s", fi s2.Runtime.messages /. s_of_ns ns2);
        ("engine.j2_deadline_hit", if s2.Runtime.stop_cause = "deadline" then 1. else 0.);
        ("trace.overhead_ratio", ratio traced_s base_s);
        ("trace.base_s", base_s);
      ]
  end

(* ---- workload: serve-mix ------------------------------------------------- *)

(* The seven registry protocols with a rendezvous level, at both levels,
   n in {2,3}, symmetry auto/off: 56 configurations. *)
let pool =
  let protocols =
    [ "migratory"; "migratory-data"; "invalidate"; "mesi"; "write-update"; "lock"; "barrier" ]
  in
  Array.of_list
    (List.concat_map
       (fun p ->
         List.concat_map
           (fun level ->
             List.concat_map
               (fun n ->
                 List.map
                   (fun symmetry ->
                     { Api.default with Api.spec = Api.Named p; level; n; symmetry })
                   [ `Auto; `Off ])
               [ 2; 3 ])
           [ `Rv; `Async ])
       protocols)

let connections = 2

(* Zipf(1) over the pool in its listed order: rank 1 is the first entry.
   The seed drives the draw sequence only, so every seed sees the same
   popularity and the same set of expensive configurations.  The exponent
   is the one of 0.5, 1, 1.5 and 2 whose 1,000-job epochs come closest to
   the p99 and jobs/s of the reference probe in README.md. *)
let drawer seed =
  let rng = Random.State.make [| seed |] in
  let n = Array.length pool in
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let rec find r = if r >= n - 1 || cum.(r) > u then r else find (r + 1) in
    find 0

type daemon = { pid : int; port : int; out : in_channel; dir : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Daemons not yet stopped; killed and reaped at exit, whatever the exit
   path. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [ccr serve] with a fresh cache directory; the set-up time runs
   from the spawn until the daemon answers GET /. *)
let spawn_daemon ~ccr ~dir =
  let t0 = now_ns () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process ccr
      [| ccr; "serve"; "--port"; "0"; "--cache-dir"; dir |]
      null wr Unix.stderr
  in
  live := pid :: !live;
  Unix.close wr;
  Unix.close null;
  let out = Unix.in_channel_of_descr rd in
  let line = input_line out in
  let port =
    int_of_string (String.trim (List.hd (List.rev (String.split_on_char ':' line))))
  in
  let rec ready () =
    match Http.request ~port ~meth:"GET" ~path:"/" () with
    | Ok (200, _) -> ()
    | _ ->
      Unix.sleepf 0.0005;
      ready ()
  in
  ready ();
  ({ pid; port; out; dir }, s_of_ns (now_ns () - t0))

let stop_daemon ?(signal = Sys.sigterm) d =
  (try Unix.kill d.pid signal with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  close_in_noerr d.out

type job = {
  cfg : int;
  ns : int;  (** POST to verdict *)
  fresh : bool;  (** the daemon queued it (202) rather than answering from cache *)
  wait_ns : int;  (** fresh jobs: POST reply to the first streamed event *)
  verdict : string option;  (** the verdict's JSON bytes as served *)
}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* The job body renders the verdict as its last field. *)
let verdict_bytes body =
  let marker = ",\"verdict\":" in
  let n = String.length body in
  match find_sub body marker with
  | Some i when body.[n - 1] = '}' ->
    let start = i + String.length marker in
    Some (String.sub body start (n - 1 - start))
  | _ -> None

(* Stream GET /jobs/ID/events to its end; returns when the first event
   byte arrived and whether the stream carried the journal's end event. *)
let await_events ~port id =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 120.;
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET /jobs/%s/events HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\
           Content-Length: 0\r\nConnection: close\r\n\r\n"
          id port
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Bytes.create 65536 and data = Buffer.create 4096 in
      let first = ref 0 in
      let rec read () =
        let k = Unix.read sock buf 0 (Bytes.length buf) in
        if k > 0 then begin
          Buffer.add_subbytes data buf 0 k;
          (if !first = 0 then
             match find_sub (Buffer.contents data) "\r\n\r\n" with
             | Some i when Buffer.length data > i + 4 -> first := now_ns ()
             | _ -> ());
          read ()
        end
      in
      read ();
      (!first, find_sub (Buffer.contents data) "\"ev\":\"end\"" <> None))

let field body name =
  Option.bind (J.parse body) (fun v -> J.get_str (J.find v name))

let run_job ~port i =
  let body = J.to_string (Api.config_to_json pool.(i)) in
  let t0 = now_ns () in
  let lost = { cfg = i; ns = 0; fresh = false; wait_ns = 0; verdict = None } in
  match Http.request ~port ~meth:"POST" ~path:"/jobs" ~body () with
  | Ok (200, b) -> { lost with ns = now_ns () - t0; verdict = verdict_bytes b }
  | Ok (202, b) -> (
    match field b "id" with
    | None -> lost
    | Some id -> (
      let t_post = now_ns () in
      (* A refused, reset or timed-out stream loses the job; it then fails
         the verdict check like any other lost job. *)
      match await_events ~port id with
      | exception e ->
        Printf.eprintf "serve job %s: events stream: %s\n%!" id (Printexc.to_string e);
        { lost with fresh = true }
      | first, ended -> (
        match Http.request ~port ~meth:"GET" ~path:("/jobs/" ^ id) () with
        | Ok (200, b) when ended ->
          {
            cfg = i;
            ns = now_ns () - t0;
            fresh = true;
            wait_ns = first - t_post;
            verdict = verdict_bytes b;
          }
        | _ -> { lost with fresh = true })))
  | _ -> lost

let openmetric text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.

(* Jobs per epoch, as in the reference probe.  An epoch starts a daemon
   on an empty cache and runs one seeded script to its end, so every epoch
   pays the cold checks of (nearly) the whole pool and then serves hits. *)
let epoch_jobs = 1000

type epoch = {
  e_jobs : job list;
  e_elapsed_s : float;
  e_setup_s : float list;
  e_rss_mb : float;
  e_dir : string;  (** the daemon's cache directory, kept for the trace *)
  e_metrics : string;  (** GET /metrics after the script *)
  e_rtt_ms : float list;  (** traced: GET / round trips on the idle daemon *)
}

(* Daemon spawns per epoch: the set-up samples.  All but the last are
   killed at once; the last serves the epoch. *)
let spawns_per_epoch = 4

let run_epoch ~ccr ~work_dir ~trace ~draw k =
  let script = Array.init epoch_jobs (fun _ -> draw ()) in
  let spawn i =
    spawn_daemon ~ccr
      ~dir:(Filename.concat work_dir (Printf.sprintf "cache%d-%d" k i))
  in
  let setups =
    List.init (spawns_per_epoch - 1) (fun i ->
        let d, s = spawn i in
        stop_daemon ~signal:Sys.sigkill d;
        rm_rf d.dir;
        s)
  in
  let d, setup_s = spawn (spawns_per_epoch - 1) in
  let next = Atomic.make 0 and jobs = ref [] and lock = Mutex.create () in
  let t_start = now_ns () in
  let client () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < epoch_jobs then begin
        let j = run_job ~port:d.port script.(i) in
        Mutex.protect lock (fun () -> jobs := j :: !jobs);
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init connections (fun _ -> Thread.create client ()));
  let elapsed_s = s_of_ns (now_ns () - t_start) in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let rtt =
    if not trace then []
    else
      List.init 200 (fun _ ->
          let t0 = now_ns () in
          record "GET /"
            (match Http.request ~port:d.port ~meth:"GET" ~path:"/" () with
            | Ok (200, _) -> true
            | _ -> false);
          ms_of_ns (now_ns () - t0))
  in
  let om =
    match Http.request ~port:d.port ~meth:"GET" ~path:"/metrics" () with
    | Ok (200, text) -> text
    | _ -> ""
  in
  stop_daemon d;
  {
    e_jobs = List.rev !jobs;
    e_elapsed_s = elapsed_s;
    e_setup_s = setup_s :: setups;
    e_rss_mb = rss;
    e_dir = d.dir;
    e_metrics = om;
    e_rtt_ms = rtt;
  }

let config_name cfg =
  Printf.sprintf "%s %s n=%d sym=%s"
    (match cfg.Api.spec with Api.Named p -> p | Api.Inline _ -> "inline")
    (Api.level_name cfg) cfg.Api.n (Api.symmetry_name cfg)

let serve_workload ~ccr ~work_dir ~seed ~seconds ~trace =
  Printf.printf
    "workload serve-mix: ccr serve, %d closed-loop connections, %d-job epochs, Zipf draw over %d configs, seed %d\n%!"
    connections epoch_jobs (Array.length pool) seed;
  let draw = drawer seed in
  let epochs = repeat ~seconds ~min_reps:3 (run_epoch ~ccr ~work_dir ~trace ~draw) in
  let jobs = List.concat_map (fun e -> e.e_jobs) epochs in
  (* Reference verdicts, outside the timed windows: an in-process check
     of every configuration the run drew. *)
  let drawn = List.sort_uniq compare (List.map (fun j -> j.cfg) jobs) in
  let refs =
    List.map
      (fun i ->
        let t0 = now_ns () in
        let r = Api.check pool.(i) in
        let ns = now_ns () - t0 in
        let bytes = Result.map (fun (v, _) -> J.to_string (Api.verdict_to_json v)) r in
        (i, (Result.to_option bytes, ns)))
      drawn
  in
  List.iter
    (fun j ->
      let expect = fst (List.assoc j.cfg refs) in
      record
        (Printf.sprintf "serve job %s: verdict matches in-process check"
           (config_name pool.(j.cfg)))
        (j.verdict <> None && j.verdict = expect))
    jobs;
  let ok_jobs = List.filter (fun j -> j.verdict <> None) jobs in
  let lat = List.map (fun j -> ms_of_ns j.ns) ok_jobs in
  let p50 = median lat in
  let tail_p, tail_ms = tail lat in
  let epoch_rate e =
    float_of_int (List.length (List.filter (fun j -> j.verdict <> None) e.e_jobs))
    /. e.e_elapsed_s
  in
  (* Pooled over the run's epochs: an epoch's rate swings with the
     duplicate cold checks it happens to pay, and the pooled rate is the
     steadier estimate of the same quantity. *)
  let jobs_per_s =
    float_of_int (List.length ok_jobs)
    /. List.fold_left (fun s e -> s +. e.e_elapsed_s) 0. epochs
  in
  let rss = median (List.map (fun e -> e.e_rss_mb) epochs) in
  let setup_s = median (List.concat_map (fun e -> e.e_setup_s) epochs) in
  (* Fresh configurations checked more than once in an epoch: a job
     submitted while the same configuration was still in flight. *)
  let fresh_of e = List.filter_map (fun j -> if j.fresh then Some j.cfg else None) e.e_jobs in
  let duplicates =
    List.fold_left
      (fun n e ->
        let f = fresh_of e in
        n + List.length f - List.length (List.sort_uniq compare f))
      0 epochs
  in
  let fresh = List.sort_uniq compare (List.concat_map fresh_of epochs) in
  Printf.printf "  %d epochs, %d jobs, %d configurations drawn, %d duplicate fresh checks\n"
    (List.length epochs) (List.length jobs) (List.length drawn) duplicates;
  List.iteri
    (fun k e ->
      let lat = List.filter_map (fun j -> if j.verdict <> None then Some (ms_of_ns j.ns) else None) e.e_jobs in
      let p, t = tail lat in
      Printf.printf "  epoch %d: %d fresh, p50 %.3f ms, p%g %.1f ms, %.1f jobs/s\n" k
        (List.length (fresh_of e)) (median lat) p t (epoch_rate e))
    epochs;
  let result =
    if not trace then begin
      show "job_ms_p50" p50 "ms";
      show (Printf.sprintf "job_ms_tail (p%g of %d)" tail_p (List.length lat)) tail_ms "ms";
      show "jobs_per_s" jobs_per_s "1/s";
      show "peak_rss_mb (daemon)" rss "MB";
      show "setup_s" setup_s "s";
      show "failed_ratio" (ratio (float_of_int !failed) (float_of_int !attempted)) "ratio";
      `E2e (end_to_end ~setup_s ~op_ms:p50 ~work_per_s:jobs_per_s ~rss_mb:rss)
    end
    else begin
      let fresh_ms = List.map (fun i -> ms_of_ns (snd (List.assoc i refs))) fresh in
      let layers, traced_ns =
        List.fold_left
          (fun (acc, ns) i ->
            match traced_check pool.(i) with
            | Ok (_, l) -> (add_layers acc l, ns + l.wall_ns)
            | Error msg ->
              record ("traced check: " ^ msg) false;
              (acc, ns))
          (no_layers, 0) fresh
      in
      let untraced_ns = List.fold_left (fun s i -> s + snd (List.assoc i refs)) 0 fresh in
      let key_us =
        median
          (List.concat_map
             (fun cfg ->
               List.init 5 (fun _ ->
                   let t0 = now_ns () in
                   (match Api.resolve cfg.Api.spec with
                   | Ok e -> ignore (Api.cache_key e cfg)
                   | Error _ -> record "resolve" false);
                   float_of_int (now_ns () - t0) /. 1e3))
             (Array.to_list pool))
      in
      (* The last epoch's cache entries, read back and re-stored. *)
      let last = List.hd (List.rev epochs) in
      let cache = Cache.create ~dir:last.e_dir () in
      let store_cache = Cache.create ~dir:(Filename.concat work_dir "cache-store") () in
      let entries =
        List.filter_map
          (fun i ->
            let cfg = pool.(i) in
            match Api.resolve cfg.Api.spec with
            | Error _ -> None
            | Ok e ->
              let key = Api.cache_key e cfg in
              let t0 = now_ns () in
              let found = Cache.find cache key in
              let find_ms = ms_of_ns (now_ns () - t0) in
              record "cache entry of a fresh job is on disk" (found <> None);
              Option.map
                (fun entry ->
                  let t0 = now_ns () in
                  Cache.store store_cache entry;
                  (find_ms, ms_of_ns (now_ns () - t0)))
                found)
          (fresh_of last |> List.sort_uniq compare)
      in
      let waits =
        List.filter_map
          (fun j -> if j.fresh && j.verdict <> None then Some (ms_of_ns j.wait_ns) else None)
          jobs
      in
      let counter name = List.fold_left (fun s e -> s +. openmetric e.e_metrics name) 0. epochs in
      let hits = counter "serve_cache_hits_total"
      and misses = counter "serve_cache_misses_total" in
      `Layers
        (layer_metrics layers
        @ [
          ("http.rtt_ms", median (List.concat_map (fun e -> e.e_rtt_ms) epochs));
          ("api.cache_key_us", key_us);
          ("cache.find_ms", median (List.map fst entries));
          ("cache.store_ms", median (List.map snd entries));
          ("serve.queue_wait_ms", median waits);
          ("serve.job_ms_tail", tail_ms);
          ("serve.job_tail_pct", tail_p);
          ("serve.duplicate_checks", float_of_int duplicates);
          ("api.check_ms", mean fresh_ms);
          ("api.fresh_checks", float_of_int (List.length fresh));
          ("cache.hit_ratio", ratio hits (hits +. misses));
          ("cache.lookups", hits +. misses);
          ("serve.rejected", counter "serve_rejected_queue_full_total");
          ("serve.bad_requests", counter "serve_bad_requests_total");
          ("trace.overhead_ratio", ratio (float_of_int traced_ns) (float_of_int untraced_ns));
          ("trace.base_s", s_of_ns untraced_ns);
        ])
    end
  in
  List.iter (fun e -> rm_rf e.e_dir) epochs;
  rm_rf (Filename.concat work_dir "cache-store");
  match result with `E2e m -> emit m | `Layers m -> emit_layers m

(* ---- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let ccr = ref "" and work_dir = ref "" and rev = ref "unknown" and nproc = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--ccr", Arg.Set_string ccr, "PATH to the ccr executable (serve-mix)");
      ("--work-dir", Arg.Set_string work_dir, "DIR for scratch files");
      ("--rev", Arg.Set_string rev, "REV source revision, for the stamp");
      ("--nproc", Arg.Set_int nproc, "N usable cores, for the stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Printf.printf "stamp: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s rev=%s\n%!"
    !workload !seed !seconds !trace !nproc Sys.ocaml_version !rev;
  let trace = !trace = 1 and seconds = !seconds in
  match !workload with
  | "check-full" -> check_workload ~name:"check-full" ~sym:`Off ~seconds ~trace
  | "check-quotient" -> check_workload ~name:"check-quotient" ~sym:`Auto ~seconds ~trace
  | "engine-loop" -> engine_workload ~seed:!seed ~seconds ~trace
  | "serve-mix" -> serve_workload ~ccr:!ccr ~work_dir:!work_dir ~seed:!seed ~seconds ~trace
  | w ->
    prerr_endline ("unknown workload " ^ w);
    exit 2
