open Test_util
module Explore = Ccr_modelcheck.Explore
module Graph = Ccr_modelcheck.Graph

(* A tiny synthetic system: a bounded counter with a fork.  Known state
   count, known deadlock, controllable invariant violations. *)
let counter_system ~limit =
  Explore.
    {
      init = 0;
      succ =
        (fun s ->
          if s >= limit then []
          else [ ("inc", s + 1); ("double", min limit (2 * s + 1)) ]);
      encode = string_of_int;
      decode = int_of_string;
      canon = None;
      key_io = None;
    }

(* k independent bits: 2^k states, no deadlock (self loops). *)
let bits_system k =
  Explore.
    {
      init = 0;
      succ =
        (fun s -> List.init k (fun i -> (Fmt.str "flip%d" i, s lxor (1 lsl i))));
      encode = string_of_int;
      decode = int_of_string;
      canon = None;
      key_io = None;
    }

let tests =
  [
    case "full enumeration counts states and transitions" (fun () ->
        let r = Explore.run (bits_system 5) in
        checki "states" 32 r.states;
        checki "transitions" 160 r.transitions;
        checkb "complete" true (outcome_complete r.outcome);
        (* BFS depth of the all-ones state: one flip per bit *)
        checki "max_depth" 5 r.max_depth;
        (* the largest BFS level is C(5,2) = 10 *)
        checki "peak_frontier is the largest level" 10 r.peak_frontier);
    case "depth and frontier of a chain" (fun () ->
        (* a pure chain: frontier never exceeds 1, depth = length *)
        let chain =
          Explore.
            {
              init = 0;
              succ = (fun s -> if s >= 17 then [] else [ ("n", s + 1) ]);
              encode = string_of_int;
              decode = int_of_string;
              canon = None;
              key_io = None;
            }
        in
        let r = Explore.run chain in
        checki "max_depth" 17 r.max_depth;
        checki "peak_frontier" 1 r.peak_frontier);
    case "on_progress fires with monotone counts" (fun () ->
        let samples = ref [] in
        let r =
          Explore.run
            ~on_progress:(fun s -> samples := s :: !samples)
            ~progress_every:100 (bits_system 10)
        in
        checkb "fired" true (List.length !samples >= 9);
        let ordered = List.rev !samples in
        let rec monotone = function
          | (a : Ccr_obs.Progress.sample) :: (b :: _ as rest) ->
            a.states <= b.states && a.transitions <= b.transitions
            && monotone rest
          | _ -> true
        in
        checkb "monotone" true (monotone ordered);
        List.iter
          (fun (s : Ccr_obs.Progress.sample) ->
            checkb "depth bounded" true (s.depth >= 0 && s.depth <= 10);
            checkb "states bounded" true (s.states <= r.states))
          ordered);
    case "counter reaches its limit and deadlocks" (fun () ->
        let r = Explore.run ~check_deadlock:true ~trace:true (counter_system ~limit:10) in
        (match r.outcome with
        | Explore.Deadlock s -> checki "deadlock at limit" 10 s
        | _ -> Alcotest.fail "expected deadlock");
        match r.trace with
        | Some path ->
          let labels = List.filter_map fst path in
          checkb "path nonempty" true (List.length path > 1);
          checkb "path ends at 10" true (snd (List.nth path (List.length path - 1)) = 10);
          checkb "labels recorded" true (List.length labels = List.length path - 1)
        | None -> Alcotest.fail "expected a trace");
    case "invariant violation is caught with a shortest-ish trace" (fun () ->
        let r =
          Explore.run ~trace:true
            ~invariants:[ ("below7", fun s -> s < 7) ]
            (counter_system ~limit:100)
        in
        (match r.outcome with
        | Explore.Violation { invariant; state } ->
          checks "name" "below7" invariant;
          checkb "state breaks it" true (state >= 7)
        | _ -> Alcotest.fail "expected violation");
        match r.trace with
        | Some path ->
          let final = snd (List.nth path (List.length path - 1)) in
          checkb "trace ends at the violation" true (final >= 7);
          (* BFS: every prefix state satisfies the invariant *)
          List.iteri
            (fun i (_, s) ->
              if i < List.length path - 1 then checkb "prefix ok" true (s < 7))
            path
        | None -> Alcotest.fail "expected a trace");
    case "violation in the initial state" (fun () ->
        let r =
          Explore.run ~trace:true
            ~invariants:[ ("never", fun _ -> false) ]
            (bits_system 3)
        in
        match r.outcome with
        | Explore.Violation _ -> checki "only the root" 1 r.states
        | _ -> Alcotest.fail "expected violation");
    case "state cap reports Unfinished" (fun () ->
        let r = Explore.run ~max_states:10 (bits_system 8) in
        (match r.outcome with
        | Explore.Limit Explore.L_states -> ()
        | _ -> Alcotest.fail "expected state cap");
        checki "stopped at cap" 10 r.states);
    case "memory cap reports Unfinished" (fun () ->
        let r = Explore.run ~max_mem_bytes:500 (bits_system 10) in
        match r.outcome with
        | Explore.Limit Explore.L_memory ->
          checkb "mem accounted" true (r.mem_bytes >= 500)
        | _ -> Alcotest.fail "expected memory cap");
    case "memory estimate grows with states" (fun () ->
        let r1 = Explore.run (bits_system 4) in
        let r2 = Explore.run (bits_system 8) in
        checkb "monotone" true (r2.mem_bytes > r1.mem_bytes));
    case "graph build matches explore" (fun () ->
        let g = Graph.build (bits_system 4) in
        checki "states" 16 (Array.length g.states);
        checkb "untruncated" true (not g.truncated);
        checkb "edges complete" true
          (Array.for_all (fun out -> List.length out = 4) g.edges));
    case "graph deadlocks" (fun () ->
        let g = Graph.build (counter_system ~limit:6) in
        let ds = Graph.deadlocks g in
        checki "one deadlock" 1 (List.length ds);
        checki "it is the limit" 6 g.states.(List.hd ds));
    case "ag_ef: progress reachable from everywhere or not" (fun () ->
        (* progress = the "double" label; in the counter every non-final
           state can still double, the final state cannot *)
        let g = Graph.build (counter_system ~limit:6) in
        let bad = Graph.violates_ag_ef g ~progress:(fun l -> l = "double") in
        checki "only the sink violates" 1 (List.length bad);
        let g2 = Graph.build (bits_system 3) in
        checki "bits never violate" 0
          (List.length (Graph.violates_ag_ef g2 ~progress:(fun l -> l = "flip0"))));
    case "path_to returns a labeled path from the root" (fun () ->
        let g = Graph.build (counter_system ~limit:6) in
        let target = 4 in
        let idx = ref (-1) in
        Array.iteri (fun i s -> if s = g.states.(i) && s = target then idx := i) g.states;
        checkb "target found" true (!idx >= 0);
        let path = Graph.path_to g !idx in
        checkb "starts at init" true (snd (List.hd path) = 0);
        checkb "ends at target" true
          (snd (List.nth path (List.length path - 1)) = target));
    case "forward progress of refined protocols (AG EF completion)"
      (fun () ->
        (* paper §2.5: from every reachable state some rendezvous can
           still complete *)
        let check_progress prog =
          let g = Graph.build (async_system prog) in
          checkb "untruncated" true (not g.truncated);
          let progress (l : Ccr_refine.Async.label) =
            match l.rule with
            | Ccr_refine.Async.H_C1 | Ccr_refine.Async.H_C1_silent
            | Ccr_refine.Async.R_C3_ack | Ccr_refine.Async.R_C3_silent
            | Ccr_refine.Async.R_repl_recv | Ccr_refine.Async.H_T1_repl ->
              true
            | _ -> false
          in
          checki "no state loses progress" 0
            (List.length (Graph.violates_ag_ef g ~progress))
        in
        check_progress (compile ~n:2 (Ccr_protocols.Migratory.system ()));
        check_progress (compile ~reqrep:false ~n:2 (Ccr_protocols.Migratory.system ()));
        check_progress (compile ~n:2 Ccr_protocols.Invalidate.system);
        check_progress (compile ~n:3 Ccr_protocols.Lock_server.system));
    case "bitstate hashing is a sound under-approximation" (fun () ->
        let exact = Explore.run (bits_system 10) in
        checki "exact" 1024 exact.states;
        (* a generous table: almost everything found *)
        let big = Explore.run ~visited:(Explore.Bitstate 22) (bits_system 10) in
        checkb "close to exact" true
          (big.states <= exact.states && big.states > 900);
        (* a tiny table: heavy pruning but bounded memory *)
        let small =
          Explore.run ~visited:(Explore.Bitstate 10) (bits_system 10)
        in
        checkb "undercounts" true (small.states <= exact.states);
        checki "memory is the table size" 128 small.mem_bytes);
    case "bitstate on a protocol approaches the exact count" (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let exact = Explore.run (async_system prog) in
        let bit =
          Explore.run ~visited:(Explore.Bitstate 24) (async_system prog)
        in
        checkb "lower bound" true (bit.states <= exact.states);
        checkb "within 2 percent" true
          (float_of_int bit.states
          >= 0.98 *. float_of_int exact.states));
    case "ag_implies_ef restricts the witnesses" (fun () ->
        let g = Graph.build (counter_system ~limit:6) in
        (* only even sinks count as 'from' states *)
        let bad =
          Graph.violates_ag_implies_ef g
            ~from:(fun s -> s mod 2 = 0)
            ~progress:(fun l -> l = "double")
        in
        checki "the even sink" 1 (List.length bad);
        let none =
          Graph.violates_ag_implies_ef g
            ~from:(fun s -> s mod 2 = 1)
            ~progress:(fun l -> l = "double")
        in
        checki "no odd sink" 0 (List.length none));
    case "per-remote response possibility (AG waiting => EF completion)"
      (fun () ->
        (* whenever remote 0 is waiting for the line, its own completion
           stays reachable — stronger than plain AG EF progress *)
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let g = Graph.build (async_system prog) in
        let waiting (st : Ccr_refine.Async.state) =
          match st.Ccr_refine.Async.r.(0).r_mode with
          | Ccr_refine.Async.Rwait _ | Ccr_refine.Async.Rtrans _ -> true
          | Ccr_refine.Async.Rcomm -> false
        in
        let completes_r0 (l : Ccr_refine.Async.label) =
          l.Ccr_refine.Async.actor = 0
          &&
          match l.Ccr_refine.Async.rule with
          | Ccr_refine.Async.R_repl_recv | Ccr_refine.Async.R_T1
          | Ccr_refine.Async.H_T1_repl ->
            true
          | _ -> false
        in
        checki "never wedged" 0
          (List.length
             (Graph.violates_ag_implies_ef g ~from:waiting
                ~progress:completes_r0)));
    case "bitstate hash positions are independent (h1 <> h2)" (fun () ->
        (* regression for the seeded-hash scheme: the two bitstate
           positions must stay distinct or double bitstate degenerates to
           single-hash supertrace *)
        let keys =
          List.init 200 (fun i ->
              Fmt.str "key-%d-%s" i (String.make (i mod 11) (Char.chr (65 + (i mod 26)))))
        in
        let distinct =
          List.filter
            (fun k ->
              let h1, h2 = Explore.bitstate_positions ~bits:20 k in
              checkb "h1 in range" true (h1 >= 0 && h1 < 1 lsl 20);
              checkb "h2 in range" true (h2 >= 0 && h2 < 1 lsl 20);
              h1 <> h2)
            keys
        in
        (* all 200 sampled keys hash to two distinct positions *)
        checki "all distinct" (List.length keys) (List.length distinct));
    case "time cap is consulted before every expansion" (fun () ->
        (* regression: with the old every-256-pops check, 256 slow succ
           calls (20 ms each) overshoot a 50 ms cap by ~5 s.  The per-pop
           check bounds the overshoot by a single succ call. *)
        let t0 = Unix.gettimeofday () in
        let very_slow =
          Explore.
            {
              init = 0;
              succ =
                (fun s ->
                  ignore (Unix.select [] [] [] 0.02);
                  [ ("n", s + 1) ]);
              encode = string_of_int;
              decode = int_of_string;
              canon = None;
              key_io = None;
            }
        in
        let r = Explore.run ~max_time_s:0.05 very_slow in
        let elapsed = Unix.gettimeofday () -. t0 in
        (match r.outcome with
        | Explore.Limit Explore.L_time -> ()
        | _ -> Alcotest.fail "expected time cap");
        checkb "no 256-expansion overshoot" true (elapsed < 1.0));
    case "time cap triggers" (fun () ->
        (* an expensive successor function; generous state space *)
        let slow =
          Explore.
            {
              init = 0;
              succ =
                (fun s ->
                  ignore (Sys.opaque_identity (List.init 2000 Fun.id));
                  [ ("n", (s + 1) mod 1000000); ("m", (s + 7) mod 1000000) ]);
              encode = string_of_int;
              decode = int_of_string;
              canon = None;
              key_io = None;
            }
        in
        let r = Explore.run ~max_time_s:0.05 slow in
        match r.outcome with
        | Explore.Limit Explore.L_time -> ()
        | Explore.Complete -> Alcotest.fail "space too small for the cap"
        | _ -> Alcotest.fail "expected time cap");
  ]

let suite = ("explore", tests)
