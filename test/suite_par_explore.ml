(* Domain shards of the exploration driver.

   The contract of [Explore.run ~jobs] (DESIGN.md §6, "Exploration
   driver"): outcome, [states], [transitions], [max_depth] and the
   counterexample equal the one-shard run's exactly, for any number of
   domains and any exact store — also where a cap, a violation or a
   deadlock stops the search. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Registry = Ccr_protocols.Registry

let jobs_list = [ 1; 2; 4 ]

(* counter_system / bits_system come from Test_util. *)

let check_equiv name sys =
  let seq = Explore.run sys in
  List.iter
    (fun jobs ->
      let par = Explore.run ~jobs sys in
      checki (Fmt.str "%s: states (j=%d)" name jobs) seq.states par.states;
      checki
        (Fmt.str "%s: transitions (j=%d)" name jobs)
        seq.transitions par.transitions;
      checkb
        (Fmt.str "%s: complete (j=%d)" name jobs)
        true
        (outcome_complete par.outcome);
      checki
        (Fmt.str "%s: max_depth (j=%d)" name jobs)
        seq.max_depth par.max_depth;
      checkb
        (Fmt.str "%s: peak_frontier positive (j=%d)" name jobs)
        true (par.peak_frontier > 0))
    jobs_list

(* The cross-setting pin.  Every row runs at every jobs count in
   [jobs_list] over the in-memory and the out-of-core store, uncapped and
   capped at a third and a half of its uncapped state count, and must
   report the one-shard in-memory run's outcome, states, transitions,
   max_depth and counterexample.  The rows cover every registry protocol
   (complete, and violating an invariant that fails on the last state
   BFS discovers), the fault-injected migratory protocol under one
   dropped ack, and a deadlocking counter. *)
type row =
  | Row : {
      name : string;
      sys : ('s, 'l) Explore.system;
      invariants : (string * ('s -> bool)) list;
    }
      -> row

let not_last sys =
  let g = Ccr_modelcheck.Graph.build sys in
  let states = g.Ccr_modelcheck.Graph.states in
  let last = sys.Explore.encode states.(Array.length states - 1) in
  [ ("not-last", fun st -> sys.Explore.encode st <> last) ]

let pin_rows () =
  let registry =
    List.concat_map
      (fun (e : Registry.t) ->
        let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
        let sys = async_system prog in
        [
          Row
            {
              name = e.Registry.name;
              sys;
              invariants = e.Registry.async_invariants prog;
            };
          Row
            {
              name = e.Registry.name ^ " not-last";
              sys;
              invariants = not_last sys;
            };
        ])
      Registry.all
  in
  let module Injected = Ccr_faults.Injected in
  let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
  let sp = Result.get_ok (Ccr_faults.Fault.parse "drop=1@ack") in
  let cfg = Async.{ k = 2 } in
  let faulty =
    Explore.
      {
        init = Injected.initial sp prog cfg;
        succ = Injected.successors Injected.Vanilla sp prog cfg;
        encode = Injected.encode;
        decode = Injected.decode prog;
        canon = None;
        key_io = None;
      }
  in
  registry
  @ [
      Row
        {
          name = "migratory drop=1@ack";
          sys = faulty;
          invariants =
            Injected.no_wedge
            :: List.map Injected.lift_invariant
                 (Ccr_protocols.Migratory.async_invariants prog);
        };
      Row
        {
          name = "migratory drop=1@ack not-last";
          sys = faulty;
          invariants = not_last faulty;
        };
      Row { name = "counter"; sys = counter_system ~limit:60; invariants = [] };
    ]

let cross_setting_pin () =
  List.iter
    (fun (Row { name; sys; invariants }) ->
      let run ?max_states ?store jobs =
        Explore.run ~jobs ?store ?max_states ~check_deadlock:true ~trace:true
          ~invariants sys
      in
      let full = run 1 in
      List.iter
        (fun cap ->
          let base = run ?max_states:cap 1 in
          List.iter
            (fun (sname, store) ->
              List.iter
                (fun jobs ->
                  let r = run ?max_states:cap ~store jobs in
                  let what field =
                    Fmt.str "%s cap=%s j=%d store=%s: %s" name
                      (match cap with Some c -> string_of_int c | None -> "-")
                      jobs sname field
                  in
                  checkb (what "outcome") true
                    (r.Explore.outcome = base.Explore.outcome);
                  checki (what "states") base.Explore.states r.Explore.states;
                  checki (what "transitions") base.Explore.transitions
                    r.Explore.transitions;
                  checki (what "max_depth") base.Explore.max_depth
                    r.Explore.max_depth;
                  checkb (what "trace") true
                    (r.Explore.trace = base.Explore.trace))
                jobs_list)
            [ ("mem", Vstore.Mem); ("disk", Vstore.Disk) ])
        [ None; Some (full.Explore.states / 3); Some (full.Explore.states / 2) ])
    (pin_rows ())

let tests =
  [
    case "par matches seq on synthetic systems" (fun () ->
        check_equiv "bits-8" (bits_system 8);
        check_equiv "counter-50" (counter_system ~limit:50));
    case "every registry protocol: rendezvous counts match for j in 1,2,4"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            match e.Registry.system with
            | None -> () (* hand-optimized: no rendezvous level *)
            | Some _ ->
              let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
              check_equiv (e.Registry.name ^ " rv n=2") (rv_system prog))
          Registry.all);
    case "every registry protocol: async counts match for j in 1,2,4"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
            check_equiv (e.Registry.name ^ " async n=2") (async_system prog))
          Registry.all);
    case "async n=3 migratory: counts match across domain counts" (fun () ->
        let prog =
          compile ~n:3 (Ccr_protocols.Migratory.system ())
        in
        check_equiv "migratory async n=3" (async_system prog));
    case "seeded invariant violation is detected with a valid trace"
      (fun () ->
        List.iter
          (fun jobs ->
            let r =
              Explore.run ~jobs ~trace:true
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
              (* BFS: every prefix state holds *)
              List.iteri
                (fun i (_, s) ->
                  if i < List.length path - 1 then
                    checkb "prefix ok" true (s < 7))
                path
            | None -> Alcotest.fail "expected a trace")
          jobs_list);
    case "violation on a protocol invariant, parallel" (fun () ->
        (* seed an invariant the migratory protocol cannot satisfy: the
           home never being in its exclusive state *)
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let bad_inv =
          ( "home-never-moves",
            fun (st : Ccr_refine.Async.state) ->
              st.Ccr_refine.Async.h.h_ctl
              = (Ccr_refine.Async.initial prog { k = 2 }).Ccr_refine.Async.h
                  .h_ctl )
        in
        let r =
          Explore.run ~jobs:2 ~trace:true ~invariants:[ bad_inv ]
            (async_system prog)
        in
        (match r.outcome with
        | Explore.Violation { invariant; _ } ->
          checks "name" "home-never-moves" invariant
        | _ -> Alcotest.fail "expected violation");
        match r.trace with
        | Some path -> checkb "trace nonempty" true (List.length path > 1)
        | None -> Alcotest.fail "expected a trace");
    case "deadlock is detected via the sequential-order merge" (fun () ->
        let r =
          Explore.run ~jobs:2 ~check_deadlock:true ~trace:true
            (counter_system ~limit:10)
        in
        (match r.outcome with
        | Explore.Deadlock s -> checki "deadlock at limit" 10 s
        | _ -> Alcotest.fail "expected deadlock");
        match r.trace with
        | Some path ->
          checkb "path ends at 10" true
            (snd (List.nth path (List.length path - 1)) = 10)
        | None -> Alcotest.fail "expected a trace");
    case "violation in the initial state, parallel" (fun () ->
        let r =
          Explore.run ~jobs:2 ~trace:true
            ~invariants:[ ("never", fun _ -> false) ]
            (bits_system 3)
        in
        match r.outcome with
        | Explore.Violation _ -> checki "only the root" 1 r.states
        | _ -> Alcotest.fail "expected violation");
    case "state cap reports Unfinished (level by level, exact stop)"
      (fun () ->
        let seq = Explore.run ~max_states:10 (bits_system 8) in
        let r = Explore.run ~jobs:2 ~max_states:10 (bits_system 8) in
        (match r.outcome with
        | Explore.Limit Explore.L_states -> ()
        | _ -> Alcotest.fail "expected state cap");
        (* the merge knows every discovery's sequential position, so it
           stops on the very state the one-shard run stops on *)
        checki "stopped at cap" 10 r.states;
        checki "transitions" seq.transitions r.transitions;
        checki "max_depth" seq.max_depth r.max_depth);
    case "memory cap reports Unfinished" (fun () ->
        let r = Explore.run ~jobs:2 ~max_mem_bytes:500 (bits_system 10) in
        match r.outcome with
        | Explore.Limit Explore.L_memory ->
          checkb "mem accounted" true (r.mem_bytes >= 500)
        | _ -> Alcotest.fail "expected memory cap");
    case "time cap triggers in the parallel engine" (fun () ->
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
        let r = Explore.run ~jobs:2 ~max_time_s:0.05 slow in
        match r.outcome with
        | Explore.Limit Explore.L_time -> ()
        | Explore.Complete -> Alcotest.fail "space too small for the cap"
        | _ -> Alcotest.fail "expected time cap");
    case "parallel peak_frontier is the largest BFS level" (fun () ->
        (* level-synchronous BFS over the 8-bit hypercube: level d holds
           C(8,d) states, so the watermark is C(8,4) = 70 exactly *)
        let r = Explore.run ~jobs:2 (bits_system 8) in
        checki "largest level" 70 r.peak_frontier;
        checki "max_depth" 8 r.max_depth);
    case "parallel bitstate is a sound under-approximation" (fun () ->
        let exact = Explore.run (bits_system 10) in
        let par =
          Explore.run ~jobs:2 ~visited:(Explore.Bitstate 22)
            (bits_system 10)
        in
        checkb "lower bound" true (par.states <= exact.states);
        checkb "most states found" true (par.states > 900);
        (* total table memory equals the sequential table's 2^22 bits,
           spread over the shards *)
        checki "table bytes" (1 lsl 22 / 8) par.mem_bytes);
    case "every setting stops where the one-shard run stops"
      cross_setting_pin;
  ]

let suite = ("par_explore", tests)
