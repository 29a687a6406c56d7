(* Multi-process exploration, and the cross-setting pin of the
   exploration driver.

   The contract of [Explore.run ~workers] (DESIGN.md §6, "Exploration
   driver"): outcome, state and transition counts, depth and
   counterexample are identical to the one-shard run's at every worker
   and job count — ownership partitions the key space, so freshness is
   race-free, and the driver's rank merge replays the fresh states in
   sequential discovery order. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Registry = Ccr_protocols.Registry

(* counter_system / bits_system come from Test_util. *)

(* The OCaml 5 runtime refuses [Unix.fork] once any domain has ever been
   spawned in the process — even one long since joined.  So this suite
   runs FIRST in the binary (see test_main.ml), and every forking case
   comes before the two cases that spawn in-process domains (kept last).
   The worker counts here all fork, except (w=1, j=1): one shard, which
   is fork-safe. *)
let configs = [ (1, 1); (2, 1); (2, 2) ]

let check_equiv ?store name sys =
  let seq = Explore.run sys in
  List.iter
    (fun (workers, jobs) ->
      let r = Explore.run ~workers ~jobs ?store sys in
      checki
        (Fmt.str "%s: states (w=%d j=%d)" name workers jobs)
        seq.states r.states;
      checki
        (Fmt.str "%s: transitions (w=%d j=%d)" name workers jobs)
        seq.transitions r.transitions;
      checkb
        (Fmt.str "%s: complete (w=%d j=%d)" name workers jobs)
        true
        (outcome_complete r.outcome);
      checki
        (Fmt.str "%s: max_depth (w=%d j=%d)" name workers jobs)
        seq.max_depth r.max_depth)
    configs

(* The cross-setting pin.  Every row runs at (jobs, workers) in
   {1,2}x{1,2}, uncapped and capped at a third and a half of its
   uncapped state count, and must report the one-shard run's outcome,
   states, transitions, max_depth and counterexample.  The rows cover
   every registry protocol (complete, and violating an invariant that
   fails on the last state BFS discovers), the fault-injected migratory
   protocol under one dropped ack, and a deadlocking counter.  All
   forking settings run before any domain is spawned. *)
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
        canon = None;
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
  let rows = pin_rows () in
  let pass settings =
    List.iter
      (fun (Row { name; sys; invariants }) ->
        let run ?max_states ~jobs ~workers () =
          Explore.run ~jobs ~workers ?max_states ~check_deadlock:true
            ~trace:true ~invariants sys
        in
        let full = run ~jobs:1 ~workers:1 () in
        List.iter
          (fun cap ->
            let base = run ?max_states:cap ~jobs:1 ~workers:1 () in
            List.iter
              (fun (jobs, workers) ->
                let r = run ?max_states:cap ~jobs ~workers () in
                let what field =
                  Fmt.str "%s cap=%s j=%d w=%d: %s" name
                    (match cap with Some c -> string_of_int c | None -> "-")
                    jobs workers field
                in
                checkb (what "outcome") true (r.Explore.outcome = base.Explore.outcome);
                checki (what "states") base.Explore.states r.Explore.states;
                checki (what "transitions") base.Explore.transitions r.Explore.transitions;
                checki (what "max_depth") base.Explore.max_depth r.Explore.max_depth;
                checkb (what "trace") true (r.Explore.trace = base.Explore.trace))
              settings)
          [ None; Some (full.Explore.states / 3); Some (full.Explore.states / 2) ])
      rows
  in
  pass [ (1, 2); (2, 2) ];
  pass [ (2, 1) ]

let tests =
  [
    case "mpx matches seq on synthetic systems" (fun () ->
        check_equiv "bits-8" (bits_system 8);
        check_equiv "counter-50" (counter_system ~limit:50));
    case "every registry protocol: async counts match across worker configs"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
            check_equiv (e.Registry.name ^ " async n=2") (async_system prog))
          Registry.all);
    case "workers compose with the compressed stores" (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let sys = async_system prog in
        check_equiv ~store:(Vstore.Collapse (Async.split_key prog))
          "migratory n=3 collapse" sys;
        check_equiv ~store:Vstore.Disk "migratory n=3 disk" sys);
    case "per-worker stores hold disjoint partitions" (fun () ->
        let seq = Explore.run (bits_system 10) in
        let r = Explore.run ~workers:2 (bits_system 10) in
        (* mem/raw sum the per-worker stores; each worker holds a strict
           subset, so the totals match the state count, not exceed it *)
        checki "states" seq.states r.states;
        checkb "raw accounted" true (r.raw_bytes > 0);
        checkb "split across workers" true (r.mem_bytes > 0));
    case "violation is detected with a valid trace" (fun () ->
        let r =
          Explore.run ~workers:2 ~trace:true
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
          checkb "trace ends at the violation" true
            (snd (List.nth path (List.length path - 1)) >= 7)
        | None -> Alcotest.fail "expected a trace");
    case "deadlock is detected via the sequential-order merge" (fun () ->
        let r =
          Explore.run ~workers:2 ~check_deadlock:true ~trace:true
            (counter_system ~limit:10)
        in
        match r.outcome with
        | Explore.Deadlock s -> checki "deadlock at limit" 10 s
        | _ -> Alcotest.fail "expected deadlock");
    case "state cap stops exactly where seq stops" (fun () ->
        let seq = Explore.run ~max_states:10 (bits_system 8) in
        let r = Explore.run ~workers:2 ~max_states:10 (bits_system 8) in
        (match r.outcome with
        | Explore.Limit Explore.L_states -> ()
        | _ -> Alcotest.fail "expected state cap");
        checki "stopped at cap" 10 r.states;
        checki "transitions" seq.transitions r.transitions;
        checki "max_depth" seq.max_depth r.max_depth);
    case "prov counterexample matches the legacy (no-prov) trace (workers=2)"
      (fun () ->
        let prog =
          (Option.get (Registry.find "migratory")).Registry.instantiate
            ~reqrep:true ~n:2
        in
        let sys = async_system prog in
        let g = Ccr_modelcheck.Graph.build sys in
        let states = g.Ccr_modelcheck.Graph.states in
        let target = Async.encode states.(Array.length states - 1) in
        let invariants =
          [ ("not-last", fun st -> Async.encode st <> target) ]
        in
        let sig_of (r : (_, _) Explore.stats) =
          match r.Explore.trace with
          | None -> []
          | Some path ->
            List.map
              (fun (l, st) ->
                (Option.map (Fmt.str "%a" Async.pp_label) l, Async.encode st))
              path
        in
        let legacy = Explore.run ~workers:2 ~trace:true ~invariants sys in
        checkb "legacy violates" true
          (match legacy.Explore.outcome with
          | Explore.Violation _ -> true
          | _ -> false);
        List.iter
          (fun kind ->
            let prov = Vstore.Prov.create ~kind () in
            let r = Explore.run ~workers:2 ~prov ~trace:true ~invariants sys in
            checkb
              (Vstore.Prov.pkind_name kind ^ ": trace matches no-prov run")
              true
              (sig_of r = sig_of legacy))
          [ Vstore.Prov.P_mem; Vstore.Prov.P_disk ]);
    case "journal is byte-identical to the sequential engine (workers=2)"
      (fun () ->
        let journal_of run =
          let j = Ccr_obs.Journal.create () in
          let on_level ~depth ~states =
            Ccr_obs.Journal.event j "level"
              [
                ("depth", Ccr_obs.Journal.Int depth);
                ("states", Ccr_obs.Journal.Int states);
              ]
          in
          ignore (run ~on_level);
          Ccr_obs.Journal.contents j
        in
        (* complete run *)
        let sys = counter_system ~limit:400 in
        let seq = journal_of (fun ~on_level -> Explore.run ~on_level sys) in
        checkb "non-empty" true (String.length seq > 0);
        checks "complete run identical"
          seq
          (journal_of (fun ~on_level -> Explore.run ~workers:2 ~on_level sys));
        (* violating run, with provenance *)
        let invariants = [ ("small", fun s -> s < 210) ] in
        let vseq =
          journal_of (fun ~on_level ->
              Explore.run
                ~prov:(Vstore.Prov.create ())
                ~on_level ~invariants ~trace:true sys)
        in
        checks "violating run identical"
          vseq
          (journal_of (fun ~on_level ->
               Explore.run ~workers:2
                 ~prov:(Vstore.Prov.create ())
                 ~on_level ~invariants ~trace:true sys)));
    (* keep these two last: they spawn domains in this process, which
       forbids any further fork in the binary *)
    case "every setting stops where the one-shard run stops"
      cross_setting_pin;
    case "workers=1 delegates to the in-process engines" (fun () ->
        let seq = Explore.run (bits_system 8) in
        List.iter
          (fun jobs ->
            let r = Explore.run ~workers:1 ~jobs (bits_system 8) in
            checki (Fmt.str "states (j=%d)" jobs) seq.states r.states;
            checki
              (Fmt.str "transitions (j=%d)" jobs)
              seq.transitions r.transitions)
          [ 1; 2 ]);
  ]

let suite = ("mpx", tests)
