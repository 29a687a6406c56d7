(* The network-fault model: budget parsing, the fault-injected checker
   semantics (vanilla loses quiescence/liveness, hardened restores it),
   deterministic plans, and the simulator's fault driver. *)
open Ccr_refine
open Ccr_faults
open Test_util
module Explore = Ccr_modelcheck.Explore
module Graph = Ccr_modelcheck.Graph

let spec s =
  match Fault.parse s with
  | Ok sp -> sp
  | Error m -> Alcotest.failf "Fault.parse %S: %s" s m

let injected_system mode sp prog cfg =
  Explore.
    {
      init = Injected.initial sp prog cfg;
      succ = Injected.successors mode sp prog cfg;
      encode = Injected.encode;
      decode = Injected.decode prog;
      canon = None;
      key_io = None;
    }

let k2 = Async.{ k = 2 }
let mig n = compile ~n (Ccr_protocols.Migratory.system ())

let explore ?(jobs = 1) ?(max_states = 200_000) ~invariants sys =
  Explore.run ~jobs ~max_states ~check_deadlock:true ~trace:true ~invariants
    sys

let lifted prog invs =
  Injected.no_wedge :: List.map Injected.lift_invariant (invs prog)

(* Per-remote liveness on the injected graph: can remote [i] always still
   complete a rendezvous? *)
let starved_remotes ?(max_states = 200_000) ~n sys =
  let g = Graph.build ~max_states sys in
  checkb "graph complete" false g.Graph.truncated;
  List.filter
    (fun i ->
      Graph.violates_ag_ef g
        ~progress:(fun l ->
          match l with
          | Injected.Step al -> Injected.completes al && al.Async.actor = i
          | Injected.Fault _ -> false)
      <> [])
    (List.init n (fun i -> i))

let tests =
  [
    case "fault spec parses, prints, re-parses" (fun () ->
        let sp = spec "drop=1@ack,dup=2,delay=1@req,pause=1" in
        checki "drop" 1 sp.Fault.drop;
        checkb "drop filter" true (sp.Fault.drop_on = Fault.Kack);
        checki "dup" 2 sp.Fault.dup;
        checkb "dup filter" true (sp.Fault.dup_on = Fault.Kany);
        checki "delay" 1 sp.Fault.delay;
        checkb "delay filter" true (sp.Fault.delay_on = Fault.Kreq);
        checki "pause" 1 sp.Fault.pause;
        checki "total" 5 (Fault.total sp);
        let rendered = Fmt.str "%a" Fault.pp sp in
        checkb "round-trips" true (spec rendered = sp);
        checkb "none" true (Fault.is_none (spec ""));
        List.iter
          (fun bad ->
            checkb bad true (Result.is_error (Fault.parse bad)))
          [ "drop"; "drop=x"; "pause=1@ack"; "frob=1"; "drop=1@wat" ]);
    case "vanilla drop=1 deadlocks the smallest protocol" (fun () ->
        let prog = compile ~n:1 ping_system in
        let r =
          explore ~invariants:(lifted prog (fun _ -> []))
            (injected_system Injected.Vanilla (spec "drop=1") prog k2)
        in
        match r.Explore.outcome with
        | Explore.Deadlock _ ->
          checkb "trace is concrete" true (r.Explore.trace <> None)
        | o ->
          Alcotest.failf "expected a deadlock, got %a"
            (Explore.pp_outcome (Injected.pp_fstate prog))
            o);
    case "hardened drop=1 restores quiescence on the smallest protocol"
      (fun () ->
        let prog = compile ~n:1 ping_system in
        let sys =
          injected_system Injected.Hardened (spec "drop=1") prog k2
        in
        let r = explore ~invariants:(lifted prog (fun _ -> [])) sys in
        assert_complete "hardened ping" r;
        checkb "no remote starves" true (starved_remotes ~n:1 sys = []));
    case "vanilla dup wedges on a stale ack; hardened absorbs it" (fun () ->
        let prog = compile ~reqrep:false ~n:1 ping_system in
        let vanilla =
          explore ~invariants:(lifted prog (fun _ -> []))
            (injected_system Injected.Vanilla (spec "dup=1@ack") prog k2)
        in
        (match vanilla.Explore.outcome with
        | Explore.Violation { invariant; _ } ->
          checks "which invariant" "no_protocol_error" invariant
        | o ->
          Alcotest.failf "expected a wedge violation, got %a"
            (Explore.pp_outcome (Injected.pp_fstate prog))
            o);
        let hardened =
          explore ~invariants:(lifted prog (fun _ -> []))
            (injected_system Injected.Hardened (spec "dup=1@ack") prog k2)
        in
        assert_complete "hardened dup" hardened);
    case "a single dropped ack starves a migratory remote (liveness, not \
          safety)" (fun () ->
        let prog = mig 2 in
        let sp = spec "drop=1@ack" in
        let sys = injected_system Injected.Vanilla sp prog k2 in
        let r =
          explore
            ~invariants:
              (lifted prog Ccr_protocols.Migratory.async_invariants)
            sys
        in
        (* coherence survives — the failure is pure liveness *)
        assert_complete "vanilla migratory safety" r;
        checkb "some remote is starvable" true (starved_remotes ~n:2 sys <> []);
        (* the hardened transport repairs it under the same budget *)
        let hsys = injected_system Injected.Hardened sp prog k2 in
        let hr =
          explore
            ~invariants:
              (lifted prog Ccr_protocols.Migratory.async_invariants)
            hsys
        in
        assert_complete "hardened migratory" hr;
        checkb "nobody starves hardened" true (starved_remotes ~n:2 hsys = []));
    case "fault exploration is deterministic across -j" (fun () ->
        let prog = mig 2 in
        let invariants =
          lifted prog Ccr_protocols.Migratory.async_invariants
        in
        let sys () =
          injected_system Injected.Vanilla (spec "drop=1@ack") prog k2
        in
        let r1 = explore ~invariants (sys ()) in
        let r4 = explore ~jobs:4 ~invariants (sys ()) in
        assert_complete "j=1" r1;
        assert_complete "j=4" r4;
        checki "states agree" r1.Explore.states r4.Explore.states;
        checki "transitions agree" r1.Explore.transitions
          r4.Explore.transitions);
    case "pause faults apply at the rendezvous level and resolve" (fun () ->
        let prog = compile ~n:2 ping_system in
        let sp = spec "pause=1" in
        let init = Injected.rv_initial sp prog in
        let labels = List.map fst (Injected.rv_successors prog init) in
        checkb "a pause is offered" true
          (List.exists
             (function Injected.Rv_pause _ -> true | _ -> false)
             labels);
        let r =
          Explore.run ~max_states:200_000 ~trace:true ~invariants:[]
            Explore.
              {
                init;
                succ = Injected.rv_successors prog;
                encode = Injected.rv_encode;
                decode = Injected.rv_decode prog;
                canon = None;
                key_io = None;
              }
        in
        assert_complete "rv pause" r);
    case "plan cursors count per channel and filter" (fun () ->
        let sp = spec "drop=1@ack" in
        let plan =
          Plan.make ~n:2 sp
            [
              {
                Plan.ev_kind = Plan.Drop;
                ev_on = Fault.Kack;
                ev_chan = Fault.To_r 0;
                ev_ord = 2;
              };
            ]
        in
        let cur = Plan.cursor plan in
        let decide ch w = Plan.decide plan cur ch w in
        (* nacks advance the @any counter but not the @ack one *)
        checkb "nack delivered" true
          (decide (Fault.To_r 0) Wire.Nack = Plan.Deliver);
        checkb "first ack delivered" true
          (decide (Fault.To_r 0) Wire.Ack = Plan.Deliver);
        (* other channels have independent counters *)
        checkb "other channel untouched" true
          (decide (Fault.To_r 1) Wire.Ack = Plan.Deliver);
        checkb "second ack dropped" true
          (decide (Fault.To_r 0) Wire.Ack = Plan.Drop);
        checkb "third ack delivered" true
          (decide (Fault.To_r 0) Wire.Ack = Plan.Deliver));
    case "random plans are a pure function of the seed" (fun () ->
        let sp = spec "drop=2,dup=1,delay=1,pause=1" in
        let p1 = Plan.random ~n:3 ~seed:9 sp in
        let p2 = Plan.random ~n:3 ~seed:9 sp in
        checkb "same seed, same plan" true (p1 = p2);
        let p3 = Plan.random ~n:3 ~seed:10 sp in
        checkb "different seed, different plan" true (p1 <> p3);
        checki "every channel fault placed" 4 (List.length p1.Plan.events);
        checki "every pause windowed" 1 (List.length p1.Plan.windows));
    case "sim: vanilla drop deadlocks and reports the blocked \
          configuration" (fun () ->
        let prog = mig 2 in
        let plan = Plan.random ~n:2 ~seed:7 (spec "drop=1") in
        let m =
          Ccr_simulate.Sim.run ~seed:7
            ~faults:(Injected.Vanilla, plan)
            ~steps:2000 prog k2 Ccr_simulate.Sched.uniform
        in
        checkb "deadlocked" true m.Ccr_simulate.Sim.deadlocked;
        checkb "blocked configuration reported" true
          (m.Ccr_simulate.Sim.blocked <> None);
        checki "the drop was injected" 1
          m.Ccr_simulate.Sim.faults.Fault.f_drops);
    case "sim: hardened run retransmits through the same plan and \
          completes" (fun () ->
        let prog = mig 2 in
        let plan = Plan.random ~n:2 ~seed:7 (spec "drop=1") in
        let m =
          Ccr_simulate.Sim.run ~seed:7
            ~faults:(Injected.Hardened, plan)
            ~steps:2000 prog k2 Ccr_simulate.Sched.uniform
        in
        checkb "no deadlock" false m.Ccr_simulate.Sim.deadlocked;
        checkb "no wedge" true (m.Ccr_simulate.Sim.wedged = None);
        checki "drop injected" 1 m.Ccr_simulate.Sim.faults.Fault.f_drops;
        checkb "retransmit repaired it" true
          (m.Ccr_simulate.Sim.faults.Fault.f_retransmits >= 1);
        checkb "work still happened" true
          (m.Ccr_simulate.Sim.rendezvous > 100));
    case "sim fault injection is deterministic given the seed" (fun () ->
        let prog = mig 2 in
        let go () =
          let plan = Plan.random ~n:2 ~seed:5 (spec "drop=2,dup=1,delay=1") in
          Ccr_simulate.Sim.run ~seed:5
            ~faults:(Injected.Hardened, plan)
            ~steps:3000 prog k2 Ccr_simulate.Sched.uniform
        in
        let m1 = go () and m2 = go () in
        checki "steps" m1.Ccr_simulate.Sim.steps m2.Ccr_simulate.Sim.steps;
        checki "rendezvous" m1.Ccr_simulate.Sim.rendezvous
          m2.Ccr_simulate.Sim.rendezvous;
        checkb "fault counts identical" true
          (m1.Ccr_simulate.Sim.faults = m2.Ccr_simulate.Sim.faults);
        checkb "faults actually fired" true
          (Fault.injected m1.Ccr_simulate.Sim.faults = 4));
    case "budget bounds the injected faults" (fun () ->
        (* every explored vanilla path spends at most the budget *)
        let prog = compile ~n:1 ping_system in
        let sp = spec "drop=1,dup=1" in
        let seen = Hashtbl.create 64 in
        let rec walk fs =
          let key = Injected.encode fs in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let b = fs.Injected.left in
            checkb "budget never negative" true
              (b.Injected.b_drop >= 0 && b.Injected.b_dup >= 0);
            List.iter
              (fun (_, fs') -> walk fs')
              (Injected.successors Injected.Vanilla sp prog k2 fs)
          end
        in
        walk (Injected.initial sp prog k2);
        checkb "explored something" true (Hashtbl.length seen > 10));
  ]

let suite = ("faults", tests)
