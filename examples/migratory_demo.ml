(* The paper's §5 walkthrough, end to end:

     dune exec examples/migratory_demo.exe

   Takes the rendezvous migratory protocol of Figures 2-3, shows the
   request/reply pairs the analysis finds, derives the refined automata of
   Figures 4-5, model-checks coherence at both levels, demonstrates the
   state-space gap of Table 3 and verifies the soundness equation. *)

open Ccr_core
open Ccr_protocols
module Explore = Ccr_modelcheck.Explore
module Async = Ccr_refine.Async

let hr title = Fmt.pr "@.--- %s ---@.@." title

let () =
  let sys = Migratory.system () in

  hr "the rendezvous protocol (Figures 2-3)";
  Fmt.pr "%a@." Ccr_viz.Ascii.pp_system sys;

  hr "request/reply analysis (§3.3)";
  let report = Reqrep.analyze sys in
  List.iter (fun p -> Fmt.pr "  pair: %a@." Reqrep.pp_pair p) report.pairs;
  List.iter
    (fun (m, why) -> Fmt.pr "  kept generic: %-4s (%s)@." m why)
    report.rejected;

  hr "the refined asynchronous protocol (Figures 4-5)";
  let prog = Link.compile ~n:2 sys in
  Fmt.pr "%a@.%a@." Ccr_viz.Ascii.pp_automaton
    (Ccr_refine.Compile.home_automaton prog)
    Ccr_viz.Ascii.pp_automaton
    (Ccr_refine.Compile.remote_automaton prog);

  hr "coherence at both levels";
  List.iter
    (fun n ->
      let prog = Link.compile ~n sys in
      let rv =
        Explore.run
          ~invariants:(Migratory.rv_invariants prog)
          Explore.
            {
              init = Ccr_semantics.Rendezvous.initial prog;
              succ = Ccr_semantics.Rendezvous.successors prog;
              encode = Ccr_semantics.Rendezvous.encode;
              decode = Ccr_semantics.Rendezvous.decode prog;
              canon = None;
              key_io = None;
            }
      in
      let cfg = Async.{ k = 2 } in
      let asy =
        Explore.run ~check_deadlock:true
          ~invariants:(Migratory.async_invariants prog)
          Explore.
            {
              init = Async.initial prog cfg;
              succ = Async.successors prog cfg;
              encode = Async.encode;
              decode = Async.decode prog;
              canon = None;
              key_io = None;
            }
      in
      let ok o = match o with Explore.Complete -> "ok" | _ -> "FAILED" in
      Fmt.pr
        "  n=%d: rendezvous %5d states (%s)   asynchronous %7d states (%s) — \
         a %3.0fx gap@."
        n rv.states (ok rv.outcome) asy.states (ok asy.outcome)
        (float_of_int asy.states /. float_of_int rv.states))
    [ 2; 3; 4 ];

  hr "the point of the method (Table 3)";
  Fmt.pr
    "  The designer verifies the left column; the refinement makes the \
     right column correct without ever enumerating it.  At n=8 the \
     asynchronous space is out of reach (run the bench harness), while the \
     rendezvous one barely grows:@.";
  List.iter
    (fun n ->
      let prog = Link.compile ~n sys in
      let rv =
        Explore.run
          Explore.
            {
              init = Ccr_semantics.Rendezvous.initial prog;
              succ = Ccr_semantics.Rendezvous.successors prog;
              encode = Ccr_semantics.Rendezvous.encode;
              decode = Ccr_semantics.Rendezvous.decode prog;
              canon = None;
              key_io = None;
            }
      in
      Fmt.pr "  rendezvous n=%-3d %6d states@." n rv.states)
    [ 8; 16; 32 ];

  hr "soundness (Eq. 1, §4)";
  let v = Ccr_refine.Absmap.check_eq1 prog Async.{ k = 2 } in
  Fmt.pr "  %a@." Ccr_refine.Absmap.pp_verdict v;

  hr "message cost (completes the §5 comparison)";
  List.iter
    (fun (name, prog) ->
      let m =
        Ccr_simulate.Sim.run ~steps:50_000 prog Async.{ k = 2 }
          Ccr_simulate.Sched.uniform
      in
      Fmt.pr "  %-28s %.2f msgs/rendezvous@." name
        (Ccr_simulate.Sim.per_rendezvous m))
    [
      ("refined (req/repl pairs)", Link.compile ~n:3 sys);
      ("generic (all acks)", Link.compile ~reqrep:false ~n:3 sys);
      ("hand-designed (unacked LR)", Migratory_hand.prog ~n:3 ());
    ]
