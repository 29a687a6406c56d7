(* Buffers and fairness (paper §2.5 and §6):

     dune exec examples/starvation_demo.exe

   The refinement guarantees weak fairness — some remote always makes
   progress — with a two-slot home buffer.  Per-remote fairness is a
   scheduling/buffering property: an adversary can starve a chosen victim,
   and small buffers make nacks (hence retries) common. *)

open Ccr_core
open Ccr_protocols
module Async = Ccr_refine.Async
module Sim = Ccr_simulate.Sim
module Sched = Ccr_simulate.Sched

let () =
  let n = 4 in
  let prog = Link.compile ~n (Migratory.system ()) in

  Fmt.pr "1. Weak fairness under an adversary (k = 2):@.";
  List.iter
    (fun (name, sched) ->
      let m = Sim.run ~steps:60_000 prog Async.{ k = 2 } sched in
      Fmt.pr "   %-12s completions per remote: %s   (total %d)@." name
        (String.concat " "
           (Array.to_list (Array.map string_of_int m.Sim.per_remote)))
        m.Sim.rendezvous)
    [
      ("uniform", Sched.uniform);
      ("starve-r0", Sched.starve 0);
      ("starve-r3", Sched.starve 3);
    ];
  Fmt.pr
    "   The victim gets nothing, everyone else speeds up: exactly the \
     guarantee of §2.5 — progress for SOME remote, not for EVERY \
     remote.@.@.";

  Fmt.pr "2. Buffer capacity vs nacks (the §6 trade-off), n = %d:@." n;
  Fmt.pr "   %-4s %8s %10s %12s@." "k" "nacks" "rendezv" "nacks/rdv";
  List.iter
    (fun k ->
      let m = Sim.run ~steps:60_000 prog Async.{ k } Sched.uniform in
      Fmt.pr "   %-4d %8d %10d %12.3f@." k m.Sim.nacks m.Sim.rendezvous
        (float_of_int m.Sim.nacks /. float_of_int (max 1 m.Sim.rendezvous)))
    [ 2; 3; 4 ];
  Fmt.pr
    "   With k = n the home can hold one request per remote and (under \
     fair processing) nobody is ever nacked:@.";
  let m = Sim.run ~steps:60_000 prog Async.{ k = n } Sched.uniform in
  Fmt.pr "   k = %d: %d nacks@.@." n m.Sim.nacks;

  Fmt.pr
    "3. Why not always use big buffers?  §6's arithmetic: a 64-node \
     machine with 1024 lines per home and per-remote guarantees would \
     reserve 64 x 1024 = %d message slots per node; the refinement's \
     2-slot scheme plus weak fairness is what makes the derived protocols \
     practical.  (Sharing a 513-slot pool across lines, as §6 suggests, \
     recovers per-line per-remote progress for CPUs with 8 outstanding \
     transactions.)@."
    (64 * 1024);

  Fmt.pr
    "@.4. Deadlock-freedom is unconditional (model-checked, k = 2):@.";
  let cfg = Async.{ k = 2 } in
  let prog2 = Link.compile ~n:3 (Migratory.system ()) in
  let r =
    Ccr_modelcheck.Explore.run ~check_deadlock:true
      Ccr_modelcheck.Explore.
        {
          init = Async.initial prog2 cfg;
          succ = Async.successors prog2 cfg;
          encode = Async.encode;
          decode = Async.decode prog2;
          canon = None;
          key_io = None;
        }
  in
  Fmt.pr "   n=3: %d states, %s@." r.states
    (match r.outcome with
    | Ccr_modelcheck.Explore.Complete -> "no deadlock anywhere"
    | _ -> "PROBLEM")
