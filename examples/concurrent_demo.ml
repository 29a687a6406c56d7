(* The derived protocol as a running system:

     dune exec examples/concurrent_demo.exe

   The home and each remote execute the compiled microcode tables of the
   refinement — the paper's "implement directly, for example in
   microcode" output, here in software — sharded over two OCaml domains
   and exchanging wire messages through lock-free mailboxes.  No global
   lock, no scheduler: across domains the interleavings are whatever the
   machine does.  At the end the system must be quiescent and the
   reassembled global state must satisfy the coherence invariants. *)

open Ccr_core
open Ccr_protocols
module Runtime = Ccr_runtime.Runtime
module Engine = Ccr_runtime.Engine

let () =
  let run name prog invariants budget =
    let s =
      Engine.run ~domains:2 ~budget ~invariants prog
        Ccr_refine.Async.{ k = 2 }
    in
    Fmt.pr "%-22s %a@.@." name Runtime.pp_stats s
  in
  Fmt.pr "running each protocol as %s@.@."
    "home + remotes on two domains over ring mailboxes";
  let mig = Link.compile ~n:4 (Migratory.system ()) in
  run "migratory n=4" mig (Migratory.async_invariants mig) 200;
  let inv = Link.compile ~n:3 Invalidate.system in
  run "invalidate n=3" inv (Invalidate.async_invariants inv) 200;
  let lock = Link.compile ~n:4 Lock_server.system in
  run "lock n=4" lock (Lock_server.async_invariants lock) 150;
  let bar = Link.compile ~n:4 Barrier.system in
  run "barrier n=4" bar (Barrier.async_invariants bar) 100;
  let hand = Migratory_hand.prog ~n:4 () in
  run "migratory-hand n=4" hand (Migratory_hand.async_invariants hand) 200;
  Fmt.pr
    "every run above executed the Table 1-2 rules concurrently and ended \
     with coherent state — the model-checked guarantees survive contact \
     with a real scheduler.@."
