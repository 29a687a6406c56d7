(* The domain-sharded loop engine and its SPSC ring mailboxes.

   The reference is the interpreter: a single-domain run is
   deterministic per seed, so its traced schedule is replayed label by
   label through Async.successors (Engine.replay) for every registry
   protocol.  Quiescence, coherence of the final global state and
   fault-soak survival must hold sharded or not. *)

open Ccr_protocols
open Ccr_faults
open Test_util
module Runtime = Ccr_runtime.Runtime
module Engine = Ccr_runtime.Engine
module Ring = Ccr_runtime.Ring
module Async = Ccr_refine.Async

let k2 = Async.{ k = 2 }

let fspec s =
  match Fault.parse s with
  | Ok sp -> sp
  | Error m -> Alcotest.failf "Fault.parse %S: %s" s m

let assert_clean name (s : Runtime.stats) =
  if not s.quiescent then
    Alcotest.failf "%s: did not reach quiescence (%a)" name Runtime.pp_stats s;
  if s.protocol_errors <> [] then
    Alcotest.failf "%s: protocol errors: %s" name
      (String.concat "; " s.protocol_errors);
  if s.invariant_failures <> [] then
    Alcotest.failf "%s: final-state invariants failed: %s" name
      (String.concat ", " s.invariant_failures)

let registry_entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %S" name

(* A traced run replayed through the interpreter; any discrepancy fails
   the test, and the final state must be quiescent and coherent. *)
let replayed ?(budget = 3) ?(n = 2) (e : Registry.t) =
  let prog = e.Registry.instantiate ~reqrep:true ~n in
  let what = Fmt.str "%s n=%d" e.Registry.name n in
  match
    Engine.replay ~budget ~invariants:(e.Registry.async_invariants prog) prog
      k2
  with
  | Error m -> Alcotest.failf "%s: %s" what m
  | Ok (s, trace) ->
    assert_clean what s;
    (s, trace)

let tests =
  [
    case "ring: FIFO across wrap-around" (fun () ->
        let r = Ring.create ~dummy:(-1) 4 in
        checki "power-of-two capacity" 4 (Ring.capacity r);
        (* interleave pushes and pops so the counters lap the slot array
           several times *)
        let popped = ref [] in
        for i = 0 to 19 do
          checkb "push accepted" true (Ring.push r i);
          if i mod 2 = 1 then begin
            (match Ring.pop r with
            | Some x -> popped := x :: !popped
            | None -> Alcotest.fail "pop on non-empty ring");
            match Ring.pop r with
            | Some x -> popped := x :: !popped
            | None -> Alcotest.fail "pop on non-empty ring"
          end
        done;
        checkb "drained in order" true
          (List.rev !popped = List.init 20 (fun i -> i));
        checkb "empty at the end" true (Ring.is_empty r));
    case "ring: full mailbox exerts backpressure" (fun () ->
        let r = Ring.create ~dummy:(-1) 4 in
        for i = 0 to 3 do
          checkb "fills" true (Ring.push r i)
        done;
        checki "no free slots" 0 (Ring.free r);
        checkb "push on full is refused" false (Ring.push r 99);
        checkb "refused element not enqueued" true
          (Ring.to_list r = [ 0; 1; 2; 3 ]);
        checkb "pop frees a slot" true (Ring.pop r = Some 0);
        checkb "then push succeeds" true (Ring.push r 4);
        checkb "order preserved" true (Ring.to_list r = [ 1; 2; 3; 4 ]));
    case "ring: cross-domain SPSC visibility" (fun () ->
        (* one producer domain, consumer on the test thread: every
           element arrives, in order, through a ring much smaller than
           the stream so the pair wraps and backpressures constantly *)
        let r = Ring.create ~dummy:(-1) 8 in
        let total = 20_000 in
        let producer =
          Domain.spawn (fun () ->
              for i = 0 to total - 1 do
                while not (Ring.push r i) do
                  Domain.cpu_relax ()
                done
              done)
        in
        let next = ref 0 in
        while !next < total do
          match Ring.pop r with
          | Some x ->
            if x <> !next then Alcotest.failf "got %d, expected %d" x !next;
            incr next
          | None -> Domain.cpu_relax ()
        done;
        Domain.join producer;
        checkb "stream fully delivered" true (Ring.is_empty r));
    case "whole registry: engine matches the trace replay of the interpreter"
      (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            List.iter
              (fun n ->
                let s, _ = replayed ~budget:20 ~n e in
                (* every remote completes its 20 cycles, each worth at
                   least one rendezvous *)
                checkb
                  (Fmt.str "%s n=%d: the budget is spent" e.Registry.name n)
                  true
                  (s.rendezvous >= n * 20))
              [ 3; 4 ])
          Registry.all);
    case "sharded runs stay coherent (-j 1/2/4)" (fun () ->
        let e = registry_entry "lock" in
        let prog = e.Registry.instantiate ~reqrep:true ~n:4 in
        let invariants = e.Registry.async_invariants prog in
        List.iter
          (fun domains ->
            let s =
              Engine.run ~seed:2 ~domains ~budget:100 ~invariants prog k2
            in
            assert_clean (Fmt.str "lock -j %d" domains) s;
            checkb "every remote spent its budget" true
              (s.rendezvous >= 4 * 100))
          [ 1; 2; 4 ]);
    case "tiny mailboxes: backpressure does not wedge the engine" (fun () ->
        let e = registry_entry "invalidate" in
        let prog = e.Registry.instantiate ~reqrep:true ~n:4 in
        let s =
          Engine.run ~seed:0 ~ring_cap:4 ~budget:50
            ~invariants:(e.Registry.async_invariants prog)
            prog k2
        in
        assert_clean "ring_cap=4" s);
    case "traced schedules are deterministic per seed" (fun () ->
        let migratory = registry_entry "migratory" in
        let s1, t1 = replayed ~budget:4 migratory in
        let s2, t2 = replayed ~budget:4 migratory in
        checki "same step count" s1.steps s2.steps;
        checki "same messages" s1.messages s2.messages;
        checkb "identical label traces" true (t1 = t2);
        checki "trace covers every step" s1.steps (List.length t1));
    case "every traced step is a legal interpreter transition" (fun () ->
        (* Engine.replay fails on the first label the interpreter does
           not offer, and on a quiescence report no replayed state
           confirms; n=2 complements the registry-wide case's n=3/4 *)
        List.iter (fun e -> ignore (replayed ~budget:2 e)) Registry.all);
    case "step cap stops the engine promptly" (fun () ->
        let e = registry_entry "lock" in
        let prog = e.Registry.instantiate ~reqrep:true ~n:4 in
        let s =
          Engine.run ~seed:0 ~max_steps:50 ~budget:10_000 ~invariants:[] prog
            k2
        in
        checkb "capped" true (not s.quiescent);
        checks "cause" "step-cap" s.stop_cause;
        (* domains drain in batches, so the cap is a stop signal, not an
           exact count — but it must be the same order of magnitude *)
        checkb "stopped promptly" true (s.steps < 50 + 1024);
        checki "watchdog covers the home and every remote" 5
          (List.length s.watchdog));
    case "hardened fault soak at engine rates loses nothing" (fun () ->
        List.iter
          (fun (name, n, seed, spec, budget, min_injected) ->
            let e = registry_entry name in
            let prog = e.Registry.instantiate ~reqrep:true ~n in
            let s =
              Engine.run ~seed
                ~faults:(Injected.Hardened, Plan.random ~n ~seed (fspec spec))
                ~budget
                ~invariants:(e.Registry.async_invariants prog)
                prog k2
            in
            let what = Fmt.str "hardened %s %s" name spec in
            assert_clean what s;
            checkb (what ^ ": faults actually injected") true
              (Fault.injected s.faults >= min_injected);
            checkb (what ^ ": ARQ repaired the drops") true
              (s.faults.Fault.f_retransmits >= 1))
          [
            ("migratory", 2, 3, "drop=10,dup=10", 100, 10);
            ("invalidate", 3, 13, "drop=2,dup=2,delay=2", 40, 4);
          ]);
    case "tracing a fault-injected run is refused" (fun () ->
        let e = registry_entry "migratory" in
        let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
        match
          Engine.run ~seed:0
            ~faults:(Injected.Hardened, Plan.random ~n:2 ~seed:1 (fspec "drop=1"))
            ~on_step:(fun _ -> ())
            ~budget:2 ~invariants:[] prog k2
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let suite = ("engine", tests)
