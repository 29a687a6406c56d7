(* The run contract of Engine.run as ccr run uses it — quiescence and
   coherence per protocol, the workload budget, the deadline watchdog,
   protocol-error wind-down and per-seed fault determinism — plus the
   Channel queues under the fault transport.  Engine internals (rings,
   sharding, trace replay, fault soak) are in suite_engine. *)

open Ccr_core
open Ccr_protocols
open Ccr_faults
open Test_util
module Runtime = Ccr_runtime.Runtime
module Engine = Ccr_runtime.Engine
module Channel = Ccr_runtime.Channel

let k2 = Ccr_refine.Async.{ k = 2 }

let fspec s =
  match Fault.parse s with
  | Ok sp -> sp
  | Error m -> Alcotest.failf "Fault.parse %S: %s" s m

(* Aim one fault at a known message: with the generic (reqrep-off) ping,
   the first message remote 0 sends is its acq request and the first
   message the home sends back is the matching ack. *)
let one_fault kind chan =
  Plan.make ~n:1 (fspec "drop=1,dup=1")
    [ { Plan.ev_kind = kind; ev_on = Fault.Kany; ev_chan = chan; ev_ord = 1 } ]

let assert_clean name (s : Runtime.stats) =
  if not s.quiescent then
    Alcotest.failf "%s: did not reach quiescence (%a)" name Runtime.pp_stats s;
  if s.protocol_errors <> [] then
    Alcotest.failf "%s: protocol errors: %s" name
      (String.concat "; " s.protocol_errors);
  if s.invariant_failures <> [] then
    Alcotest.failf "%s: final-state invariants failed: %s" name
      (String.concat ", " s.invariant_failures)

let tests =
  [
    case "channel is FIFO with peek semantics" (fun () ->
        let c = Channel.create () in
        checkb "empty" true (Channel.is_empty c);
        Channel.send c 1;
        Channel.send c 2;
        checki "length" 2 (Channel.length c);
        checkb "peek oldest" true (Channel.peek c = Some 1);
        checkb "peek does not consume" true (Channel.peek c = Some 1);
        checkb "pop oldest" true (Channel.pop c = Some 1);
        checkb "then next" true (Channel.pop c = Some 2);
        checkb "then empty" true (Channel.pop c = None));
    case "channel survives concurrent producers and one consumer" (fun () ->
        let c = Channel.create () in
        let producers =
          List.init 4 (fun p ->
              Domain.spawn (fun () ->
                  for i = 0 to 249 do
                    Channel.send c ((p * 1000) + i)
                  done))
        in
        List.iter Domain.join producers;
        let seen = ref [] in
        let rec drain () =
          match Channel.pop c with
          | Some x ->
            seen := x :: !seen;
            drain ()
          | None -> ()
        in
        drain ();
        checki "all received" 1000 (List.length !seen);
        (* per-producer order is preserved *)
        List.iter
          (fun p ->
            let mine =
              List.rev (List.filter (fun x -> x / 1000 = p) !seen)
            in
            checkb "in order" true (List.sort compare mine = mine))
          [ 0; 1; 2; 3 ]);
    case "migratory runs concurrently and ends coherent" (fun () ->
        let prog = Link.compile ~n:4 (Migratory.system ()) in
        let s =
          Engine.run ~budget:50
            ~invariants:(Migratory.async_invariants prog)
            prog k2
        in
        assert_clean "migratory" s;
        checkb "work happened" true (s.rendezvous > 4 * 50 / 2));
    case "invalidate runs concurrently and ends coherent" (fun () ->
        let prog = Link.compile ~n:3 Invalidate.system in
        let s =
          Engine.run ~budget:60
            ~invariants:(Invalidate.async_invariants prog)
            prog k2
        in
        assert_clean "invalidate" s);
    case "lock server: mutual exclusion end to end" (fun () ->
        let prog = Link.compile ~n:4 Lock_server.system in
        let s =
          Engine.run ~budget:40
            ~invariants:(Lock_server.async_invariants prog)
            prog k2
        in
        assert_clean "lock" s;
        (* every budgeted cycle acquires and releases: two rendezvous *)
        checkb "completions per remote" true
          (Array.for_all (fun c -> c >= 40) s.completions));
    case "barrier: equal budgets synchronize to quiescence" (fun () ->
        let prog = Link.compile ~n:3 Barrier.system in
        let s =
          Engine.run ~budget:30
            ~invariants:(Barrier.async_invariants prog)
            prog k2
        in
        assert_clean "barrier" s;
        (* every remote completes one arrive and one go per round *)
        Array.iter (fun c -> checki "rounds" 60 c) s.completions);
    case "mesi under real concurrency" (fun () ->
        let prog = Link.compile ~n:3 Mesi.system in
        let s =
          Engine.run ~budget:50 ~invariants:(Mesi.async_invariants prog)
            prog k2
        in
        assert_clean "mesi" s);
    case "write-update under real concurrency" (fun () ->
        let prog = Link.compile ~n:3 Write_update.system in
        let s =
          Engine.run ~budget:50
            ~invariants:(Write_update.async_invariants prog)
            prog k2
        in
        assert_clean "write-update" s);
    case "hand-optimized migratory under real concurrency" (fun () ->
        let prog = Migratory_hand.prog ~n:3 () in
        let s =
          Engine.run ~budget:50
            ~invariants:(Migratory_hand.async_invariants prog)
            prog k2
        in
        assert_clean "hand" s);
    case "bigger buffers work too" (fun () ->
        let prog = Link.compile ~n:4 (Migratory.system ()) in
        let s =
          Engine.run ~budget:40
            ~invariants:(Migratory.async_invariants prog)
            prog Ccr_refine.Async.{ k = 4 }
        in
        assert_clean "k=4" s);
    case "workload budget bounds the run" (fun () ->
        (* schedules vary with the seed, but the budget caps the work: a
           migratory cycle completes at most four rendezvous (request +
           grant + revoke + done), so two remotes with 25 cycles each can
           never exceed 4 * 2 * 25 *)
        let prog = Link.compile ~n:2 (Migratory.system ()) in
        let s =
          Engine.run ~budget:25
            ~invariants:(Migratory.async_invariants prog)
            prog k2
        in
        assert_clean "bounds" s;
        checkb "not more rendezvous than cycles allow" true
          (s.rendezvous <= 4 * 2 * 25);
        checkb "and real work happened" true (s.rendezvous >= 25));
    case "closed channels poison senders and readers" (fun () ->
        let c = Channel.create () in
        Channel.send c 1;
        checkb "open" false (Channel.is_closed c);
        Channel.close c;
        checkb "closed" true (Channel.is_closed c);
        checkb "pending messages discarded" true (Channel.pop c = None);
        Channel.send c 2;
        checkb "send after close is a no-op" true (Channel.peek c = None));
    case "double close is a no-op, not an error" (fun () ->
        (* error paths poison the same transport twice: once from the
           failing node, once from the shared wind-down *)
        let c = Channel.create () in
        Channel.send c 1;
        Channel.close c;
        Channel.close c;
        checkb "still closed" true (Channel.is_closed c);
        checkb "still empty" true (Channel.pop c = None);
        Channel.send c 2;
        Channel.close c;
        checkb "and still poisoned" true (Channel.peek c = None));
    case "deadline hit: the watchdog names the stuck node" (fun () ->
        (* drop remote 0's acq request: in the vanilla transport it waits
           for an ack that can never come, and the run must end at the
           deadline pointing at it — not hang, not crash *)
        let prog = compile ~reqrep:false ~n:1 ping_system in
        let s =
          Engine.run ~deadline_s:0.5
            ~faults:(Injected.Vanilla, one_fault Plan.Drop (Fault.To_h 0))
            ~budget:3 ~invariants:[] prog k2
        in
        checkb "not quiescent" false s.quiescent;
        checki "the drop was injected" 1 s.faults.Fault.f_drops;
        let remote_desc =
          try List.assoc "remote 0" s.watchdog
          with Not_found ->
            Alcotest.failf "no watchdog entry for remote 0 (%a)"
              Runtime.pp_stats s
        in
        checkb "remote 0 reported awaiting its ack" true
          (contains_sub ~sub:"awaiting" remote_desc));
    case "protocol error mid-run: reported, and the run still winds down"
      (fun () ->
        (* duplicate the home's first ack: the remote consumes the real
           one, then meets the stale copy outside its transient state —
           Async.Protocol_error.  The transport is poisoned so the run
           ends promptly instead of polling until the deadline. *)
        let prog = compile ~reqrep:false ~n:1 ping_system in
        let t0 = Unix.gettimeofday () in
        let s =
          Engine.run ~deadline_s:20.
            ~faults:(Injected.Vanilla, one_fault Plan.Dup (Fault.To_r 0))
            ~budget:3 ~invariants:[] prog k2
        in
        checkb "protocol error surfaced" true (s.protocol_errors <> []);
        checkb "error names the stale ack" true
          (List.exists (contains_sub ~sub:"ack") s.protocol_errors);
        checkb "run ended promptly, not at the deadline" true
          (Unix.gettimeofday () -. t0 < 10.));
    case "fault-injected runs are deterministic per seed" (fun () ->
        let prog = Link.compile ~n:2 (Migratory.system ()) in
        let go () =
          Engine.run
            ~faults:
              (Injected.Hardened, Plan.random ~n:2 ~seed:5 (fspec "drop=1,dup=1"))
            ~budget:20
            ~invariants:(Migratory.async_invariants prog)
            prog k2
        in
        let s1 = go () and s2 = go () in
        assert_clean "hardened run 1" s1;
        assert_clean "hardened run 2" s2;
        (* the injected faults are the plan's alone *)
        checkb "identical injections" true
          (s1.faults.Fault.f_drops = s2.faults.Fault.f_drops
          && s1.faults.Fault.f_dups = s2.faults.Fault.f_dups
          && s1.faults.Fault.f_delays = s2.faults.Fault.f_delays);
        checki "both faults fired" 2
          (s1.faults.Fault.f_drops + s1.faults.Fault.f_dups));
  ]

let suite = ("runtime", tests)
