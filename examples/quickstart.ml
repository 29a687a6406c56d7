(* Quickstart: write a protocol at the rendezvous level, verify it there,
   and let the refinement produce the asynchronous implementation.

     dune exec examples/quickstart.exe

   The protocol: a counter service.  Remotes fetch-and-increment a counter
   held at the home.  At the rendezvous level this is two lines per party;
   the refined protocol's request/buffer/nack machinery is derived. *)

open Ccr_core

(* 1. Specify.  The home hands the counter value to one remote at a time
   ([fetch]/[value]) and accepts it back incremented ([store]).  The value
   lives in a small modular domain so the state space stays finite. *)
let counter_service =
  let open Dsl in
  let home =
    process "home"
      ~vars:[ ("c", Value.Dint (0, 3)); ("who", Value.Drid) ]
      ~init:"Idle"
      [
        state "Idle" [ recv_any "who" "fetch" [] ~goto:"Handing" ];
        state "Handing" [ send_to (v "who") "value" [ v "c" ] ~goto:"Lent" ];
        state "Lent" [ recv_from (v "who") "store" [ "c" ] ~goto:"Idle" ];
      ]
  in
  let remote =
    process "remote"
      ~vars:[ ("mine", Value.Dint (0, 3)) ]
      ~init:"Think"
      [
        state "Think" [ tau "want" ~goto:"Ask" ];
        state "Ask" [ send_home "fetch" [] ~goto:"Wait" ];
        state "Wait" [ recv_home "value" [ "mine" ] ~goto:"Use" ];
        state "Use"
          [
            (* increment modulo 4, then return the counter *)
            tau "bump"
              ~cond:(not_ (v "mine" ==~ int 3))
              ~assigns:[ ("mine", Expr.Succ (v "mine")) ]
              ~goto:"Give";
            tau "wrap" ~cond:(v "mine" ==~ int 3)
              ~assigns:[ ("mine", int 0) ]
              ~goto:"Give";
          ];
        state "Give" [ send_home "store" [ v "mine" ] ~goto:"Think" ];
      ]
  in
  system "counter-service" ~home ~remote

let () =
  (* 2. Validate: typing, star topology, the §2.4 syntactic restrictions. *)
  (match Validate.check counter_service with
  | Ok sigs ->
    Fmt.pr "validated; messages:@.";
    List.iter
      (fun (s : Validate.signature) ->
        Fmt.pr "  %-6s %s, %d payload value(s)@." s.msg
          (match s.direction with
          | Validate.Remote_to_home -> "remote->home"
          | Validate.Home_to_remote -> "home->remote")
          (List.length s.payload))
      sigs
  | Error es ->
    Fmt.pr "invalid: %a@." Fmt.(list ~sep:cut Validate.pp_error) es;
    exit 1);

  (* 3. The request/reply analysis (§3.3) finds what can skip acks. *)
  let report = Reqrep.analyze counter_service in
  List.iter (fun p -> Fmt.pr "optimized pair: %a@." Reqrep.pp_pair p) report.pairs;

  (* 4. Model-check the rendezvous protocol: tiny state space. *)
  let prog = Link.compile ~n:3 counter_service in
  let holding = Ccr_protocols.Props.remote_states prog [ "Use"; "Give" ] in
  let mutual_exclusion st =
    (* at most one remote holds the counter *)
    Ccr_protocols.Props.rv_remotes_in holding st <= 1
  in
  let rv =
    Ccr_modelcheck.Explore.run
      ~invariants:[ ("mutual_exclusion", mutual_exclusion) ]
      Ccr_modelcheck.Explore.
        {
          init = Ccr_semantics.Rendezvous.initial prog;
          succ = Ccr_semantics.Rendezvous.successors prog;
          encode = Ccr_semantics.Rendezvous.encode;
          decode = Ccr_semantics.Rendezvous.decode prog;
          canon = None;
        }
  in
  Fmt.pr "rendezvous level: %d states — %s@." rv.states
    (match rv.outcome with
    | Ccr_modelcheck.Explore.Complete -> "all invariants hold"
    | _ -> "PROBLEM");

  (* 5. The refined asynchronous protocol comes for free... *)
  let cfg = Ccr_refine.Async.{ k = 2 } in
  let using = Ccr_protocols.Props.remote_states prog [ "Use" ] in
  let asy =
    Ccr_modelcheck.Explore.run ~check_deadlock:true
      ~invariants:
        [
          (* asynchronously a remote parks in [Give] until the ack of its
             [store] arrives, by which time the home may already have lent
             the counter again — so only [Use] means "holding" here.  This
             is the usual observation shift when moving from atomic
             rendezvous to split transactions (cf. paper §4). *)
          ( "mutual_exclusion",
            fun st -> Ccr_protocols.Props.as_remotes_in using st <= 1 );
        ]
      Ccr_modelcheck.Explore.
        {
          init = Ccr_refine.Async.initial prog cfg;
          succ = Ccr_refine.Async.successors prog cfg;
          encode = Ccr_refine.Async.encode;
          decode = Ccr_refine.Async.decode prog;
          canon = None;
        }
  in
  Fmt.pr "asynchronous level: %d states — %s@." asy.states
    (match asy.outcome with
    | Ccr_modelcheck.Explore.Complete ->
      "no deadlock, invariants hold (with a 2-slot home buffer)"
    | _ -> "PROBLEM");

  (* 6. ... and is sound by construction: check Eq. 1 anyway. *)
  let v = Ccr_refine.Absmap.check_eq1 prog cfg in
  Fmt.pr "%a@." Ccr_refine.Absmap.pp_verdict v;

  (* 7. Look at what was derived. *)
  Fmt.pr "@.refined remote automaton:@.%a@." Ccr_viz.Ascii.pp_automaton
    (Ccr_refine.Compile.remote_automaton prog)
