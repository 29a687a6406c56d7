open Ccr_core
open Ccr_protocols
open Test_util

let check_both name sys ~rv_inv ~as_inv ns =
  List.iter
    (fun n ->
      let prog = compile ~n sys in
      assert_complete
        (Fmt.str "%s rv n=%d" name n)
        (explore_rv ~invariants:(rv_inv prog) prog);
      assert_complete
        (Fmt.str "%s async n=%d" name n)
        (explore_async ~invariants:(as_inv prog) prog))
    ns

let tests =
  [
    case "migratory coherence, both levels" (fun () ->
        check_both "migratory" (Migratory.system ())
          ~rv_inv:Migratory.rv_invariants ~as_inv:Migratory.async_invariants
          [ 1; 2; 3 ]);
    case "migratory with data, both levels" (fun () ->
        check_both "migratory-data"
          (Migratory.system ~with_data:true ())
          ~rv_inv:Migratory.rv_invariants ~as_inv:Migratory.async_invariants
          [ 1; 2 ]);
    case "migratory generic scheme keeps coherence" (fun () ->
        List.iter
          (fun n ->
            let prog = compile ~reqrep:false ~n (Migratory.system ()) in
            assert_complete "generic"
              (explore_async ~invariants:(Migratory.async_invariants prog) prog))
          [ 1; 2; 3 ]);
    case "invalidate coherence, both levels" (fun () ->
        check_both "invalidate" Invalidate.system
          ~rv_inv:Invalidate.rv_invariants ~as_inv:Invalidate.async_invariants
          [ 1; 2 ]);
    slow_case "invalidate coherence at n=3" (fun () ->
        check_both "invalidate" Invalidate.system
          ~rv_inv:Invalidate.rv_invariants ~as_inv:Invalidate.async_invariants
          [ 3 ]);
    case "lock server mutual exclusion, both levels" (fun () ->
        check_both "lock" Lock_server.system ~rv_inv:Lock_server.rv_invariants
          ~as_inv:Lock_server.async_invariants [ 1; 2; 3 ]);
    case "hand-optimized migratory keeps coherence" (fun () ->
        List.iter
          (fun n ->
            let prog = Migratory_hand.prog ~n () in
            assert_complete "hand"
              (explore_async
                 ~invariants:(Migratory_hand.async_invariants prog)
                 prog))
          [ 1; 2; 3 ]);
    case "invalidate rendezvous counts are stable" (fun () ->
        let counts =
          List.map
            (fun n -> (explore_rv (compile ~n Invalidate.system)).states)
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int))
          "invalidate rv" Expected_counts.invalidate_rv counts;
        let counts =
          List.map
            (fun n -> (explore_async (compile ~n Invalidate.system)).states)
            [ 1; 2 ]
        in
        Alcotest.(check (list int))
          "invalidate async" Expected_counts.invalidate_as counts);
    case "lock counts are stable" (fun () ->
        let counts =
          List.map
            (fun n -> (explore_rv (compile ~n Lock_server.system)).states)
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int)) "lock rv" Expected_counts.lock_rv counts;
        let counts =
          List.map
            (fun n -> (explore_async (compile ~n Lock_server.system)).states)
            [ 1; 2; 3 ]
        in
        Alcotest.(check (list int)) "lock async" Expected_counts.lock_as counts);
    case "barrier synchronization, both levels" (fun () ->
        check_both "barrier" Barrier.system ~rv_inv:Barrier.rv_invariants
          ~as_inv:Barrier.async_invariants [ 1; 2; 3 ]);
    case "barrier uses the generic scheme (no pairs)" (fun () ->
        let r = Reqrep.analyze Barrier.system in
        checkb "no pairs" true (r.pairs = []);
        checkb "arrive rejected with a reason" true
          (List.mem_assoc "arrive" r.rejected));
    case "barrier Eq. 1" (fun () ->
        let prog = compile ~n:2 Barrier.system in
        let v =
          Ccr_refine.Absmap.check_eq1 prog Ccr_refine.Async.{ k = 2 }
        in
        checkb "ok" true v.ok);
    case "mesi coherence, both levels" (fun () ->
        check_both "mesi" Mesi.system ~rv_inv:Mesi.rv_invariants
          ~as_inv:Mesi.async_invariants [ 1; 2 ]);
    case "mesi finds four request/reply pairs" (fun () ->
        let r = Reqrep.analyze Mesi.system in
        let names =
          List.map (fun (p : Reqrep.pair) -> (p.req, p.repl)) r.pairs
          |> List.sort compare
        in
        checkb "pairs" true
          (names
          = [
              ("down", "dAck"); ("inv", "ID"); ("reqM", "grM");
              ("reqS", "grS");
            ]));
    case "mesi: the silent upgrade is reachable and message-free" (fun () ->
        (* find a state with a remote in M while the home never saw a
           reqM or an invalidation — it got there from E by a tau *)
        let prog = compile ~n:2 Mesi.system in
        let cfg = Ccr_refine.Async.{ k = 2 } in
        let seen = Hashtbl.create 64 in
        let q = Queue.create () in
        let found = ref false in
        let push st =
          let key = Ccr_refine.Async.encode st in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            Queue.push st q
          end
        in
        push (Ccr_refine.Async.initial prog cfg);
        while not (Queue.is_empty q) do
          let st = Queue.pop q in
          List.iter
            (fun ((l : Ccr_refine.Async.label), st') ->
              if
                l.rule = Ccr_refine.Async.R_tau && l.subject = "write_hit"
              then begin
                found := true;
                (* no message was emitted by the upgrade *)
                checki "in-flight unchanged"
                  (Ccr_refine.Async.messages_in_flight st)
                  (Ccr_refine.Async.messages_in_flight st')
              end;
              push st')
            (Ccr_refine.Async.successors prog cfg st)
        done;
        checkb "upgrade reachable" true !found);
    case "write-update coherence, both levels" (fun () ->
        check_both "write-update" Write_update.system
          ~rv_inv:Write_update.rv_invariants
          ~as_inv:Write_update.async_invariants [ 1; 2 ]);
    case "write-update: concurrent writers serialize" (fun () ->
        (* both remotes write from S; the deferred-writer set must admit
           both and the system must converge (no deadlock is already part
           of explore); additionally, a state with both writers pending
           must be reachable *)
        let prog = compile ~n:2 Write_update.system in
        let cfg = Ccr_refine.Async.{ k = 2 } in
        let seen = Hashtbl.create 64 in
        let q = Queue.create () in
        let found = ref false in
        let pend = Prog.var_index prog.home "pend" in
        let updating =
          Props.home_states prog [ "Upd"; "UW"; "UD"; "WAck"; "UpdOrAck" ]
        in
        let push st =
          let key = Ccr_refine.Async.encode st in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            (match st.Ccr_refine.Async.h.h_env.(pend) with
            | Value.Vset m when m <> 0 ->
              if
                Value.set_cardinal (Value.Vset m)
                + (if Props.as_home_in updating st then 1 else 0)
                >= 2
              then found := true
            | _ -> ());
            Queue.push st q
          end
        in
        push (Ccr_refine.Async.initial prog cfg);
        while not (Queue.is_empty q) do
          let st = Queue.pop q in
          List.iter (fun (_, s) -> push s) (Ccr_refine.Async.successors prog cfg st)
        done;
        checkb "two writes in flight reachable" true !found);
    case "mesi and write-update Eq. 1" (fun () ->
        List.iter
          (fun sys ->
            let prog = compile ~n:2 sys in
            let v =
              Ccr_refine.Absmap.check_eq1 prog Ccr_refine.Async.{ k = 2 }
            in
            checkb "ok" true v.ok)
          [ Mesi.system; Write_update.system ]);
    case "registry lists every protocol consistently" (fun () ->
        checkb "nonempty" true (List.length Registry.all >= 6);
        List.iter
          (fun (e : Registry.t) ->
            checkb (e.name ^ " findable") true
              (match Registry.find e.name with
              | Some e' -> e'.Registry.name = e.name
              | None -> false);
            let prog = e.instantiate ~reqrep:true ~n:2 in
            checki (e.name ^ " instantiated at n") 2 prog.Prog.n;
            (* async invariants must at least run *)
            let r =
              explore_async ~invariants:(e.async_invariants prog)
                ~max_states:50_000 prog
            in
            checkb (e.name ^ " async clean") true
              (match r.outcome with
              | Ccr_modelcheck.Explore.Complete
              | Ccr_modelcheck.Explore.Limit _ ->
                true
              | _ -> false);
            match e.system with
            | None -> ()
            | Some sys -> (
              match Validate.check sys with
              | Ok _ -> ()
              | Error _ -> Alcotest.failf "%s fails validation" e.name))
          Registry.all;
        checkb "unknown not found" true (Option.is_none (Registry.find "nope")));
    case "a broken invariant is caught with a trace" (fun () ->
        (* sanity-check the harness itself: an impossible invariant must
           fail fast and carry a counterexample *)
        let prog = compile ~n:2 (Migratory.system ()) in
        let r =
          explore_async
            ~invariants:[ ("bogus", fun st -> st.Ccr_refine.Async.h.h_buf = []) ]
            prog
        in
        match (r.outcome, r.trace) with
        | Ccr_modelcheck.Explore.Violation { invariant = "bogus"; state }, Some _
          ->
          checkb "witness has a buffered request" true
            (state.Ccr_refine.Async.h.h_buf <> [])
        | _ -> Alcotest.fail "expected a bogus-invariant violation");
    case "invalidate can actually share" (fun () ->
        (* reachability sanity: two simultaneous sharers exist at n=2 *)
        let prog = compile ~n:2 Invalidate.system in
        let found = ref false in
        let seen = Hashtbl.create 64 in
        let q = Queue.create () in
        let sharer = Props.remote_states prog [ "S" ] in
        let push st =
          let key = Ccr_semantics.Rendezvous.encode st in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            if Props.rv_remotes_in sharer st = 2 then found := true;
            Queue.push st q
          end
        in
        push (Ccr_semantics.Rendezvous.initial prog);
        while not (Queue.is_empty q) do
          let st = Queue.pop q in
          List.iter
            (fun (_, s) -> push s)
            (Ccr_semantics.Rendezvous.successors prog st)
        done;
        checkb "two sharers reachable" true !found);
    case "migratory-data: foreign data reaches a reader" (fun () ->
        (* the line's value written by r1 must be observable at r0 *)
        let prog = compile ~n:2 (Migratory.system ~with_data:true ()) in
        let cfg = Ccr_refine.Async.{ k = 2 } in
        let found = ref false in
        let seen = Hashtbl.create 64 in
        let q = Queue.create () in
        let d = Prog.var_index prog.remote "d" in
        let holding = Props.remote_states prog [ "V" ] in
        let push st =
          let key = Ccr_refine.Async.encode st in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            if
              Props.as_remote_in holding st 0
              && Value.equal st.Ccr_refine.Async.r.(0).r_env.(d) (Value.Vrid 1)
            then found := true;
            Queue.push st q
          end
        in
        push (Ccr_refine.Async.initial prog cfg);
        while not (Queue.is_empty q) do
          let st = Queue.pop q in
          List.iter
            (fun (_, s) -> push s)
            (Ccr_refine.Async.successors prog cfg st)
        done;
        checkb "r0 sees r1's write" true !found);
    case "invariant builders refuse unknown names" (fun () ->
        let prog = compile ~n:2 Invalidate.system in
        let refusal what f =
          match f () with
          | _ -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument msg -> msg
        in
        (* a misspelled control state would make an invariant vacuous *)
        checks "state typo"
          "Props: remote process \"remote\" has no control state \"Ss\""
          (refusal "state typo" (fun () -> Props.remote_states prog [ "S"; "Ss" ]));
        checks "home state typo"
          "Props: home process \"home\" has no control state \"f\""
          (refusal "home state typo" (fun () -> Props.home_states prog [ "f" ]));
        (* a misspelled variable must not surface as a bare Not_found *)
        checks "variable typo"
          "Props: home process \"home\" has no variable \"shh\""
          (refusal "variable typo" (fun () -> Props.home_var prog "shh"));
        checks "remote variable typo"
          "Props: remote process \"remote\" has no variable \"sh\""
          (refusal "remote variable typo" (fun () -> Props.remote_var prog "sh"));
        (* the builders resolve every name, in order, before returning:
           invalidate's invariants over the lock server's program first
           name the writer state "M", which the lock's remote lacks *)
        let lock = compile ~n:2 Lock_server.system in
        List.iter
          (fun (what, build) ->
            let msg = refusal what build in
            checkb (what ^ " names the side and the state") true
              (contains_sub ~sub:"remote process" msg
              && contains_sub ~sub:"\"M\"" msg))
          [
            ("rv builder", fun () -> ignore (Invalidate.rv_invariants lock));
            ("async builder", fun () -> ignore (Invalidate.async_invariants lock));
          ];
        (* a check with a typo'd invariant is refused with the name, before
           any exploration *)
        let entry =
          match Registry.find "invalidate" with
          | Some e -> e
          | None -> Alcotest.fail "invalidate not registered"
        in
        let typo =
          {
            entry with
            Registry.async_invariants =
              (fun prog ->
                let sh = Props.home_var prog "shh" in
                [ ("typo", fun st -> Props.as_home_var sh st <> Value.Vunit) ]);
          }
        in
        match
          Ccr_serve.Api.check_entry typo
            { Ccr_serve.Api.default with n = 2; level = `Async }
        with
        | Ok _ -> Alcotest.fail "a typo'd invariant was checked"
        | Error msg ->
          checkb ("refusal names the variable: " ^ msg) true
            (contains_sub ~sub:"Props: home process" msg
            && contains_sub ~sub:"no variable" msg
            && contains_sub ~sub:"shh" msg));
    case "a refused check reads as plain text, not exception syntax"
      (fun () ->
        let entry = Registry.find "invalidate" |> Option.get in
        let typo =
          {
            entry with
            Registry.async_invariants =
              (fun prog ->
                let sh = Props.home_var prog "shh" in
                [ ("typo", fun st -> Props.as_home_var sh st <> Value.Vunit) ]);
          }
        in
        (match
           Ccr_serve.Api.check_entry typo
             { Ccr_serve.Api.default with n = 2; level = `Async }
         with
        | Ok _ -> Alcotest.fail "a typo'd invariant was checked"
        | Error msg ->
          checks "refusal"
            "Props: home process \"home\" has no variable \"shh\"" msg;
          checkb "no exception constructor" false
            (String.starts_with ~prefix:"Invalid_argument(" msg);
          checkb "no escaped quotes" false (contains_sub ~sub:"\\\"" msg));
        checks "failure" "no such thing"
          (Ccr_serve.Api.refusal (Failure "no such thing"));
        checks "other exceptions" "Not_found"
          (Ccr_serve.Api.refusal Not_found));
  ]

let suite = ("protocols", tests)
