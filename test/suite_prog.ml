open Ccr_core
open Test_util

(* A tiny compiled process to exercise guard_instances/complete directly:
   two rid variables, one set variable. *)
let prog_for_guards =
  let open Dsl in
  let home =
    process "h"
      ~vars:
        [
          ("a", Value.Drid); ("b", Value.Drid); ("s", Value.Dset);
          ("t", Value.Drid);
        ]
      ~init:"U"
      [
        state "U" [ recv_any "t" "m" [] ~goto:"G" ];
        state "G"
          [
            send_to (v "t") "g" []
              ~choose:[ ("a", v "s"); ("b", v "s") ]
              ~cond:(not_ (v "a" ==~ v "b"))
              ~goto:"U";
          ];
      ]
  in
  let remote =
    process "r" ~vars:[] ~init:"T"
      [
        state "T" [ send_home "m" [] ~goto:"W" ];
        state "W" [ recv_home "g" [] ~goto:"T" ];
      ]
  in
  compile ~n:4 (system "guards" ~home ~remote)

let tests =
  [
    case "guard_instances expands chooses as a product with conditions"
      (fun () ->
        let proc = prog_for_guards.Prog.home in
        let gstate = proc.p_states.(Prog.state_index proc "G") in
        let g = gstate.cs_guards.(0) in
        let env = Array.copy proc.p_init_env in
        env.(Prog.var_index proc "s") <- Value.set_of_list [ 0; 1; 2 ];
        (* 3 x 3 bindings minus the 3 diagonal ones *)
        let insts = Prog.guard_instances ~self:None env g ~extra:[] in
        checki "off-diagonal pairs" 6 (List.length insts);
        List.iter
          (fun scratch ->
            checkb "a <> b" true
              (not
                 (Value.equal
                    scratch.(Prog.var_index proc "a")
                    scratch.(Prog.var_index proc "b"))))
          insts);
    case "guard_instances on an empty set yields nothing" (fun () ->
        let proc = prog_for_guards.Prog.home in
        let gstate = proc.p_states.(Prog.state_index proc "G") in
        let g = gstate.cs_guards.(0) in
        let env = Array.copy proc.p_init_env in
        checki "none" 0
          (List.length (Prog.guard_instances ~self:None env g ~extra:[])));
    case "extra bindings are visible to conditions" (fun () ->
        let proc = prog_for_guards.Prog.home in
        let ustate = proc.p_states.(Prog.state_index proc "U") in
        let g = ustate.cs_guards.(0) in
        let env = Array.copy proc.p_init_env in
        let t = Prog.var_index proc "t" in
        let insts =
          Prog.guard_instances ~self:None env g ~extra:[ (t, Value.Vrid 3) ]
        in
        checki "one" 1 (List.length insts);
        checkb "bound" true
          (Value.equal (List.hd insts).(t) (Value.Vrid 3)));
    case "complete performs simultaneous assignment" (fun () ->
        (* swap two variables: x, y := y, x must not sequence *)
        let open Dsl in
        let sys =
          system "swap"
            ~home:
              (process "h"
                 ~vars:[ ("x", Value.Drid); ("y", Value.Drid); ("c", Value.Drid) ]
                 ~init:"U"
                 [
                   state "U"
                     [
                       recv_any "c" "m" []
                         ~assigns:[ ("x", v "y"); ("y", v "x") ]
                         ~goto:"U";
                     ];
                 ])
            ~remote:
              (process "r" ~vars:[] ~init:"T"
                 [
                   state "T" [ send_home "m" [] ~goto:"W" ];
                   state "W" [ recv_home "never" [] ~goto:"T" ];
                 ])
        in
        (* "never" is never sent; direction consistency is satisfied by
           declaring it home->remote nowhere... use validate bypass: the
           system is valid because never is only received *)
        let prog = Link.compile ~n:3 sys in
        let proc = prog.Prog.home in
        let g = proc.p_states.(Prog.state_index proc "U").cs_guards.(0) in
        let env = Array.copy proc.p_init_env in
        env.(Prog.var_index proc "x") <- Value.Vrid 1;
        env.(Prog.var_index proc "y") <- Value.Vrid 2;
        let scratch =
          List.hd
            (Prog.guard_instances ~self:None env g
               ~extra:[ (Prog.var_index proc "c", Value.Vrid 0) ])
        in
        let env' = Prog.complete ~self:None scratch g in
        checkb "swapped x" true
          (Value.equal env'.(Prog.var_index proc "x") (Value.Vrid 2));
        checkb "swapped y" true
          (Value.equal env'.(Prog.var_index proc "y") (Value.Vrid 1)));
    case "eval resolves Full_set at link time" (fun () ->
        let prog = compile ~n:3 Ccr_protocols.Barrier.system in
        (* the collect state's full-set condition compiled to a constant;
           check by driving the rendezvous semantics to the full set *)
        let open Ccr_semantics in
        let st = Rendezvous.initial prog in
        let arrive i st =
          let st =
            match
              List.find_opt
                (fun (l, _) ->
                  match l with
                  | Rendezvous.L_tau (Rendezvous.Pr j, "work") -> j = i
                  | _ -> false)
                (Rendezvous.successors prog st)
            with
            | Some (_, s) -> s
            | None -> Alcotest.fail "no work tau"
          in
          match
            List.find_opt
              (fun (l, _) ->
                match l with
                | Rendezvous.L_rendezvous { active = Rendezvous.Pr j; msg = "arrive"; _ }
                  ->
                  j = i
                | _ -> false)
              (Rendezvous.successors prog st)
          with
          | Some (_, s) -> s
          | None -> Alcotest.fail "no arrive"
        in
        let st = arrive 0 st in
        let st = arrive 1 st in
        checkb "still collecting" true
          (Ccr_protocols.Props.(rv_home_in (home_states prog [ "C" ])) st);
        let st = arrive 2 st in
        checkb "release phase" true
          (Ccr_protocols.Props.(rv_home_in (home_states prog [ "R" ])) st));
    case "wire encoding is injective over message samples" (fun () ->
        let samples =
          [
            Ccr_refine.Wire.Ack;
            Ccr_refine.Wire.Nack;
            Ccr_refine.Wire.Req { m_name = "a"; m_payload = [] };
            Ccr_refine.Wire.Req { m_name = "b"; m_payload = [] };
            Ccr_refine.Wire.Req { m_name = "a"; m_payload = [ Value.Vrid 0 ] };
            Ccr_refine.Wire.Req { m_name = "a"; m_payload = [ Value.Vrid 1 ] };
            Ccr_refine.Wire.Req
              { m_name = "a"; m_payload = [ Value.Vint 0; Value.Vbool true ] };
            Ccr_refine.Wire.Req { m_name = "ab"; m_payload = [] };
          ]
        in
        let enc w =
          let b = Buffer.create 16 in
          Ccr_refine.Wire.encode b w;
          Buffer.contents b
        in
        checki "distinct" (List.length samples)
          (List.length
             (List.sort_uniq String.compare (List.map enc samples))));
    case "pp_caction renders CSP notation" (fun () ->
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let proc = prog.Prog.home in
        let g = proc.p_states.(Prog.state_index proc "I1").cs_guards.(0) in
        checks "inv send" "r(o)!inv"
          (Fmt.str "%a" (Prog.pp_caction proc) g.Prog.cg_action));
    qcase ~count:100 "value encodings never collide with int encodings"
      QCheck2.Gen.(pair (int_bound 1000) (int_bound 62))
      (fun (i, r) ->
        let b1 = Buffer.create 8 in
        Value.encode b1 (Value.Vint i);
        let b2 = Buffer.create 8 in
        Value.encode b2 (Value.Vrid r);
        Buffer.contents b1 <> Buffer.contents b2);
  ]

let suite = ("prog", tests)
