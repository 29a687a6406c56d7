open Ccr_core

type pstate = { ctl : int; env : Value.t array }

type state = { h : pstate; r : pstate array }

type proc_id = Ph | Pr of int

type label =
  | L_tau of proc_id * string
  | L_rendezvous of {
      active : proc_id;
      passive : proc_id;
      msg : string;
      payload : Value.t list;
    }

let initial (prog : Prog.t) =
  {
    h = { ctl = prog.home.p_init; env = Array.copy prog.home.p_init_env };
    r =
      Array.init prog.n (fun _ ->
          { ctl = prog.remote.p_init; env = Array.copy prog.remote.p_init_env });
  }

let with_home st h = { st with h }
let with_remote st i r = { st with r = (let a = Array.copy st.r in a.(i) <- r; a) }

(* Tau transitions of one process. *)
let taus ~self (proc : Prog.proc) (ps : pstate) =
  let cstate = proc.p_states.(ps.ctl) in
  Array.to_list cstate.cs_guards
  |> List.concat_map (fun (g : Prog.cguard) ->
         match g.cg_action with
         | Prog.C_tau l ->
           Prog.guard_instances ~self ps.env g ~extra:[]
           |> List.map (fun scratch ->
                  let env' = Prog.complete ~self scratch g in
                  (l, { ctl = g.cg_target; env = env' }))
         | _ -> [])

(* Matches of an active send (payload already evaluated) against the
   passive peer's current state. *)
let passive_matches ~self (proc : Prog.proc) (ps : pstate) ~from_home ~sender
    ~msg ~payload =
  let cstate = proc.p_states.(ps.ctl) in
  Array.to_list cstate.cs_guards
  |> List.concat_map (fun (g : Prog.cguard) ->
         let try_with extra ~filter =
           Prog.guard_instances ~self ps.env g ~extra
           |> List.filter filter
           |> List.map (fun scratch ->
                  let env' = Prog.complete ~self scratch g in
                  { ctl = g.cg_target; env = env' })
         in
         match g.cg_action with
         | Prog.C_recv_home (m, slots) when from_home && m = msg ->
           try_with (List.combine slots payload) ~filter:(fun _ -> true)
         | Prog.C_recv_any (binder, m, slots) when (not from_home) && m = msg
           ->
           try_with
             ((binder, Value.Vrid sender) :: List.combine slots payload)
             ~filter:(fun _ -> true)
         | Prog.C_recv_from (e, m, slots) when (not from_home) && m = msg ->
           try_with (List.combine slots payload) ~filter:(fun scratch ->
               match Prog.eval ~env:scratch ~self e with
               | Value.Vrid r -> r = sender
               | _ -> false)
         | _ -> [])

let successors (prog : Prog.t) (st : state) =
  let acc = ref [] in
  let push x = acc := x :: !acc in
  (* home taus *)
  List.iter
    (fun (l, h') -> push (L_tau (Ph, l), with_home st h'))
    (taus ~self:None prog.home st.h);
  (* remote taus *)
  Array.iteri
    (fun i ri ->
      List.iter
        (fun (l, r') -> push (L_tau (Pr i, l), with_remote st i r'))
        (taus ~self:(Some i) prog.remote ri))
    st.r;
  (* home-active rendezvous *)
  let hstate = prog.home.p_states.(st.h.ctl) in
  Array.iter
    (fun (g : Prog.cguard) ->
      match g.cg_action with
      | Prog.C_send_remote (dst, msg, args) ->
        Prog.guard_instances ~self:None st.h.env g ~extra:[]
        |> List.iter (fun scratch ->
               match Prog.eval ~env:scratch ~self:None dst with
               | Value.Vrid j when j >= 0 && j < prog.n ->
                 let payload =
                   List.map (Prog.eval ~env:scratch ~self:None) args
                 in
                 let h' =
                   {
                     ctl = g.cg_target;
                     env = Prog.complete ~self:None scratch g;
                   }
                 in
                 passive_matches ~self:(Some j) prog.remote st.r.(j)
                   ~from_home:true ~sender:(-1) ~msg ~payload
                 |> List.iter (fun r' ->
                        push
                          ( L_rendezvous
                              { active = Ph; passive = Pr j; msg; payload },
                            with_remote (with_home st h') j r' ))
               | _ -> ())
      | _ -> ())
    hstate.cs_guards;
  (* remote-active rendezvous *)
  Array.iteri
    (fun j rj ->
      let rstate = prog.remote.p_states.(rj.ctl) in
      Array.iter
        (fun (g : Prog.cguard) ->
          match g.cg_action with
          | Prog.C_send_home (msg, args) ->
            Prog.guard_instances ~self:(Some j) rj.env g ~extra:[]
            |> List.iter (fun scratch ->
                   let payload =
                     List.map (Prog.eval ~env:scratch ~self:(Some j)) args
                   in
                   let r' =
                     {
                       ctl = g.cg_target;
                       env = Prog.complete ~self:(Some j) scratch g;
                     }
                   in
                   passive_matches ~self:None prog.home st.h ~from_home:false
                     ~sender:j ~msg ~payload
                   |> List.iter (fun h' ->
                          push
                            ( L_rendezvous
                                { active = Pr j; passive = Ph; msg; payload },
                              with_remote (with_home st h') j r' )))
          | _ -> ())
        rstate.cs_guards)
    st.r;
  List.rev !acc

(* [encode] runs once per discovered state on the model checker's hot
   path: reuse a scratch buffer per domain instead of allocating one per
   state.  Domain-local (not global) because the parallel engine calls
   [encode] concurrently from several domains. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 64)

let encode (st : state) =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  let pstate ps =
    Value.encode_int buf ps.ctl;
    Array.iter (Value.encode buf) ps.env
  in
  pstate st.h;
  Array.iter pstate st.r;
  Buffer.contents buf

(* The inverse of [encode], field for field; env lengths come from the
   program. *)
let dec_pstate c (proc : Prog.proc) =
  let p = c.Value.pos in
  let ctl = Value.decode_int c in
  if ctl < 0 || ctl >= Array.length proc.p_states then
    Value.refuse c p (Printf.sprintf "control state %d out of range" ctl);
  { ctl; env = Value.decode_values c (Array.length proc.p_init_env) }

let decode_from (prog : Prog.t) c =
  let h = dec_pstate c prog.home in
  let r = Array.make prog.n h in
  for i = 0 to prog.n - 1 do
    r.(i) <- dec_pstate c prog.remote
  done;
  { h; r }

let decode (prog : Prog.t) key =
  let c = Value.cursor ~who:"Rendezvous.decode" key in
  let st = decode_from prog c in
  Value.decode_end c;
  st

(* Byte-identical to [encode (st with remotes permuted by p)]: slot [j] of
   the permuted state is slot [inv.(j)] of [st], and every rid-valued datum
   is renamed through [p].  Used by fast canonicalization to score a
   candidate permutation without building the permuted state. *)
let encode_perm ~p ~inv (st : state) =
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  let pstate ps =
    Value.encode_int buf ps.ctl;
    Array.iter (Value.encode_perm buf p) ps.env
  in
  pstate st.h;
  let n = Array.length st.r in
  for j = 0 to n - 1 do
    pstate st.r.(inv.(j))
  done;
  Buffer.contents buf

let pp_proc_id ppf = function
  | Ph -> Fmt.string ppf "home"
  | Pr i -> Fmt.pf ppf "r%d" i

let pp_label ppf = function
  | L_tau (p, l) -> Fmt.pf ppf "%a: tau %s" pp_proc_id p l
  | L_rendezvous { active; passive; msg; payload } ->
    Fmt.pf ppf "%a -> %a: %s(%a)" pp_proc_id active pp_proc_id passive msg
      Fmt.(list ~sep:comma Value.pp)
      payload

let pp_pstate (proc : Prog.proc) ppf (ps : pstate) =
  Fmt.pf ppf "%s" proc.p_states.(ps.ctl).cs_name;
  Array.iteri
    (fun i v ->
      if proc.p_domains.(i) <> Value.Dunit then
        Fmt.pf ppf " %s=%a" proc.p_var_names.(i) Value.pp v)
    ps.env

let pp_state (prog : Prog.t) ppf (st : state) =
  Fmt.pf ppf "@[<v>home: %a@,%a@]" (pp_pstate prog.home) st.h
    Fmt.(
      iter_bindings
        (fun f a -> Array.iteri (fun i x -> f i x) a)
        (fun ppf (i, ps) ->
          Fmt.pf ppf "r%d:   %a" i (pp_pstate prog.remote) ps))
    st.r
