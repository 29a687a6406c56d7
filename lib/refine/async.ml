open Ccr_core

type config = { k : int }

type hmode =
  | Hcomm
  | Htrans of {
      guard : int;
      peer : int;
      scratch : Value.t array;
      await : [ `Ack | `Repl of string ];
    }

type home = {
  h_ctl : int;
  h_env : Value.t array;
  h_mode : hmode;
  h_rot : int;
  h_buf : (int * Wire.msg) list;
}

type rmode =
  | Rcomm
  | Rtrans of { guard : int; scratch : Value.t array }
  | Rwait of { guard : int; scratch : Value.t array; repl : string }

type remote = {
  r_ctl : int;
  r_env : Value.t array;
  r_mode : rmode;
  r_buf : Wire.msg option;
}

type state = {
  h : home;
  r : remote array;
  to_h : Wire.t list array;
  to_r : Wire.t list array;
}

type rule_id =
  | R_C1
  | R_C2
  | R_C3_ack
  | R_C3_silent
  | R_C3_nack
  | R_T1
  | R_T2
  | R_T3
  | R_tau
  | R_reply_send
  | R_repl_recv
  | R_deliver
  | H_C1
  | H_C1_silent
  | H_C2
  | H_T1
  | H_T1_repl
  | H_T2
  | H_T3
  | H_T4
  | H_T5
  | H_T6
  | H_tau
  | H_reply_send
  | H_admit
  | H_admit_progress
  | H_nack_full

type label = { rule : rule_id; actor : int; subject : string }

exception Protocol_error of string

let proto_error fmt = Fmt.kstr (fun s -> raise (Protocol_error s)) fmt

let all_rules =
  [
    R_C1; R_C2; R_C3_ack; R_C3_silent; R_C3_nack; R_T1; R_T2; R_T3; R_tau;
    R_reply_send; R_repl_recv; R_deliver; H_C1; H_C1_silent; H_C2; H_T1;
    H_T1_repl; H_T2; H_T3; H_T4; H_T5; H_T6; H_tau; H_reply_send; H_admit;
    H_admit_progress; H_nack_full;
  ]

let rule_name = function
  | R_C1 -> "R-C1"
  | R_C2 -> "R-C2"
  | R_C3_ack -> "R-C3-ack"
  | R_C3_silent -> "R-C3-silent"
  | R_C3_nack -> "R-C3-nack"
  | R_T1 -> "R-T1"
  | R_T2 -> "R-T2"
  | R_T3 -> "R-T3"
  | R_tau -> "R-tau"
  | R_reply_send -> "R-reply-send"
  | R_repl_recv -> "R-repl-recv"
  | R_deliver -> "R-deliver"
  | H_C1 -> "H-C1"
  | H_C1_silent -> "H-C1-silent"
  | H_C2 -> "H-C2"
  | H_T1 -> "H-T1"
  | H_T1_repl -> "H-T1-repl"
  | H_T2 -> "H-T2"
  | H_T3 -> "H-T3"
  | H_T4 -> "H-T4"
  | H_T5 -> "H-T5"
  | H_T6 -> "H-T6"
  | H_tau -> "H-tau"
  | H_reply_send -> "H-reply-send"
  | H_admit -> "H-admit"
  | H_admit_progress -> "H-admit-progress"
  | H_nack_full -> "H-nack-full"

let initial_home (prog : Prog.t) =
  {
    h_ctl = prog.home.p_init;
    h_env = Array.copy prog.home.p_init_env;
    h_mode = Hcomm;
    h_rot = 0;
    h_buf = [];
  }

let initial_remote (prog : Prog.t) =
  {
    r_ctl = prog.remote.p_init;
    r_env = Array.copy prog.remote.p_init_env;
    r_mode = Rcomm;
    r_buf = None;
  }

let initial (prog : Prog.t) (cfg : config) =
  if cfg.k < 2 then
    invalid_arg
      "Async.initial: the home buffer needs k >= 2 (one progress slot plus \
       the ack reservation, paper Table 2)";
  {
    h = initial_home prog;
    r = Array.init prog.n (fun _ -> initial_remote prog);
    to_h = Array.make prog.n [];
    to_r = Array.make prog.n [];
  }

(* ---- matching a buffered request against guards ------------------------ *)

(* All ways a request [(i, m)] can complete a rendezvous in the home control
   state [ctl] under environment [env]. *)
let home_request_instances (prog : Prog.t) ~ctl ~env i (m : Wire.msg) =
  let cst = prog.home.p_states.(ctl) in
  let acc = ref [] in
  Array.iteri
    (fun gi (g : Prog.cguard) ->
      match g.cg_action with
      | Prog.C_recv_any (binder, name, slots)
        when name = m.m_name && List.length slots = List.length m.m_payload ->
        let extra = (binder, Value.Vrid i) :: List.combine slots m.m_payload in
        Prog.guard_instances ~self:None env g ~extra
        |> List.iter (fun scratch -> acc := (gi, scratch) :: !acc)
      | Prog.C_recv_from (e, name, slots)
        when name = m.m_name && List.length slots = List.length m.m_payload ->
        Prog.guard_instances ~self:None env g
          ~extra:(List.combine slots m.m_payload)
        |> List.iter (fun scratch ->
               match Prog.eval ~env:scratch ~self:None e with
               | Value.Vrid r when r = i -> acc := (gi, scratch) :: !acc
               | _ -> ())
      | _ -> ())
    cst.cs_guards;
  List.rev !acc

let home_request_satisfies prog ~ctl ~env i m =
  home_request_instances prog ~ctl ~env i m <> []

(* All ways a buffered home request can complete a rendezvous in remote
   [i]'s current state. *)
let remote_request_instances (prog : Prog.t) ~ctl ~env i (m : Wire.msg) =
  let cst = prog.remote.p_states.(ctl) in
  let acc = ref [] in
  Array.iteri
    (fun gi (g : Prog.cguard) ->
      match g.cg_action with
      | Prog.C_recv_home (name, slots)
        when name = m.m_name && List.length slots = List.length m.m_payload ->
        Prog.guard_instances ~self:(Some i) env g
          ~extra:(List.combine slots m.m_payload)
        |> List.iter (fun scratch -> acc := (gi, scratch) :: !acc)
      | _ -> ())
    cst.cs_guards;
  List.rev !acc

(* ---- node-local home transitions ---------------------------------------- *)

(* Fire-and-forget messages (hand-optimized protocols) ride free: they are
   always admitted and never counted against the k-slot buffer, and they
   cannot be evicted (their sender will not retransmit). *)
let is_ff (prog : Prog.t) (m : Wire.msg) = List.mem m.m_name prog.ff_msgs

let regular_occupancy prog buf =
  List.length (List.filter (fun (_, m) -> not (is_ff prog m)) buf)

let rotate_next (cst : Prog.cstate) rot =
  match cst.cs_sends with [] -> 0 | sends -> (rot + 1) mod List.length sends

(* Transitions the home can take on its own: taus, C1 (consume a buffered
   request) and C2 (send a request).  Each result carries the messages the
   home emits, as [(destination remote, wire)] pairs. *)
let home_local (prog : Prog.t) (cfg : config) (h : home) :
    (label * home * (int * Wire.t) list) list =
  match h.h_mode with
  | Htrans _ -> []
  | Hcomm ->
    let cst = prog.home.p_states.(h.h_ctl) in
    let acc = ref [] in
    let push l h' outs = acc := (l, h', outs) :: !acc in
    (* taus (internal states) *)
    Array.iter
      (fun (g : Prog.cguard) ->
        match g.cg_action with
        | Prog.C_tau l ->
          Prog.guard_instances ~self:None h.h_env g ~extra:[]
          |> List.iter (fun scratch ->
                 let env' = Prog.complete ~self:None scratch g in
                 push
                   { rule = H_tau; actor = -1; subject = l }
                   { h with h_ctl = g.cg_target; h_env = env'; h_rot = 0 }
                   [])
        | _ -> ())
      cst.cs_guards;
    (* C1: complete a rendezvous with a buffered request *)
    let c1 =
      List.concat
        (List.mapi
           (fun idx (i, m) ->
             home_request_instances prog ~ctl:h.h_ctl ~env:h.h_env i m
             |> List.map (fun inst -> (idx, i, m, inst)))
           h.h_buf)
    in
    List.iter
      (fun (idx, i, (m : Wire.msg), (gi, scratch)) ->
        let g = cst.cs_guards.(gi) in
        let env' = Prog.complete ~self:None scratch g in
        let buf' = List.filteri (fun j _ -> j <> idx) h.h_buf in
        let h' =
          { h with h_ctl = g.cg_target; h_env = env'; h_rot = 0; h_buf = buf' }
        in
        let silent = g.cg_ann = Prog.Rr_silent_consume in
        push
          {
            rule = (if silent then H_C1_silent else H_C1);
            actor = i;
            subject = m.m_name;
          }
          h'
          (if silent then [] else [ (i, Wire.Ack) ]))
      c1;
    (* C2: if no buffered request satisfies any guard, try the output
       guards in rotation order; the first one with a valid instance is
       taken (Table 2 rows C2 and T2). *)
    if c1 = [] then begin
      let sends = Array.of_list cst.cs_sends in
      let nsends = Array.length sends in
      let fired = ref false in
      let off = ref 0 in
      while (not !fired) && !off < nsends do
        let gi = sends.((h.h_rot + !off) mod nsends) in
        let g = cst.cs_guards.(gi) in
        (match g.cg_action with
        | Prog.C_send_remote (dst, mname, args) ->
          let is_reply = g.cg_ann = Prog.Rr_reply_send in
          let instances =
            Prog.guard_instances ~self:None h.h_env g ~extra:[]
            |> List.filter_map (fun scratch ->
                   match Prog.eval ~env:scratch ~self:None dst with
                   | Value.Vrid j when j >= 0 && j < prog.n ->
                     (* condition (c): pointless to solicit a remote whose
                        own request is pending (it is committed active) *)
                     if
                       (not is_reply)
                       && List.exists (fun (i, _) -> i = j) h.h_buf
                     then None
                     else Some (scratch, j)
                   | Value.Vrid _ -> None
                   | v ->
                     proto_error "home send target is not a remote id: %a"
                       Value.pp v)
          in
          if instances <> [] then begin
            fired := true;
            List.iter
              (fun (scratch, j) ->
                let payload =
                  List.map (Prog.eval ~env:scratch ~self:None) args
                in
                let req = Wire.Req { m_name = mname; m_payload = payload } in
                if is_reply then begin
                  (* fire-and-forget: the peer is guaranteed waiting *)
                  let env' = Prog.complete ~self:None scratch g in
                  push
                    { rule = H_reply_send; actor = j; subject = mname }
                    { h with h_ctl = g.cg_target; h_env = env'; h_rot = 0 }
                    [ (j, req) ]
                end
                else begin
                  (* reserve the ack buffer, evicting (nacking) the oldest
                     evictable buffered request if the buffer is full *)
                  let evictions, h =
                    if regular_occupancy prog h.h_buf >= cfg.k then begin
                      let rec evict_oldest = function
                        | [] -> assert false
                        | ((v, m) as e) :: rest ->
                          if is_ff prog m then
                            let outs, rest' = evict_oldest rest in
                            (outs, e :: rest')
                          else ([ (v, Wire.Nack) ], rest)
                      in
                      let outs, buf' = evict_oldest h.h_buf in
                      (outs, { h with h_buf = buf' })
                    end
                    else ([], h)
                  in
                  let await =
                    match g.cg_ann with
                    | Prog.Rr_await_repl repl -> `Repl repl
                    | _ -> `Ack
                  in
                  push
                    { rule = H_C2; actor = j; subject = mname }
                    {
                      h with
                      h_mode = Htrans { guard = gi; peer = j; scratch; await };
                    }
                    (evictions @ [ (j, req) ])
                end)
              instances
          end
        | _ -> proto_error "cs_sends points at a non-send guard");
        incr off
      done
    end;
    List.rev !acc

(* Reaction of the home to a message from remote [i].  Always consumes the
   message (the home never blocks reception: it buffers or nacks). *)
let home_recv (prog : Prog.t) (cfg : config) (h : home) i (w : Wire.t) :
    (label * home * (int * Wire.t) list) list =
  let cst = prog.home.p_states.(h.h_ctl) in
  let free = cfg.k - regular_occupancy prog h.h_buf in
  let back_to_comm () =
    { h with h_mode = Hcomm; h_rot = rotate_next cst h.h_rot }
  in
  match (w, h.h_mode) with
  | Wire.Ack, Htrans { guard; peer; scratch; await = `Ack } when peer = i ->
    let g = cst.cs_guards.(guard) in
    let env' = Prog.complete ~self:None scratch g in
    [
      ( { rule = H_T1; actor = i; subject = "" },
        { h with h_ctl = g.cg_target; h_env = env'; h_mode = Hcomm; h_rot = 0 },
        [] );
    ]
  | Wire.Ack, _ -> proto_error "home received an unexpected ack from r%d" i
  | Wire.Nack, Htrans { peer; _ } when peer = i ->
    [ ({ rule = H_T2; actor = i; subject = "" }, back_to_comm (), []) ]
  | Wire.Nack, _ -> proto_error "home received an unexpected nack from r%d" i
  | Wire.Req m, Htrans { guard; peer; scratch; await } when peer = i -> (
    match await with
    | `Repl repl when m.m_name = repl ->
      (* the reply completes both the request rendezvous and the reply
         rendezvous (§3.3) *)
      let g = cst.cs_guards.(guard) in
      let env1 = Prog.complete ~self:None scratch g in
      let ctl1 = g.cg_target in
      let insts = home_request_instances prog ~ctl:ctl1 ~env:env1 i m in
      if insts = [] then
        proto_error "home cannot consume reply %s from r%d" m.m_name i;
      List.map
        (fun (gi2, scratch2) ->
          let g2 = prog.home.p_states.(ctl1).cs_guards.(gi2) in
          let env2 = Prog.complete ~self:None scratch2 g2 in
          ( { rule = H_T1_repl; actor = i; subject = m.m_name },
            {
              h with
              h_ctl = g2.cg_target;
              h_env = env2;
              h_mode = Hcomm;
              h_rot = 0;
            },
            [] ))
        insts
    | _ ->
      (* T3: implicit nack plus a request; the reserved ack-buffer slot
         holds it *)
      if free < 1 then
        proto_error "ack-buffer reservation violated (free = %d)" free;
      let h' = { (back_to_comm ()) with h_buf = h.h_buf @ [ (i, m) ] } in
      [ ({ rule = H_T3; actor = i; subject = m.m_name }, h', []) ])
  | Wire.Req m, Htrans _ ->
    (* a foreign request while transient: rows T4/T5/T6 *)
    if is_ff prog m then
      [
        ( { rule = H_T4; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else if free > 2 then
      [
        ( { rule = H_T4; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else if
      free = 2
      && (not cst.cs_internal)
      && home_request_satisfies prog ~ctl:h.h_ctl ~env:h.h_env i m
    then
      [
        ( { rule = H_T5; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else
      [ ({ rule = H_T6; actor = i; subject = m.m_name }, h, [ (i, Wire.Nack) ]) ]
  | Wire.Req m, Hcomm ->
    (* admission outside a transient: the last free slot is the progress
       buffer and only admits a request that can complete a rendezvous in
       the current communication state *)
    if is_ff prog m then
      [
        ( { rule = H_admit; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else if free > 1 then
      [
        ( { rule = H_admit; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else if
      free = 1
      && (not cst.cs_internal)
      && home_request_satisfies prog ~ctl:h.h_ctl ~env:h.h_env i m
    then
      [
        ( { rule = H_admit_progress; actor = i; subject = m.m_name },
          { h with h_buf = h.h_buf @ [ (i, m) ] },
          [] );
      ]
    else
      [
        ( { rule = H_nack_full; actor = i; subject = m.m_name },
          h,
          [ (i, Wire.Nack) ] );
      ]

(* ---- node-local remote transitions --------------------------------------- *)

(* Transitions remote [i] can take on its own: taus, the active-state send
   (rows C1/C2 of Table 1), and passive consumption of a buffered home
   request (row C3).  Outputs travel to the home. *)
let remote_local (prog : Prog.t) (r : remote) i :
    (label * remote * Wire.t list) list =
  match r.r_mode with
  | Rtrans _ | Rwait _ -> []
  | Rcomm ->
    let cst = prog.remote.p_states.(r.r_ctl) in
    let acc = ref [] in
    let push l r' outs = acc := (l, r', outs) :: !acc in
    (* taus *)
    Array.iter
      (fun (g : Prog.cguard) ->
        match g.cg_action with
        | Prog.C_tau l ->
          Prog.guard_instances ~self:(Some i) r.r_env g ~extra:[]
          |> List.iter (fun scratch ->
                 let env' = Prog.complete ~self:(Some i) scratch g in
                 push
                   { rule = R_tau; actor = i; subject = l }
                   { r with r_ctl = g.cg_target; r_env = env' }
                   [])
        | _ -> ())
      cst.cs_guards;
    (* active state: send the request (rows C1/C2 of Table 1) *)
    (match cst.cs_active with
    | Some gi -> (
      let g = cst.cs_guards.(gi) in
      match g.cg_action with
      | Prog.C_send_home (mname, args) ->
        Prog.guard_instances ~self:(Some i) r.r_env g ~extra:[]
        |> List.iter (fun scratch ->
               let payload =
                 List.map (Prog.eval ~env:scratch ~self:(Some i)) args
               in
               let req = Wire.Req { m_name = mname; m_payload = payload } in
               (* C2: a pending home request is deleted; the home learns of
                  it through the implicit-nack rule R3 *)
               let had_buffered = r.r_buf <> None in
               let r = { r with r_buf = None } in
               match g.cg_ann with
               | Prog.Rr_reply_send ->
                 let env' = Prog.complete ~self:(Some i) scratch g in
                 push
                   { rule = R_reply_send; actor = i; subject = mname }
                   { r with r_ctl = g.cg_target; r_env = env' }
                   [ req ]
               | Prog.Rr_request repl ->
                 push
                   {
                     rule = (if had_buffered then R_C2 else R_C1);
                     actor = i;
                     subject = mname;
                   }
                   { r with r_mode = Rwait { guard = gi; scratch; repl } }
                   [ req ]
               | _ ->
                 push
                   {
                     rule = (if had_buffered then R_C2 else R_C1);
                     actor = i;
                     subject = mname;
                   }
                   { r with r_mode = Rtrans { guard = gi; scratch } }
                   [ req ])
      | _ -> proto_error "cs_active points at a non-send guard")
    | None -> ());
    (* passive state with a buffered home request: row C3 *)
    (match r.r_buf with
    | Some m when cst.cs_active = None && not cst.cs_internal ->
      let insts = remote_request_instances prog ~ctl:r.r_ctl ~env:r.r_env i m in
      if insts = [] then
        push
          { rule = R_C3_nack; actor = i; subject = m.m_name }
          { r with r_buf = None }
          [ Wire.Nack ]
      else
        List.iter
          (fun (gi, scratch) ->
            let g = cst.cs_guards.(gi) in
            let env' = Prog.complete ~self:(Some i) scratch g in
            let r' =
              { r with r_ctl = g.cg_target; r_env = env'; r_buf = None }
            in
            let silent = g.cg_ann = Prog.Rr_silent_consume in
            push
              {
                rule = (if silent then R_C3_silent else R_C3_ack);
                actor = i;
                subject = m.m_name;
              }
              r'
              (if silent then [] else [ Wire.Ack ]))
          insts
    | _ -> ());
    List.rev !acc

(* Reaction of remote [i] to a message from the home.  Returns [] when the
   message cannot be consumed yet (a request while the one-slot buffer is
   full): the caller must leave it queued. *)
let remote_recv (prog : Prog.t) (r : remote) i (w : Wire.t) :
    (label * remote * Wire.t list) list =
  match (w, r.r_mode) with
  | Wire.Ack, Rtrans { guard; scratch } ->
    let g = prog.remote.p_states.(r.r_ctl).cs_guards.(guard) in
    let env' = Prog.complete ~self:(Some i) scratch g in
    [
      ( { rule = R_T1; actor = i; subject = "" },
        { r with r_ctl = g.cg_target; r_env = env'; r_mode = Rcomm },
        [] );
    ]
  | Wire.Ack, (Rcomm | Rwait _) ->
    proto_error "remote %d received an unexpected ack" i
  | Wire.Nack, (Rtrans _ | Rwait _) ->
    [ ({ rule = R_T2; actor = i; subject = "" }, { r with r_mode = Rcomm }, []) ]
  | Wire.Nack, Rcomm -> proto_error "remote %d received an unexpected nack" i
  | Wire.Req m, Rtrans _ ->
    (* row T3: the remote knows its own request implicitly nacks this one *)
    [ ({ rule = R_T3; actor = i; subject = m.m_name }, r, []) ]
  | Wire.Req m, Rwait { guard; scratch; repl } ->
    if m.m_name = repl then begin
      (* the reply: completes the request rendezvous and the reply
         rendezvous in one step *)
      let g = prog.remote.p_states.(r.r_ctl).cs_guards.(guard) in
      let env1 = Prog.complete ~self:(Some i) scratch g in
      let ctl1 = g.cg_target in
      let insts = remote_request_instances prog ~ctl:ctl1 ~env:env1 i m in
      match insts with
      | [] -> proto_error "remote %d cannot consume reply %s" i m.m_name
      | insts ->
        List.map
          (fun (gi2, scratch2) ->
            let g2 = prog.remote.p_states.(ctl1).cs_guards.(gi2) in
            let env2 = Prog.complete ~self:(Some i) scratch2 g2 in
            ( { rule = R_repl_recv; actor = i; subject = m.m_name },
              { r with r_ctl = g2.cg_target; r_env = env2; r_mode = Rcomm },
              [] ))
          insts
    end
    else [ ({ rule = R_T3; actor = i; subject = m.m_name }, r, []) ]
  | Wire.Req m, Rcomm -> (
    match r.r_buf with
    | None ->
      [
        ( { rule = R_deliver; actor = i; subject = m.m_name },
          { r with r_buf = Some m },
          [] );
      ]
    | Some _ -> [])

(* ---- global semantics ----------------------------------------------------- *)

(* Copy on write: a successor shares every record and channel list it
   leaves alone and copies any array it changes.  Never write into [st]'s
   arrays or environments here — [encode] copies the bytes of components
   physically shared with the decoded parent, so an in-place write would
   give a successor the parent's stale bytes. *)
let set_arr a i x =
  let a' = Array.copy a in
  a'.(i) <- x;
  a'

let set_home st h = { st with h }
let set_remote st i r = { st with r = set_arr st.r i r }

let send_all_to_r st outs =
  List.fold_left
    (fun st (j, w) ->
      { st with to_r = set_arr st.to_r j (st.to_r.(j) @ [ w ]) })
    st outs

let send_all_to_h st i outs =
  List.fold_left
    (fun st w -> { st with to_h = set_arr st.to_h i (st.to_h.(i) @ [ w ]) })
    st outs

let pop_to_h st i =
  match st.to_h.(i) with
  | [] -> invalid_arg "pop_to_h"
  | _ :: rest -> { st with to_h = set_arr st.to_h i rest }

let pop_to_r st i =
  match st.to_r.(i) with
  | [] -> invalid_arg "pop_to_r"
  | _ :: rest -> { st with to_r = set_arr st.to_r i rest }

type meter = { m_sent : Wire.t -> unit; m_buf : int -> unit }

let successors ?meter (prog : Prog.t) (cfg : config) st =
  let count_h, count_r =
    match meter with
    | None -> ((fun _ -> ()), fun _ -> ())
    | Some m ->
      m.m_buf (List.length st.h.h_buf);
      ( (fun outs -> List.iter (fun (_, w) -> m.m_sent w) outs),
        fun outs -> List.iter m.m_sent outs )
  in
  let acc = ref [] in
  let add l = acc := l :: !acc in
  List.iter
    (fun (l, h', outs) ->
      count_h outs;
      add (l, send_all_to_r (set_home st h') outs))
    (home_local prog cfg st.h);
  for i = 0 to prog.n - 1 do
    List.iter
      (fun (l, r', outs) ->
        count_r outs;
        add (l, send_all_to_h (set_remote st i r') i outs))
      (remote_local prog st.r.(i) i)
  done;
  for i = 0 to prog.n - 1 do
    (match st.to_h.(i) with
    | w :: _ ->
      List.iter
        (fun (l, h', outs) ->
          count_h outs;
          add (l, send_all_to_r (set_home (pop_to_h st i) h') outs))
        (home_recv prog cfg st.h i w)
    | [] -> ());
    match st.to_r.(i) with
    | w :: _ ->
      List.iter
        (fun (l, r', outs) ->
          count_r outs;
          add (l, send_all_to_h (set_remote (pop_to_r st i) i r') i outs))
        (remote_recv prog st.r.(i) i w)
    | [] -> ()
  done;
  List.rev !acc

let messages_in_flight st =
  Array.fold_left (fun n q -> n + List.length q) 0 st.to_h
  + Array.fold_left (fun n q -> n + List.length q) 0 st.to_r

(* Per-domain encoder state.  [buf] is the scratch buffer: [encode] runs
   once per transition on the model checker's hot path, and the shards
   call it from several domains at once.  [base] is the splice base left
   by the last [decode] on this domain: the state, the key it was read
   from and the [cuts] between its components — [cuts.(0)] where the
   state's bytes begin, [cuts.(k + 1)] where component [k] ends, the
   components ordered home, remotes, [to_h] channels, [to_r] channels.
   A base is immutable and replaced whole, so [encode] always reads a
   consistent one. *)
type base = { st : state; key : string; cuts : int array }
type scratch = { buf : Buffer.t; mutable base : base option }

let scratch =
  Domain.DLS.new_key (fun () -> { buf = Buffer.create 128; base = None })

(* Closure-free, like [Value.encode]: one [encode] per transition. *)
let enc_env buf e =
  for i = 0 to Array.length e - 1 do
    Value.encode buf (Array.unsafe_get e i)
  done

let enc_repl buf repl =
  Value.encode_int buf (String.length repl);
  Buffer.add_string buf repl

let rec enc_h_buf buf = function
  | [] -> ()
  | (i, m) :: rest ->
    Value.encode_int buf i;
    Wire.encode buf (Wire.Req m);
    enc_h_buf buf rest

let rec enc_wires buf = function
  | [] -> ()
  | w :: rest ->
    Wire.encode buf w;
    enc_wires buf rest

let enc_home buf h =
  Value.encode_int buf h.h_ctl;
  Value.encode_int buf h.h_rot;
  enc_env buf h.h_env;
  (match h.h_mode with
  | Hcomm -> Value.encode_int buf 0
  | Htrans { guard; peer; scratch; await } ->
    (match await with
    | `Ack -> Value.encode_int buf 1
    | `Repl repl ->
      Value.encode_int buf 2;
      enc_repl buf repl);
    Value.encode_int buf guard;
    Value.encode_int buf peer;
    enc_env buf scratch);
  Value.encode_int buf (List.length h.h_buf);
  enc_h_buf buf h.h_buf

let enc_remote buf r =
  Value.encode_int buf r.r_ctl;
  enc_env buf r.r_env;
  (match r.r_mode with
  | Rcomm -> Value.encode_int buf 0
  | Rtrans { guard; scratch } ->
    Value.encode_int buf 1;
    Value.encode_int buf guard;
    enc_env buf scratch
  | Rwait { guard; scratch; repl } ->
    Value.encode_int buf 2;
    Value.encode_int buf guard;
    enc_repl buf repl;
    enc_env buf scratch);
  match r.r_buf with
  | None -> Value.encode_int buf 0
  | Some m ->
    Value.encode_int buf 1;
    Wire.encode buf (Wire.Req m)

let enc_channel buf q =
  Value.encode_int buf (List.length q);
  enc_wires buf q

(* Components [xs] (numbered from [c0]) against the base's [pxs]: one
   physically the base's is left to a pending copy of the base key from
   byte [from] on ([-1]: none pending); any other flushes that copy and
   is encoded afresh.  Returns the copy still pending. *)
let splice buf b from enc xs pxs c0 =
  let from = ref from in
  for i = 0 to Array.length xs - 1 do
    let x = Array.unsafe_get xs i in
    if x == Array.unsafe_get pxs i then begin
      if !from < 0 then from := Array.unsafe_get b.cuts (c0 + i)
    end
    else begin
      if !from >= 0 then begin
        let at = Array.unsafe_get b.cuts (c0 + i) in
        Buffer.add_substring buf b.key !from (at - !from);
        from := -1
      end;
      enc buf x
    end
  done;
  !from

(* Every component of [st] that is physically the base's — [successors]
   shares the records and channel lists a transition leaves alone — is
   copied from the base key, the rest encoded: byte for byte what the
   full encoding writes, since a component's bytes depend on its value
   alone and states are never mutated.  The array lengths are checked so
   that a base from another program cannot be indexed out of bounds (a
   decoded base's three arrays all have its program's [n]). *)
let encode (st : state) =
  let e = Domain.DLS.get scratch in
  let buf = e.buf in
  Buffer.clear buf;
  let n = Array.length st.r in
  (match e.base with
  | Some b
    when Array.length b.cuts = 2 + (3 * n)
         && Array.length st.to_h = n
         && Array.length st.to_r = n ->
    let p = b.st in
    let from =
      if st.h == p.h then b.cuts.(0)
      else begin
        enc_home buf st.h;
        -1
      end
    in
    let from = splice buf b from enc_remote st.r p.r 1 in
    let from = splice buf b from enc_channel st.to_h p.to_h (1 + n) in
    let from = splice buf b from enc_channel st.to_r p.to_r (1 + (2 * n)) in
    if from >= 0 then
      Buffer.add_substring buf b.key from (b.cuts.(1 + (3 * n)) - from)
  | _ ->
    enc_home buf st.h;
    for i = 0 to n - 1 do
      enc_remote buf (Array.unsafe_get st.r i)
    done;
    for i = 0 to Array.length st.to_h - 1 do
      enc_channel buf (Array.unsafe_get st.to_h i)
    done;
    for i = 0 to Array.length st.to_r - 1 do
      enc_channel buf (Array.unsafe_get st.to_r i)
    done);
  Buffer.contents buf

(* The inverse of [encode]: the frontier of the model checker holds keys
   and decodes each one as it is expanded.  Must mirror the [encode] layout
   field for field; array lengths come from the program. *)
let dec_env c (proc : Prog.proc) =
  Value.decode_values c (Array.length proc.p_init_env)

let dec_index c bound what =
  let p = c.Value.pos in
  let i = Value.decode_int c in
  if i < 0 || i >= bound then
    Value.refuse c p (Printf.sprintf "%s %d out of range" what i);
  i

let dec_ctl c (proc : Prog.proc) =
  dec_index c (Array.length proc.p_states) "control state"

let dec_repl c = Value.decode_string c (Value.decode_count c)

let dec_req c =
  let p = c.Value.pos in
  match Wire.decode c with
  | Wire.Req m -> m
  | Wire.Ack | Wire.Nack -> Value.refuse c p "expected a request"

let rec dec_h_buf c n k =
  if k = 0 then []
  else
    let i = dec_index c n "sender" in
    let m = dec_req c in
    (i, m) :: dec_h_buf c n (k - 1)

let rec dec_channel c k =
  if k = 0 then []
  else
    let w = Wire.decode c in
    w :: dec_channel c (k - 1)

let dec_home c (prog : Prog.t) =
  let h_ctl = dec_ctl c prog.home in
  let h_rot = Value.decode_int c in
  let h_env = dec_env c prog.home in
  let p = c.Value.pos in
  let h_mode =
    match Value.decode_int c with
    | 0 -> Hcomm
    | (1 | 2) as tag ->
      let await = if tag = 1 then `Ack else `Repl (dec_repl c) in
      let guard = Value.decode_int c in
      let peer = dec_index c prog.n "peer" in
      let scratch = dec_env c prog.home in
      Htrans { guard; peer; scratch; await }
    | t -> Value.refuse c p (Printf.sprintf "bad home mode %d" t)
  in
  let h_buf = dec_h_buf c prog.n (Value.decode_count c) in
  { h_ctl; h_env; h_mode; h_rot; h_buf }

let dec_remote c (prog : Prog.t) =
  let r_ctl = dec_ctl c prog.remote in
  let r_env = dec_env c prog.remote in
  let p = c.Value.pos in
  let r_mode =
    match Value.decode_int c with
    | 0 -> Rcomm
    | 1 ->
      let guard = Value.decode_int c in
      Rtrans { guard; scratch = dec_env c prog.remote }
    | 2 ->
      let guard = Value.decode_int c in
      let repl = dec_repl c in
      Rwait { guard; scratch = dec_env c prog.remote; repl }
    | t -> Value.refuse c p (Printf.sprintf "bad remote mode %d" t)
  in
  let p = c.Value.pos in
  let r_buf =
    match Value.decode_int c with
    | 0 -> None
    | 1 -> Some (dec_req c)
    | t -> Value.refuse c p (Printf.sprintf "bad remote buffer tag %d" t)
  in
  { r_ctl; r_env; r_mode; r_buf }

let dec_channels c n cuts c0 =
  let a = Array.make n [] in
  for i = 0 to n - 1 do
    a.(i) <- dec_channel c (Value.decode_count c);
    cuts.(c0 + i + 1) <- c.Value.pos
  done;
  a

(* The fields of [encode]'s layout, from the cursor on; [decode] also
   requires the key to end there, the fault-injected decoder reads on.
   The state becomes this domain's splice base. *)
let decode_from (prog : Prog.t) c =
  let n = prog.n in
  let cuts = Array.make (2 + (3 * n)) c.Value.pos in
  let h = dec_home c prog in
  cuts.(1) <- c.Value.pos;
  let r =
    if n = 0 then [||]
    else begin
      let r = Array.make n (dec_remote c prog) in
      cuts.(2) <- c.Value.pos;
      for i = 1 to n - 1 do
        r.(i) <- dec_remote c prog;
        cuts.(i + 2) <- c.Value.pos
      done;
      r
    end
  in
  let to_h = dec_channels c n cuts (1 + n) in
  let to_r = dec_channels c n cuts (1 + (2 * n)) in
  let st = { h; r; to_h; to_r } in
  (Domain.DLS.get scratch).base <- Some { st; key = c.Value.key; cuts };
  st

let decode (prog : Prog.t) key =
  let c = Value.cursor ~who:"Async.decode" key in
  let st = decode_from prog c in
  Value.decode_end c;
  st

(* One component alone, in the bytes [encode] writes for it. *)
let component_key enc x =
  let buf = Buffer.create 32 in
  enc buf x;
  Buffer.contents buf

let home_key h = component_key enc_home h
let remote_key r = component_key enc_remote r
let channel_key q = component_key enc_channel q

let decode_component who dec key =
  let c = Value.cursor ~who key in
  let x = dec c in
  Value.decode_end c;
  x

let decode_home (prog : Prog.t) key =
  decode_component "Async.decode_home" (fun c -> dec_home c prog) key

let decode_remote (prog : Prog.t) key =
  decode_component "Async.decode_remote" (fun c -> dec_remote c prog) key

let decode_channel key =
  decode_component "Async.decode_channel"
    (fun c -> dec_channel c (Value.decode_count c))
    key

let enc_env_perm buf p e =
  for i = 0 to Array.length e - 1 do
    Value.encode_perm buf p (Array.unsafe_get e i)
  done

let rec enc_h_buf_perm buf p = function
  | [] -> ()
  | (i, m) :: rest ->
    Value.encode_int buf p.(i);
    Wire.encode_perm buf p (Wire.Req m);
    enc_h_buf_perm buf p rest

let rec enc_wires_perm buf p = function
  | [] -> ()
  | w :: rest ->
    Wire.encode_perm buf p w;
    enc_wires_perm buf p rest

let add_remote_perm buf p r =
  Value.encode_int buf r.r_ctl;
  enc_env_perm buf p r.r_env;
  (match r.r_mode with
  | Rcomm -> Value.encode_int buf 0
  | Rtrans { guard; scratch = sc } ->
    Value.encode_int buf 1;
    Value.encode_int buf guard;
    enc_env_perm buf p sc
  | Rwait { guard; scratch = sc; repl } ->
    Value.encode_int buf 2;
    Value.encode_int buf guard;
    enc_repl buf repl;
    enc_env_perm buf p sc);
  match r.r_buf with
  | None -> Value.encode_int buf 0
  | Some m ->
    Value.encode_int buf 1;
    Wire.encode_perm buf p (Wire.Req m)

let add_home_perm buf p h =
  Value.encode_int buf h.h_ctl;
  Value.encode_int buf h.h_rot;
  enc_env_perm buf p h.h_env;
  (match h.h_mode with
  | Hcomm -> Value.encode_int buf 0
  | Htrans { guard; peer; scratch = sc; await } ->
    (match await with
    | `Ack -> Value.encode_int buf 1
    | `Repl repl ->
      Value.encode_int buf 2;
      enc_repl buf repl);
    Value.encode_int buf guard;
    Value.encode_int buf p.(peer);
    enc_env_perm buf p sc);
  Value.encode_int buf (List.length h.h_buf);
  enc_h_buf_perm buf p h.h_buf

let add_channel_perm buf p q =
  Value.encode_int buf (List.length q);
  enc_wires_perm buf p q

(* Byte-identical to [encode (Symmetry.permute_async p st)]: remote slot
   [j] of the permuted state is [st]'s slot [inv.(j)] (likewise for both
   channel arrays), buffered messages keep their queue order but their
   sender id and rid-valued payloads are renamed through [p].  Must mirror
   the [encode] layout above field for field. *)
let encode_perm ~p ~inv (st : state) =
  let buf = (Domain.DLS.get scratch).buf in
  Buffer.clear buf;
  add_home_perm buf p st.h;
  for j = 0 to Array.length st.r - 1 do
    add_remote_perm buf p st.r.(inv.(j))
  done;
  for j = 0 to Array.length st.to_h - 1 do
    add_channel_perm buf p st.to_h.(inv.(j))
  done;
  for j = 0 to Array.length st.to_r - 1 do
    add_channel_perm buf p st.to_r.(inv.(j))
  done;
  Buffer.contents buf


let pp_label ppf l =
  if l.subject = "" then
    Fmt.pf ppf "%s[%s]" (rule_name l.rule)
      (if l.actor < 0 then "home" else "r" ^ string_of_int l.actor)
  else
    Fmt.pf ppf "%s[%s,%s]" (rule_name l.rule)
      (if l.actor < 0 then "home" else "r" ^ string_of_int l.actor)
      l.subject

let pp_state (prog : Prog.t) ppf st =
  let pp_env proc ppf e =
    Array.iteri
      (fun i v ->
        if proc.Prog.p_domains.(i) <> Value.Dunit then
          Fmt.pf ppf " %s=%a" proc.Prog.p_var_names.(i) Value.pp v)
      e
  in
  let pp_buf ppf buf =
    List.iter (fun (i, m) -> Fmt.pf ppf " [r%d:%s]" i m.Wire.m_name) buf
  in
  Fmt.pf ppf "@[<v>home: %s%a rot=%d%a%s@,"
    prog.home.p_states.(st.h.h_ctl).cs_name (pp_env prog.home) st.h.h_env
    st.h.h_rot pp_buf st.h.h_buf
    (match st.h.h_mode with
    | Hcomm -> ""
    | Htrans { peer; await; _ } ->
      Fmt.str " (transient -> r%d%s)" peer
        (match await with `Ack -> "" | `Repl m -> ", awaiting " ^ m));
  Array.iteri
    (fun i r ->
      Fmt.pf ppf "r%d: %s%a%s%s  ->h:%a  h->:%a@," i
        prog.remote.p_states.(r.r_ctl).cs_name (pp_env prog.remote) r.r_env
        (match r.r_mode with
        | Rcomm -> ""
        | Rtrans _ -> " (transient)"
        | Rwait { repl; _ } -> Fmt.str " (awaiting %s)" repl)
        (match r.r_buf with
        | None -> ""
        | Some m -> Fmt.str " buf=%s" m.Wire.m_name)
        Fmt.(list ~sep:sp Wire.pp)
        st.to_h.(i)
        Fmt.(list ~sep:sp Wire.pp)
        st.to_r.(i))
    st.r;
  Fmt.pf ppf "@]"
