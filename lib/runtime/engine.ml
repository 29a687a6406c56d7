open Ccr_core
open Ccr_refine
open Ccr_faults

type transport =
  | Rings of { to_h : Wire.t Ring.t array; to_r : Wire.t Ring.t array }
  | Link of Faultlink.t

(* Per-domain accounting.  The mutable fields are touched only by the
   owning domain; [d_steps]/[d_idle] are the owner's published view for
   the leader's termination checks (stale reads are fine — the final
   verdict is recomputed race-free after the joins). *)
type dacct = {
  mutable a_msgs : int;
  mutable a_reqs : int;
  mutable a_acks : int;
  mutable a_nacks : int;
  mutable a_datas : int;
  mutable a_steps : int;
  d_steps : int Atomic.t;
  d_idle : bool Atomic.t;
  batch_hist : int array;  (* Metrics log-buckets *)
  mbox_hist : int array;  (* mailbox occupancy at non-empty drains *)
}

let dacct () =
  {
    a_msgs = 0;
    a_reqs = 0;
    a_acks = 0;
    a_nacks = 0;
    a_datas = 0;
    a_steps = 0;
    d_steps = Atomic.make 0;
    d_idle = Atomic.make false;
    batch_hist = Array.make Ccr_obs.Metrics.n_buckets 0;
    mbox_hist = Array.make Ccr_obs.Metrics.n_buckets 0;
  }

let count_msg a (w : Wire.t) =
  a.a_msgs <- a.a_msgs + 1;
  match w with
  | Wire.Req m ->
    a.a_reqs <- a.a_reqs + 1;
    if m.Wire.m_payload <> [] then a.a_datas <- a.a_datas + 1
  | Wire.Ack -> a.a_acks <- a.a_acks + 1
  | Wire.Nack -> a.a_nacks <- a.a_nacks + 1

let bump hist v =
  let b = Ccr_obs.Metrics.bucket_of v in
  hist.(b) <- hist.(b) + 1

(* Every mode communicating and every channel drained. *)
let quiescent_state (st : Async.state) =
  st.Async.h.Async.h_mode = Async.Hcomm
  && Array.for_all
       (fun (r : Async.remote) -> r.Async.r_mode = Async.Rcomm)
       st.Async.r
  && Array.for_all (( = ) []) st.Async.to_h
  && Array.for_all (( = ) []) st.Async.to_r

let run ?(seed = 42) ?(deadline_s = 30.0) ?max_steps ?(domains = 1)
    ?(batch = 64) ?(ring_cap = 1024) ?metrics ?faults ?on_step ~budget
    ~invariants (prog : Prog.t) (cfg : Async.config) =
  let t0 = Unix.gettimeofday () in
  let n = prog.n in
  if on_step <> None && faults <> None then
    invalid_arg "Engine.run: tracing (on_step) requires a fault-free run";
  let batch = max 1 batch in
  let nd =
    if on_step <> None then 1 else max 1 (min domains (max 1 n))
  in
  let no_faults = Option.is_none faults in
  let mode, plan =
    match faults with
    | Some (m, p) -> (m, p)
    | None -> (Injected.Vanilla, Plan.make ~n Fault.none [])
  in
  let fcounts = Fault.zero () in
  let tr =
    match faults with
    | Some _ -> Link (Faultlink.make ~n ~mode ~plan ~counts:fcounts)
    | None ->
      Rings
        {
          to_h = Array.init n (fun _ -> Ring.create ~dummy:Wire.Ack ring_cap);
          to_r = Array.init n (fun _ -> Ring.create ~dummy:Wire.Ack ring_cap);
        }
  in
  let tbl = Mcode.compile prog in
  let hm = Mcode.home_make tbl ~k:cfg.k ~seed in
  let rms = Array.init n (fun i -> Mcode.remote_make tbl ~seed i) in
  let budgets = Array.make n budget in
  let accts = Array.init nd (fun _ -> dacct ()) in
  let completions = Array.init n (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let stop_cause = Atomic.make "deadline" in
  let halt cause =
    if Atomic.compare_and_set stop false true then Atomic.set stop_cause cause
  in
  let errors_mutex = Mutex.create () in
  let errors = ref [] in
  let record_error e =
    Mutex.lock errors_mutex;
    errors := e :: !errors;
    Mutex.unlock errors_mutex;
    halt "error";
    (* make sure a poisoned deadline-length run cannot outlive the error *)
    Atomic.set stop_cause "error";
    match tr with Link l -> Faultlink.close l | Rings _ -> ()
  in
  let tick_now () = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.) in
  let paused_now i =
    (not no_faults) && Plan.paused_at plan i (tick_now ())
  in
  let any_paused () =
    (not no_faults)
    &&
    let t = tick_now () in
    let rec go i = i < n && (Plan.paused_at plan i t || go (i + 1)) in
    go 0
  in
  (* home-buffer occupancy histogram, domain 0 only (it owns the home) *)
  let hb_occ = Array.make (cfg.k + 1) 0 in
  let record_hocc () =
    let o = min (Mcode.home_buf_len hm) cfg.k in
    hb_occ.(o) <- hb_occ.(o) + 1
  in
  let trace_home, trace_remote =
    match on_step with
    | None -> ((fun _ -> ()), fun _ _ -> ())
    | Some f ->
      ( (fun code ->
          f
            {
              Async.rule = Mcode.rule_of_code code;
              actor = Mcode.home_last_actor hm;
              subject = Mcode.home_last_subject hm;
            }),
        fun i code ->
          f
            {
              Async.rule = Mcode.rule_of_code code;
              actor = i;
              subject = Mcode.remote_last_subject rms.(i);
            } )
  in
  let count_home a code =
    a.a_steps <- a.a_steps + 1;
    if Mcode.completes code then
      Atomic.incr completions.(Mcode.home_last_actor hm);
    trace_home code
  in
  let count_remote a i code =
    a.a_steps <- a.a_steps + 1;
    if Mcode.completes code then Atomic.incr completions.(i);
    trace_remote i code
  in
  (* ---- transport-specialized node sweeps -------------------------------- *)
  (* Emission closures are built once per channel so the hot path never
     allocates a closure; [emit_rs.(i)] captures remote [i]'s owning
     domain's accounting. *)
  let hnext = ref 0 in
  let home_sweep, remote_sweep =
    match tr with
    | Rings { to_h; to_r } ->
      let a0 = accts.(0) in
      let emit_h j w =
        count_msg a0 w;
        if not (Ring.push to_r.(j) w) then
          failwith "Engine: home overran a checked ring"
      in
      let room_r j = Ring.free to_r.(j) > 0 in
      let emit_rs =
        Array.init n (fun i ->
            let a = accts.(i mod nd) in
            let rg = to_h.(i) in
            fun w ->
              count_msg a w;
              if not (Ring.push rg w) then
                failwith "Engine: remote overran a checked ring")
      in
      let home_sweep a =
        let worked = ref false in
        (* 1. drain every incoming mailbox in batches; the rotation base
           is snapshotted so each sweep still visits all n channels (a
           moving base can skip a channel every sweep and starve it) *)
        let start = !hnext in
        hnext := (start + 1) mod n;
        for off = 0 to n - 1 do
          let i = (start + off) mod n in
          let rg = to_h.(i) in
          let avail = Ring.length rg in
          if avail > 0 then begin
            bump a.mbox_hist avail;
            let out = to_r.(i) in
            let k = ref 0 in
            (* a nack may go back to the sender: require return room *)
            while
              !k < batch && (not (Ring.is_empty rg)) && Ring.free out > 0
            do
              let w = Ring.unsafe_peek rg in
              let code = Mcode.home_recv hm i w ~emit:emit_h in
              Ring.pop_drop rg;
              count_home a code;
              record_hocc ();
              incr k
            done;
            if !k > 0 then begin
              bump a.batch_hist !k;
              worked := true
            end
          end
        done;
        (* 2. a burst of local transitions (C1/C2/tau) *)
        let k = ref 0 in
        let live = ref true in
        while !k < batch && !live do
          let code = Mcode.home_local hm ~room:room_r ~emit:emit_h in
          if code >= 0 then begin
            count_home a code;
            record_hocc ();
            worked := true;
            incr k
          end
          else live := false
        done;
        !worked
      in
      let remote_sweep a i =
        let worked = ref false in
        let rg = to_r.(i) in
        let rm = rms.(i) in
        let avail = Ring.length rg in
        if avail > 0 then begin
          bump a.mbox_hist avail;
          let k = ref 0 in
          let live = ref true in
          while !k < batch && !live && not (Ring.is_empty rg) do
            let w = Ring.unsafe_peek rg in
            let code = Mcode.remote_recv rm w in
            if code = -2 then live := false (* one-slot buffer full *)
            else begin
              Ring.pop_drop rg;
              count_remote a i code;
              incr k
            end
          done;
          if !k > 0 then begin
            bump a.batch_hist !k;
            worked := true
          end
        end;
        let out = to_h.(i) in
        let emit = emit_rs.(i) in
        let k = ref 0 in
        let live = ref true in
        while !k < batch && !live do
          let at_start = Mcode.remote_at_start rm in
          if at_start && budgets.(i) <= 0 then live := false
          else begin
            let code =
              Mcode.remote_local rm ~room_h:(Ring.free out > 0) ~emit
            in
            if code >= 0 then begin
              if at_start then budgets.(i) <- budgets.(i) - 1;
              count_remote a i code;
              worked := true;
              incr k
            end
            else live := false
          end
        done;
        !worked
      in
      (home_sweep, remote_sweep)
    | Link l ->
      let a0 = accts.(0) in
      let emit_h j w =
        count_msg a0 w;
        Faultlink.send l (Fault.To_r j) w
      in
      let room_r _ = true in
      let emit_rs =
        Array.init n (fun i ->
            let a = accts.(i mod nd) in
            fun w ->
              count_msg a w;
              Faultlink.send l (Fault.To_h i) w)
      in
      let home_sweep a =
        for j = 0 to n - 1 do
          Faultlink.tick l (Fault.To_r j)
        done;
        let worked = ref false in
        let start = !hnext in
        hnext := (start + 1) mod n;
        for off = 0 to n - 1 do
          let i = (start + off) mod n in
          let avail = Faultlink.inbox_length l (Fault.To_h i) in
          if avail > 0 then bump a.mbox_hist avail;
          let k = ref 0 in
          let live = ref true in
          while !k < batch && !live do
            match Faultlink.peek l (Fault.To_h i) with
            | Some w ->
              let code = Mcode.home_recv hm i w ~emit:emit_h in
              ignore (Faultlink.pop l (Fault.To_h i));
              count_home a code;
              record_hocc ();
              incr k
            | None -> live := false
          done;
          if !k > 0 then begin
            bump a.batch_hist !k;
            worked := true
          end
        done;
        let k = ref 0 in
        let live = ref true in
        while !k < batch && !live do
          let code = Mcode.home_local hm ~room:room_r ~emit:emit_h in
          if code >= 0 then begin
            count_home a code;
            record_hocc ();
            worked := true;
            incr k
          end
          else live := false
        done;
        !worked
      in
      let remote_sweep a i =
        if paused_now i then false
        else begin
          Faultlink.tick l (Fault.To_h i);
          let worked = ref false in
          let rm = rms.(i) in
          let avail = Faultlink.inbox_length l (Fault.To_r i) in
          if avail > 0 then bump a.mbox_hist avail;
          let k = ref 0 in
          let live = ref true in
          while !k < batch && !live do
            match Faultlink.peek l (Fault.To_r i) with
            | Some w ->
              let code = Mcode.remote_recv rm w in
              if code = -2 then live := false
              else begin
                ignore (Faultlink.pop l (Fault.To_r i));
                count_remote a i code;
                incr k
              end
            | None -> live := false
          done;
          if !k > 0 then begin
            bump a.batch_hist !k;
            worked := true
          end;
          let emit = emit_rs.(i) in
          let k = ref 0 in
          let live = ref true in
          while !k < batch && !live do
            let at_start = Mcode.remote_at_start rm in
            if at_start && budgets.(i) <= 0 then live := false
            else begin
              let code = Mcode.remote_local rm ~room_h:true ~emit in
              if code >= 0 then begin
                if at_start then budgets.(i) <- budgets.(i) - 1;
                count_remote a i code;
                worked := true;
                incr k
              end
              else live := false
            end
          done;
          !worked
        end
      in
      (home_sweep, remote_sweep)
  in
  (* ---- leader termination checks ---------------------------------------- *)
  let total_steps () =
    Array.fold_left (fun acc a -> acc + Atomic.get a.d_steps) 0 accts
  in
  let transport_quiet () =
    match tr with
    | Rings { to_h; to_r } ->
      Array.for_all Ring.is_empty to_h && Array.for_all Ring.is_empty to_r
    | Link l -> Faultlink.quiet l
  in
  let all_idle () = Array.for_all (fun a -> Atomic.get a.d_idle) accts in
  let spent () = Array.for_all (fun b -> b <= 0) budgets in
  let stable = ref (-1) in
  let stable_n = ref 0 in
  let leader_check iters worked =
    if max_steps <> None || iters land 63 = 0 || not worked then
      if Unix.gettimeofday () -. t0 > deadline_s then halt "deadline"
      else begin
        (match max_steps with
        | Some cap when total_steps () >= cap -> halt "step-cap"
        | _ -> ());
        if not (Atomic.get stop) then
          if nd = 1 && no_faults then begin
            (* single domain, no timers: one full no-progress sweep is
               already proof that nothing can ever fire again *)
            if not worked then halt "stall"
          end
          else if
            (not worked)
            && all_idle ()
            && transport_quiet ()
            && (no_faults || (spent () && not (any_paused ())))
          then begin
            (* candidate exit: confirm the step count is frozen across
               repeated delayed looks before concluding *)
            let s = total_steps () in
            if s = !stable then begin
              incr stable_n;
              if !stable_n >= 3 then halt "stall" else Unix.sleepf 0.0005
            end
            else begin
              stable := s;
              stable_n := 0;
              Unix.sleepf 0.0005
            end
          end
          else begin
            stable := -1;
            stable_n := 0
          end
      end
  in
  (* ---- domain bodies ----------------------------------------------------- *)
  let domain_body d () =
    let a = accts.(d) in
    let owned =
      Array.of_list
        (List.filter (fun i -> i mod nd = d) (List.init n (fun i -> i)))
    in
    let iters = ref 0 in
    let idle_streak = ref 0 in
    (try
       while not (Atomic.get stop) do
         let worked = ref false in
         if d = 0 then begin
           try if home_sweep a then worked := true
           with Async.Protocol_error e -> record_error ("home: " ^ e)
         end;
         Array.iter
           (fun i ->
             try if remote_sweep a i then worked := true
             with Async.Protocol_error e ->
               record_error (Fmt.str "remote %d: %s" i e))
           owned;
         Atomic.set a.d_steps a.a_steps;
         Atomic.set a.d_idle (not !worked);
         incr iters;
         if d = 0 then leader_check !iters !worked;
         if !worked then idle_streak := 0
         else if not (Atomic.get stop) then begin
           (* brief spin keeps cross-domain latency low when cores are
              plentiful; a sustained idle streak falls back to real sleeps
              so that on an oversubscribed machine (one core, many
              domains) the kernel gives the quantum to a domain that has
              work instead of letting this one burn it on pause loops *)
           incr idle_streak;
           if !idle_streak <= 32 then Domain.cpu_relax ()
           else Unix.sleepf (Float.min 0.0005 (0.00002 *. float_of_int (!idle_streak - 32)))
         end
       done
     with e -> record_error (Fmt.str "domain %d: %s" d (Printexc.to_string e)));
    Atomic.set a.d_steps a.a_steps
  in
  let others =
    Array.init (nd - 1) (fun i -> Domain.spawn (domain_body (i + 1)))
  in
  domain_body 0 ();
  Array.iter Domain.join others;
  (* ---- post-join: everything below is race-free ------------------------- *)
  fcounts.pauses <-
    (if no_faults then 0
     else
       List.length
         (List.filter
            (fun (w : Plan.window) -> w.w_start < tick_now ())
            plan.Plan.windows));
  let hsnap = Mcode.home_snapshot hm in
  let rsnaps = Array.map Mcode.remote_snapshot rms in
  let inbox_len ch =
    match tr with
    | Rings { to_h; to_r } -> (
      match ch with
      | Fault.To_h i -> Ring.length to_h.(i)
      | Fault.To_r i -> Ring.length to_r.(i))
    | Link l -> Faultlink.inbox_length l ch
  in
  let hmode_desc = function
    | Async.Hcomm -> "comm"
    | Async.Htrans { peer; await; _ } ->
      Fmt.str "transient→r%d awaiting %s" peer
        (match await with `Ack -> "ack" | `Repl m -> "reply " ^ m)
  in
  let rmode_desc = function
    | Async.Rcomm -> "comm"
    | Async.Rtrans _ -> "transient awaiting ack/nack"
    | Async.Rwait { repl; _ } -> "awaiting reply " ^ repl
  in
  let watchdog =
    ( "home",
      Fmt.str "ctl=%s, %s, %d buffered, inbox %d"
        prog.home.p_states.(hsnap.Async.h_ctl).cs_name
        (hmode_desc hsnap.Async.h_mode)
        (List.length hsnap.Async.h_buf)
        (Array.fold_left ( + ) 0
           (Array.init n (fun i -> inbox_len (Fault.To_h i)))) )
    :: List.init n (fun i ->
           ( Fmt.str "remote %d" i,
             Fmt.str "ctl=%s, %s, budget left %d, inbox %d"
               prog.remote.p_states.(rsnaps.(i).Async.r_ctl).cs_name
               (rmode_desc rsnaps.(i).Async.r_mode)
               budgets.(i)
               (inbox_len (Fault.To_r i)) ))
  in
  let final =
    {
      Async.h = hsnap;
      r = rsnaps;
      to_h =
        (match tr with
        | Rings { to_h; _ } -> Array.map Ring.to_list to_h
        | Link l -> Array.init n (fun i -> Faultlink.drain l (Fault.To_h i)));
      to_r =
        (match tr with
        | Rings { to_r; _ } -> Array.map Ring.to_list to_r
        | Link l -> Array.init n (fun i -> Faultlink.drain l (Fault.To_r i)));
    }
  in
  let invariant_failures =
    List.filter_map
      (fun (name, check) -> if check final then None else Some name)
      invariants
  in
  (* the "stall" verdict is only tentative: promoted to quiescent when
     the joined configuration really is one *)
  let cause0 = Atomic.get stop_cause in
  let quiescent =
    cause0 = "stall" && spent () && quiescent_state final && !errors = []
  in
  let cause = if quiescent then "quiescent" else cause0 in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum f = Array.fold_left (fun acc a -> acc + f a) 0 accts in
  (match metrics with
  | Some reg ->
    let open Ccr_obs.Metrics in
    add (counter reg "msg.req") (sum (fun a -> a.a_reqs));
    add (counter reg "msg.ack") (sum (fun a -> a.a_acks));
    add (counter reg "msg.nack") (sum (fun a -> a.a_nacks));
    add (counter reg "msg.data") (sum (fun a -> a.a_datas));
    add
      (counter reg "rendezvous")
      (Array.fold_left (fun acc c -> acc + Atomic.get c) 0 completions);
    let h = histogram reg "home_buffer_occupancy" in
    Array.iteri (fun occ cnt -> observe_n h occ cnt) hb_occ;
    let rep b = if b = 0 then 0 else fst (bucket_range b) in
    let fill name sel =
      let h = histogram reg name in
      Array.iter
        (fun a ->
          Array.iteri
            (fun b cnt -> if cnt > 0 then observe_n h (rep b) cnt)
            (sel a))
        accts
    in
    fill "engine.batch_size" (fun a -> a.batch_hist);
    fill "engine.mailbox_occupancy" (fun a -> a.mbox_hist);
    set (gauge reg "engine.domains") (float_of_int nd);
    Array.iteri
      (fun d a ->
        set
          (gauge reg (Fmt.str "engine.msgs_per_sec.d%d" d))
          (float_of_int a.a_msgs /. Float.max wall_s 1e-9))
      accts;
    if not no_faults then begin
      add (counter reg "fault.drop") fcounts.drops;
      add (counter reg "fault.dup") fcounts.dups;
      add (counter reg "fault.delay") fcounts.delays;
      add (counter reg "fault.pause") fcounts.pauses;
      add (counter reg "fault.retransmit") fcounts.retransmits;
      add (counter reg "fault.absorbed") fcounts.absorbed;
      add (counter reg "fault.delivered") fcounts.delivered
    end
  | None -> ());
  {
    Runtime.completions = Array.map Atomic.get completions;
    rendezvous =
      Array.fold_left (fun acc c -> acc + Atomic.get c) 0 completions;
    messages = sum (fun a -> a.a_msgs);
    reqs = sum (fun a -> a.a_reqs);
    acks = sum (fun a -> a.a_acks);
    nacks = sum (fun a -> a.a_nacks);
    data_msgs = sum (fun a -> a.a_datas);
    buf_occupancy = hb_occ;
    steps = sum (fun a -> a.a_steps);
    quiescent;
    invariant_failures;
    protocol_errors = List.rev !errors;
    faults = Fault.freeze fcounts;
    watchdog;
    wall_s;
    stop_cause = cause;
  }

(* After each engine label the frontier holds the interpreter states
   reachable by the labels so far.  Labels do not pin choose-set
   payloads, so several states can carry the same label; the frontier is
   deduplicated by encoding and capped at 64 states. *)
let rec walk prog cfg i frontier = function
  | [] -> Ok frontier
  | (l : Async.label) :: rest -> (
    let seen = Hashtbl.create 16 in
    let fresh st =
      let key = Async.encode st in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end
    in
    let next =
      List.concat_map
        (fun st ->
          List.filter_map
            (fun (l', st') -> if l' = l && fresh st' then Some st' else None)
            (Async.successors prog cfg st))
        frontier
    in
    match next with
    | [] -> Error (i, l)
    | _ -> walk prog cfg (i + 1) (List.filteri (fun j _ -> j < 64) next) rest)

let replay ?deadline_s ?max_steps ~budget ~invariants prog cfg =
  let trace = ref [] in
  let (s : Runtime.stats) =
    run ~seed:0 ?deadline_s ?max_steps
      ~on_step:(fun l -> trace := l :: !trace)
      ~budget ~invariants prog cfg
  in
  let trace = List.rev !trace in
  let fail fmt = Fmt.kstr (fun m -> Error m) fmt in
  if s.protocol_errors <> [] then
    fail "engine protocol error: %s" (String.concat "; " s.protocol_errors)
  else if s.steps <> List.length trace then
    fail "engine counted %d steps but traced %d labels" s.steps
      (List.length trace)
  else
    match walk prog cfg 1 [ Async.initial prog cfg ] trace with
    | Error (i, l) ->
      fail "engine step %d (%a) is not a transition the interpreter offers" i
        Async.pp_label l
    | Ok frontier ->
      let completed =
        List.length
          (List.filter
             (fun (l : Async.label) ->
               Mcode.completes (Mcode.code_of_rule l.rule))
             trace)
      in
      if completed <> s.rendezvous then
        fail "engine reported %d rendezvous but the trace completes %d"
          s.rendezvous completed
      else if s.quiescent && not (List.exists quiescent_state frontier) then
        fail
          "engine reported quiescence but no replayed interpreter state is \
           quiescent"
      else Ok (s, trace)
