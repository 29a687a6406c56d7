open Ccr_core
open Ccr_refine
module Rv = Ccr_semantics.Rendezvous

type mode = Vanilla | Hardened

type budget = { b_drop : int; b_dup : int; b_delay : int; b_pause : int }

type fstate = {
  base : Async.state;
  left : budget;
  lost_h : Wire.t option array;
  lost_r : Wire.t option array;
  paused : bool array;
  wedged : string option;
}

type event =
  | Ev_drop of Fault.chan
  | Ev_dup of Fault.chan
  | Ev_delay of Fault.chan
  | Ev_retransmit of Fault.chan
  | Ev_pause of int
  | Ev_resume of int
  | Ev_wedge of string

type label = Step of Async.label | Fault of event

let set_arr a i x =
  let a' = Array.copy a in
  a'.(i) <- x;
  a'

(* ---- reassembly of global steps from the node-local rules -------------- *)

let send_to_r st j w =
  { st with Async.to_r = set_arr st.Async.to_r j (st.Async.to_r.(j) @ [ w ]) }

let send_to_h st i w =
  { st with Async.to_h = set_arr st.Async.to_h i (st.Async.to_h.(i) @ [ w ]) }

let apply_home st (l, h', outs) =
  ( l,
    List.fold_left
      (fun st (j, w) -> send_to_r st j w)
      { st with Async.h = h' }
      outs )

let apply_remote st i (l, r', outs) =
  ( l,
    List.fold_left
      (fun st w -> send_to_h st i w)
      { st with Async.r = set_arr st.Async.r i r' }
      outs )

let protocol_successors ?paused ?stalled_h ?stalled_r prog cfg
    (st : Async.state) =
  let n = Array.length st.Async.r in
  let flag a i = match a with None -> false | Some a -> a.(i) in
  let acc = ref [] and wedges = ref [] in
  let emit x = acc := x :: !acc in
  List.iter
    (fun o -> emit (apply_home st o))
    (Async.home_local prog cfg st.Async.h);
  for i = 0 to n - 1 do
    if not (flag paused i) then
      List.iter
        (fun o -> emit (apply_remote st i o))
        (Async.remote_local prog st.Async.r.(i) i)
  done;
  for i = 0 to n - 1 do
    (match st.Async.to_h.(i) with
    | w :: rest when not (flag stalled_h i) -> (
      let st' = { st with Async.to_h = set_arr st.Async.to_h i rest } in
      match Async.home_recv prog cfg st.Async.h i w with
      | outs -> List.iter (fun o -> emit (apply_home st' o)) outs
      | exception Async.Protocol_error e ->
        wedges := (Fault.To_h i, Fmt.str "home ← r%d: %s" i e) :: !wedges)
    | _ -> ());
    if not (flag paused i) then
      match st.Async.to_r.(i) with
      | w :: rest when not (flag stalled_r i) -> (
        let st' = { st with Async.to_r = set_arr st.Async.to_r i rest } in
        match Async.remote_recv prog st.Async.r.(i) i w with
        | outs -> List.iter (fun o -> emit (apply_remote st' i o)) outs
        | exception Async.Protocol_error e ->
          wedges := (Fault.To_r i, Fmt.str "r%d ← home: %s" i e) :: !wedges)
      | _ -> ()
  done;
  (List.rev !acc, List.rev !wedges)

(* ---- fault transitions -------------------------------------------------- *)

let initial (spec : Fault.spec) prog cfg =
  let st = Async.initial prog cfg in
  let n = Array.length st.Async.r in
  {
    base = st;
    left =
      {
        b_drop = spec.drop;
        b_dup = spec.dup;
        b_delay = spec.delay;
        b_pause = spec.pause;
      };
    lost_h = Array.make n None;
    lost_r = Array.make n None;
    paused = Array.make n false;
    wedged = None;
  }

let chan_head st = function
  | Fault.To_h i -> (
    match st.Async.to_h.(i) with w :: rest -> Some (w, rest) | [] -> None)
  | Fault.To_r i -> (
    match st.Async.to_r.(i) with w :: rest -> Some (w, rest) | [] -> None)

let set_chan st ch l =
  match ch with
  | Fault.To_h i -> { st with Async.to_h = set_arr st.Async.to_h i l }
  | Fault.To_r i -> { st with Async.to_r = set_arr st.Async.to_r i l }

let get_chan st = function
  | Fault.To_h i -> st.Async.to_h.(i)
  | Fault.To_r i -> st.Async.to_r.(i)

let lost fs = function
  | Fault.To_h i -> fs.lost_h.(i)
  | Fault.To_r i -> fs.lost_r.(i)

let set_lost fs ch v =
  match ch with
  | Fault.To_h i -> { fs with lost_h = set_arr fs.lost_h i v }
  | Fault.To_r i -> { fs with lost_r = set_arr fs.lost_r i v }

let fault_transitions mode (spec : Fault.spec) fs =
  let n = Array.length fs.base.Async.r in
  let chans =
    List.init n (fun i -> Fault.To_h i) @ List.init n (fun i -> Fault.To_r i)
  in
  let acc = ref [] in
  let emit x = acc := x :: !acc in
  if fs.left.b_drop > 0 then
    List.iter
      (fun ch ->
        match chan_head fs.base ch with
        | Some (w, rest) when Fault.matches spec.drop_on w -> (
          let left = { fs.left with b_drop = fs.left.b_drop - 1 } in
          match mode with
          | Vanilla ->
            emit
              ( Fault (Ev_drop ch),
                { fs with base = set_chan fs.base ch rest; left } )
          | Hardened ->
            (* one outstanding gap per channel: the transport retransmits
               in order, so a second loss waits for the first *)
            if lost fs ch = None then
              emit
                ( Fault (Ev_drop ch),
                  set_lost
                    { fs with base = set_chan fs.base ch rest; left }
                    ch (Some w) ))
        | _ -> ())
      chans;
  if fs.left.b_dup > 0 then
    List.iter
      (fun ch ->
        match chan_head fs.base ch with
        | Some (w, rest) when Fault.matches spec.dup_on w -> (
          let left = { fs.left with b_dup = fs.left.b_dup - 1 } in
          match mode with
          | Vanilla ->
            emit
              ( Fault (Ev_dup ch),
                { fs with base = set_chan fs.base ch (w :: w :: rest); left }
              )
          | Hardened ->
            (* sequence-number dedup absorbs the duplicate instantly *)
            emit (Fault (Ev_dup ch), { fs with left }))
        | _ -> ())
      chans;
  if fs.left.b_delay > 0 then
    List.iter
      (fun ch ->
        match chan_head fs.base ch with
        | Some (w, rest) when Fault.matches spec.delay_on w -> (
          let left = { fs.left with b_delay = fs.left.b_delay - 1 } in
          match mode with
          | Vanilla ->
            (* reorder the head past the rest of its channel *)
            if rest <> [] then
              emit
                ( Fault (Ev_delay ch),
                  { fs with base = set_chan fs.base ch (rest @ [ w ]); left }
                )
          | Hardened ->
            (* resequencing turns a delayed head into a gap until the
               late frame (or its retransmission) arrives *)
            if lost fs ch = None then
              emit
                ( Fault (Ev_delay ch),
                  set_lost
                    { fs with base = set_chan fs.base ch rest; left }
                    ch (Some w) ))
        | _ -> ())
      chans;
  List.iter
    (fun ch ->
      match lost fs ch with
      | Some w ->
        let refilled = set_chan fs.base ch (w :: get_chan fs.base ch) in
        emit (Fault (Ev_retransmit ch), set_lost { fs with base = refilled } ch None)
      | None -> ())
    chans;
  if fs.left.b_pause > 0 then
    for i = 0 to n - 1 do
      if not fs.paused.(i) then
        emit
          ( Fault (Ev_pause i),
            {
              fs with
              left = { fs.left with b_pause = fs.left.b_pause - 1 };
              paused = set_arr fs.paused i true;
            } )
    done;
  for i = 0 to n - 1 do
    if fs.paused.(i) then
      emit (Fault (Ev_resume i), { fs with paused = set_arr fs.paused i false })
  done;
  List.rev !acc

let successors ?(faults = true) mode spec prog cfg fs =
  if fs.wedged <> None then []
  else begin
    let stalled_h = Array.map Option.is_some fs.lost_h in
    let stalled_r = Array.map Option.is_some fs.lost_r in
    let steps, wedges =
      protocol_successors ~paused:fs.paused ~stalled_h ~stalled_r prog cfg
        fs.base
    in
    let acc = List.map (fun (l, st') -> (Step l, { fs with base = st' })) steps in
    let acc =
      acc
      @ List.map
          (fun (_, msg) ->
            (Fault (Ev_wedge msg), { fs with wedged = Some msg }))
          wedges
    in
    if faults then acc @ fault_transitions mode spec fs else acc
  end

(* ---- encoding and invariants ------------------------------------------- *)

let encode fs =
  let b = Buffer.create 128 in
  Buffer.add_string b (Async.encode fs.base);
  Buffer.add_char b '\xfd';
  Value.encode_int b fs.left.b_drop;
  Value.encode_int b fs.left.b_dup;
  Value.encode_int b fs.left.b_delay;
  Value.encode_int b fs.left.b_pause;
  let enc_lost o =
    match o with
    | None -> Buffer.add_char b 'n'
    | Some w ->
      Buffer.add_char b 'l';
      Wire.encode b w
  in
  Array.iter enc_lost fs.lost_h;
  Array.iter enc_lost fs.lost_r;
  Array.iter (fun p -> Buffer.add_char b (if p then 'P' else '.')) fs.paused;
  (match fs.wedged with
  | None -> ()
  | Some m ->
    Buffer.add_char b 'W';
    Buffer.add_string b m);
  Buffer.contents b

(* The inverse of [encode], field for field. *)
let dec_marker c =
  let p = c.Value.pos in
  if Value.decode_char c <> '\xfd' then
    Value.refuse c p "expected the fault marker"

let dec_lost c n =
  let a = Array.make n None in
  for i = 0 to n - 1 do
    let p = c.Value.pos in
    match Value.decode_char c with
    | 'n' -> ()
    | 'l' -> a.(i) <- Some (Wire.decode c)
    | _ -> Value.refuse c p "bad lost-message tag"
  done;
  a

let dec_paused c n =
  let a = Array.make n false in
  for i = 0 to n - 1 do
    let p = c.Value.pos in
    match Value.decode_char c with
    | 'P' -> a.(i) <- true
    | '.' -> ()
    | _ -> Value.refuse c p "bad pause flag"
  done;
  a

let decode (prog : Prog.t) key =
  let c = Value.cursor ~who:"Injected.decode" key in
  let base = Async.decode_from prog c in
  dec_marker c;
  let b_drop = Value.decode_int c in
  let b_dup = Value.decode_int c in
  let b_delay = Value.decode_int c in
  let b_pause = Value.decode_int c in
  let lost_h = dec_lost c prog.n in
  let lost_r = dec_lost c prog.n in
  let paused = dec_paused c prog.n in
  let wedged =
    if c.Value.pos = String.length key then None
    else begin
      let p = c.Value.pos in
      if Value.decode_char c <> 'W' then Value.refuse c p "trailing bytes";
      Some (Value.decode_string c (String.length key - c.Value.pos))
    end
  in
  {
    base;
    left = { b_drop; b_dup; b_delay; b_pause };
    lost_h;
    lost_r;
    paused;
    wedged;
  }

let no_wedge = ("no_protocol_error", fun fs -> fs.wedged = None)
let lift_invariant (name, f) = (name, fun fs -> f fs.base)

let completes (l : Async.label) =
  match l.rule with
  | Async.H_C1 | Async.H_C1_silent | Async.H_T1_repl | Async.R_C3_ack
  | Async.R_C3_silent | Async.R_repl_recv ->
    true
  | _ -> false

let pp_event ppf = function
  | Ev_drop ch -> Fmt.pf ppf "fault: drop head of %a" Fault.pp_chan ch
  | Ev_dup ch -> Fmt.pf ppf "fault: duplicate head of %a" Fault.pp_chan ch
  | Ev_delay ch -> Fmt.pf ppf "fault: delay head of %a" Fault.pp_chan ch
  | Ev_retransmit ch -> Fmt.pf ppf "retransmit refills %a" Fault.pp_chan ch
  | Ev_pause i -> Fmt.pf ppf "fault: pause r%d" i
  | Ev_resume i -> Fmt.pf ppf "resume r%d" i
  | Ev_wedge m -> Fmt.pf ppf "protocol error: %s" m

let pp_label ppf = function
  | Step l -> Async.pp_label ppf l
  | Fault e -> pp_event ppf e

let pp_fstate prog ppf fs =
  let extras =
    List.concat
      [
        (let b = fs.left in
         if b.b_drop + b.b_dup + b.b_delay + b.b_pause = 0 then []
         else
           [
             Fmt.str "budget left: drop=%d dup=%d delay=%d pause=%d" b.b_drop
               b.b_dup b.b_delay b.b_pause;
           ]);
        List.concat
          (List.init (Array.length fs.lost_h) (fun i ->
               match fs.lost_h.(i) with
               | Some w -> [ Fmt.str "gap on r%d→h: %a" i Wire.pp w ]
               | None -> []));
        List.concat
          (List.init (Array.length fs.lost_r) (fun i ->
               match fs.lost_r.(i) with
               | Some w -> [ Fmt.str "gap on h→r%d: %a" i Wire.pp w ]
               | None -> []));
        List.concat
          (List.init (Array.length fs.paused) (fun i ->
               if fs.paused.(i) then [ Fmt.str "r%d paused" i ] else []));
        (match fs.wedged with
        | Some m -> [ "WEDGED: " ^ m ]
        | None -> []);
      ]
  in
  if extras = [] then Async.pp_state prog ppf fs.base
  else
    Fmt.pf ppf "@[<v>%a@,[%s]@]" (Async.pp_state prog) fs.base
      (String.concat "; " extras)

(* ---- rendezvous level: pause faults only -------------------------------- *)

type rv_fstate = {
  rv_base : Rv.state;
  rv_left : int;
  rv_paused : bool array;
}

type rv_label =
  | Rv_step of Rv.label
  | Rv_pause of int
  | Rv_resume of int

let rv_initial (spec : Fault.spec) (prog : Prog.t) =
  {
    rv_base = Rv.initial prog;
    rv_left = spec.pause;
    rv_paused = Array.make prog.n false;
  }

let rv_involves_paused paused (l : Rv.label) =
  let p = function Rv.Ph -> false | Rv.Pr i -> paused.(i) in
  match l with
  | Rv.L_tau (pid, _) -> p pid
  | Rv.L_rendezvous { active; passive; _ } -> p active || p passive

let rv_successors prog fs =
  let steps =
    Rv.successors prog fs.rv_base
    |> List.filter (fun (l, _) -> not (rv_involves_paused fs.rv_paused l))
    |> List.map (fun (l, st') -> (Rv_step l, { fs with rv_base = st' }))
  in
  let n = Array.length fs.rv_paused in
  let acc = ref [] in
  if fs.rv_left > 0 then
    for i = 0 to n - 1 do
      if not fs.rv_paused.(i) then
        acc :=
          ( Rv_pause i,
            {
              fs with
              rv_left = fs.rv_left - 1;
              rv_paused = set_arr fs.rv_paused i true;
            } )
          :: !acc
    done;
  for i = 0 to n - 1 do
    if fs.rv_paused.(i) then
      acc :=
        (Rv_resume i, { fs with rv_paused = set_arr fs.rv_paused i false })
        :: !acc
  done;
  steps @ List.rev !acc

let rv_encode fs =
  let b = Buffer.create 64 in
  Buffer.add_string b (Rv.encode fs.rv_base);
  Buffer.add_char b '\xfd';
  Value.encode_int b fs.rv_left;
  Array.iter (fun p -> Buffer.add_char b (if p then 'P' else '.')) fs.rv_paused;
  Buffer.contents b

let rv_decode (prog : Prog.t) key =
  let c = Value.cursor ~who:"Injected.rv_decode" key in
  let rv_base = Rv.decode_from prog c in
  dec_marker c;
  let rv_left = Value.decode_int c in
  let rv_paused = dec_paused c prog.n in
  Value.decode_end c;
  { rv_base; rv_left; rv_paused }

let pp_rv_label ppf = function
  | Rv_step l -> Rv.pp_label ppf l
  | Rv_pause i -> Fmt.pf ppf "fault: pause r%d" i
  | Rv_resume i -> Fmt.pf ppf "resume r%d" i

let pp_rv_fstate prog ppf fs =
  let extras =
    (if fs.rv_left > 0 then [ Fmt.str "pause budget left: %d" fs.rv_left ]
     else [])
    @ List.concat
        (List.init (Array.length fs.rv_paused) (fun i ->
             if fs.rv_paused.(i) then [ Fmt.str "r%d paused" i ] else []))
  in
  if extras = [] then Rv.pp_state prog ppf fs.rv_base
  else
    Fmt.pf ppf "@[<v>%a@,[%s]@]" (Rv.pp_state prog) fs.rv_base
      (String.concat "; " extras)
