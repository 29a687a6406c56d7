open Ccr_core

(* ---- interned components ---------------------------------------------------

   Every record below is built whole before it is published, and its
   mutable fields are memos that only ever grow: a reader on another
   domain sees an old memo (and takes the lock) or a new one, never a
   torn one.

   For {!canonical}: [*_rid] says whether the value names a remote id
   anywhere, so that renaming remotes can change its bytes; [*_sig]
   memoizes its slot-relative signature part per slot ([""] until
   computed). *)

type msg = { m_id : int; m_w : Wire.t; m_b : string }

type chan = {
  c_id : int;
  c_q : Wire.t list;
  c_b : string;
  c_pop : (msg * chan) option;  (** head and tail; [None] when empty *)
  mutable c_push : (msg * chan) list;  (** appended message -> channel *)
  c_rid : bool;
  c_sig : string array;
}

type home = {
  h_id : int;
  h_v : Async.home;
  h_b : string;
  mutable h_local : hstep list option;
  mutable h_recv : hrecv list;
  h_rid : bool;
  mutable h_bits : int array;  (** {!Symmetry.home_self_bits}; [no_bits] until computed *)
}

and hstep = { hs_label : Async.label; hs_h : home; hs_outs : (int * msg) list }
and hrecv = { hr_slot : int; hr_msg : msg; hr_steps : hstep list }

type remote = {
  r_id : int;
  r_v : Async.remote;
  r_b : string;
  r_local : rstep list option array;  (** per slot *)
  mutable r_recv : rrecv list;
  r_rid : bool;
  r_sig : string array;
}

and rstep = { rs_label : Async.label; rs_r : remote; rs_outs : msg list }
and rrecv = { rr_slot : int; rr_msg : msg; rr_steps : rstep list }

(* ---- pools -------------------------------------------------------------------

   One pool per component kind: an insert-only open-addressing set keyed
   by the component's bytes, and the components by id.  [find] runs
   without the lock: a slot goes from [dummy] to a finished component
   once, and a stale [slots] array can only miss. *)

type 'a pool = {
  bytes : 'a -> string;
  dummy : 'a;
  mutable slots : 'a array;
  mutable by_id : 'a array;
  mutable count : int;
}

(* Empty pools cost no array: a check's set-up only allocates records,
   and the first [add] grows both arrays. *)
let pool bytes dummy = { bytes; dummy; slots = [| dummy |]; by_id = [||]; count = 0 }

let hash_range s off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 29)) land max_int

(* [b] is [s.[off .. off + len - 1]], compared from byte [i] on. *)
let rec same s off len b i =
  i = len
  || (String.unsafe_get s (off + i) = String.unsafe_get b i && same s off len b (i + 1))

let rec probe p slots mask s off len j =
  let c = Array.unsafe_get slots j in
  if c == p.dummy then c
  else
    let b = p.bytes c in
    if String.length b = len && same s off len b 0 then c
    else probe p slots mask s off len ((j + 1) land mask)

(* The component with bytes [s.[off .. off + len - 1]], or [p.dummy]. *)
let find p s off len =
  let slots = p.slots in
  let mask = Array.length slots - 1 in
  probe p slots mask s off len (hash_range s off len land mask)

let place p slots c =
  let b = p.bytes c in
  let mask = Array.length slots - 1 in
  let j = ref (hash_range b 0 (String.length b) land mask) in
  while slots.(!j) != p.dummy do
    j := (!j + 1) land mask
  done;
  slots.(!j) <- c

(* Lock held.  [c]'s id is [p.count]. *)
let add p c =
  if 2 * (p.count + 1) > Array.length p.slots then begin
    let slots = Array.make (max 64 (2 * Array.length p.slots)) p.dummy in
    Array.iter (fun c -> if c != p.dummy then place p slots c) p.slots;
    p.slots <- slots
  end;
  place p p.slots c;
  if p.count = Array.length p.by_id then begin
    let a = Array.make (max 64 (2 * p.count)) p.dummy in
    Array.blit p.by_id 0 a 0 p.count;
    p.by_id <- a
  end;
  p.by_id.(p.count) <- c;
  p.count <- p.count + 1

(* Lock held.  [make b] builds the component of bytes [b]; it may intern
   other components first, so it reads its own id from the pool last. *)
let intern p s off len make =
  let c = find p s off len in
  if c != p.dummy then c
  else begin
    let b = if off = 0 && len = String.length s then s else String.sub s off len in
    let c = make b in
    add p c;
    c
  end

(* ---- the table --------------------------------------------------------------- *)

type t = {
  prog : Prog.t;
  cfg : Async.config;
  n : int;
  lock : Mutex.t;
  homes : home pool;
  remotes : remote pool;
  chans : chan pool;
  msgs : msg pool;
  mutable sigs : int;  (** signature parts and self-bit arrays memoized *)
  mutable memo_words : int;  (** their heap words *)
}

(* Placeholders that no caller holds: the pools' empty slot markers and
   a state that is never a parent. *)
let void_home =
  { Async.h_ctl = 0; h_env = [||]; h_mode = Async.Hcomm; h_rot = 0; h_buf = [] }

let void = { Async.h = void_home; r = [||]; to_h = [||]; to_r = [||] }
let dummy_msg = { m_id = -1; m_w = Wire.Ack; m_b = "" }
let no_bits = [| -1 |]

let dummy_chan =
  {
    c_id = -1;
    c_q = [];
    c_b = "";
    c_pop = None;
    c_push = [];
    c_rid = false;
    c_sig = [||];
  }

let dummy_home =
  {
    h_id = -1;
    h_v = void_home;
    h_b = "";
    h_local = None;
    h_recv = [];
    h_rid = false;
    h_bits = no_bits;
  }

let dummy_remote =
  {
    r_id = -1;
    r_v = { Async.r_ctl = 0; r_env = [||]; r_mode = Async.Rcomm; r_buf = None };
    r_b = "";
    r_local = [||];
    r_recv = [];
    r_rid = false;
    r_sig = [||];
  }

let create (prog : Prog.t) cfg =
  {
    prog;
    cfg;
    n = prog.n;
    lock = Mutex.create ();
    homes = pool (fun h -> h.h_b) dummy_home;
    remotes = pool (fun r -> r.r_b) dummy_remote;
    chans = pool (fun c -> c.c_b) dummy_chan;
    msgs = pool (fun m -> m.m_b) dummy_msg;
    sigs = 0;
    memo_words = 0;
  }

let locked t f = Mutex.protect t.lock f

let wire_key w =
  let buf = Buffer.create 16 in
  Wire.encode buf w;
  Buffer.contents buf

let decode_wire b =
  let c = Value.cursor ~who:"Table.decode" b in
  let w = Wire.decode c in
  Value.decode_end c;
  w

(* Whether renaming remotes can change a value's bytes: a rid or a set
   in it, and for the home also a transient peer or a buffered request's
   sender.  [Async.encode_perm] writes every other field as
   [Async.encode] does. *)
let value_rid (v : Value.t) =
  match v with
  | Value.Vrid _ | Value.Vset _ -> true
  | Value.Vunit | Value.Vbool _ | Value.Vint _ -> false

let env_rid e = Array.exists value_rid e
let msg_rid (m : Wire.msg) = List.exists value_rid m.m_payload
let wire_rid = function Wire.Req m -> msg_rid m | Wire.Ack | Wire.Nack -> false

let home_rid (h : Async.home) =
  env_rid h.h_env || h.h_buf <> []
  || match h.h_mode with Async.Hcomm -> false | Async.Htrans _ -> true

let remote_rid (r : Async.remote) =
  env_rid r.r_env
  || (match r.r_mode with
     | Async.Rcomm -> false
     | Async.Rtrans { scratch; _ } | Async.Rwait { scratch; _ } -> env_rid scratch)
  || match r.r_buf with None -> false | Some m -> msg_rid m

(* Interning, lock held.  Components are decoded from their bytes. *)

let msg_of t w =
  let b = wire_key w in
  intern t.msgs b 0 (String.length b) (fun b ->
      { m_id = t.msgs.count; m_w = decode_wire b; m_b = b })

let rec make_chan t b =
  let q = Async.decode_channel b in
  let c_pop =
    match q with [] -> None | w :: rest -> Some (msg_of t w, chan_of t rest)
  in
  {
    c_id = t.chans.count;
    c_q = q;
    c_b = b;
    c_pop;
    c_push = [];
    c_rid = List.exists wire_rid q;
    c_sig = Array.make t.n "";
  }

and chan_of t q =
  let b = Async.channel_key q in
  intern t.chans b 0 (String.length b) (make_chan t)

let make_home t b =
  let h_v = Async.decode_home t.prog b in
  {
    h_id = t.homes.count;
    h_v;
    h_b = b;
    h_local = None;
    h_recv = [];
    h_rid = home_rid h_v;
    h_bits = no_bits;
  }

let make_remote t b =
  let r_v = Async.decode_remote t.prog b in
  {
    r_id = t.remotes.count;
    r_v;
    r_b = b;
    r_local = Array.make t.n None;
    r_recv = [];
    r_rid = remote_rid r_v;
    r_sig = Array.make t.n "";
  }

(* The component of bytes [s.[off .. off + len - 1]], from outside the
   lock: a lock-free probe first. *)
let lookup t p s off len make =
  let c = find p s off len in
  if c != p.dummy then c else locked t (fun () -> intern p s off len (make t))

let home_of t h =
  let b = Async.home_key h in
  lookup t t.homes b 0 (String.length b) make_home

let remote_of t r =
  let b = Async.remote_key r in
  lookup t t.remotes b 0 (String.length b) make_remote

let chan_of_value t q =
  let b = Async.channel_key q in
  lookup t t.chans b 0 (String.length b) make_chan

(* ---- memos ----------------------------------------------------------------- *)

let home_steps t l =
  List.map
    (fun (hs_label, h', outs) ->
      {
        hs_label;
        hs_h =
          (let b = Async.home_key h' in
           intern t.homes b 0 (String.length b) (make_home t));
        hs_outs = List.map (fun (j, w) -> (j, msg_of t w)) outs;
      })
    l

let remote_steps t l =
  List.map
    (fun (rs_label, r', outs) ->
      let b = Async.remote_key r' in
      {
        rs_label;
        rs_r = intern t.remotes b 0 (String.length b) (make_remote t);
        rs_outs = List.map (msg_of t) outs;
      })
    l

let home_local t h =
  match h.h_local with
  | Some s -> s
  | None ->
    locked t (fun () ->
        match h.h_local with
        | Some s -> s
        | None ->
          let s = home_steps t (Async.home_local t.prog t.cfg h.h_v) in
          h.h_local <- Some s;
          s)

let no_hrecv = { hr_slot = -1; hr_msg = dummy_msg; hr_steps = [] }

let rec find_hrecv i m = function
  | [] -> no_hrecv
  | e :: rest -> if e.hr_slot = i && e.hr_msg == m then e else find_hrecv i m rest

let home_recv t h i m =
  let e = find_hrecv i m h.h_recv in
  if e != no_hrecv then e.hr_steps
  else
    locked t (fun () ->
        let e = find_hrecv i m h.h_recv in
        if e != no_hrecv then e.hr_steps
        else begin
          let s = home_steps t (Async.home_recv t.prog t.cfg h.h_v i m.m_w) in
          h.h_recv <- { hr_slot = i; hr_msg = m; hr_steps = s } :: h.h_recv;
          s
        end)

let remote_local t r i =
  match r.r_local.(i) with
  | Some s -> s
  | None ->
    locked t (fun () ->
        match r.r_local.(i) with
        | Some s -> s
        | None ->
          let s = remote_steps t (Async.remote_local t.prog r.r_v i) in
          r.r_local.(i) <- Some s;
          s)

let no_rrecv = { rr_slot = -1; rr_msg = dummy_msg; rr_steps = [] }

let rec find_rrecv i m = function
  | [] -> no_rrecv
  | e :: rest -> if e.rr_slot = i && e.rr_msg == m then e else find_rrecv i m rest

let remote_recv t r i m =
  let e = find_rrecv i m r.r_recv in
  if e != no_rrecv then e.rr_steps
  else
    locked t (fun () ->
        let e = find_rrecv i m r.r_recv in
        if e != no_rrecv then e.rr_steps
        else begin
          let s = remote_steps t (Async.remote_recv t.prog r.r_v i m.m_w) in
          r.r_recv <- { rr_slot = i; rr_msg = m; rr_steps = s } :: r.r_recv;
          s
        end)

let rec find_push m = function
  | [] -> dummy_chan
  | (m', c) :: rest -> if m' == m then c else find_push m rest

let push t c m =
  let c' = find_push m c.c_push in
  if c' != dummy_chan then c'
  else
    locked t (fun () ->
        let c' = find_push m c.c_push in
        if c' != dummy_chan then c'
        else begin
          let c' = chan_of t (c.c_q @ [ m.m_w ]) in
          c.c_push <- (m, c') :: c.c_push;
          c'
        end)

(* ---- symmetry memos -------------------------------------------------------- *)

(* Heap words of a string and of an array of [k] fields. *)
let string_words s = 2 + (String.length s / (Sys.word_size / 8))
let array_words k = 1 + k

(* Lock held: count a memoized signature part. *)
let remember_sig t s =
  t.sigs <- t.sigs + 1;
  t.memo_words <- t.memo_words + string_words s;
  s

(* Each memo read below is a hit test inlined into its caller and a miss
   function that fills the memo under the lock. *)

let remote_sig_miss t r i =
  locked t (fun () ->
      if r.r_sig.(i) = "" then begin
        r.r_sig.(i) <- remember_sig t (Symmetry.remote_signature r.r_v i)
      end;
      r.r_sig.(i))

let[@inline] remote_sig t r i =
  let s = Array.unsafe_get r.r_sig i in
  if String.length s > 0 then s else remote_sig_miss t r i

let chan_sig_miss t c i =
  locked t (fun () ->
      if c.c_sig.(i) = "" then begin
        c.c_sig.(i) <- remember_sig t (Symmetry.channel_signature c.c_q i)
      end;
      c.c_sig.(i))

let[@inline] chan_sig t c i =
  let s = Array.unsafe_get c.c_sig i in
  if String.length s > 0 then s else chan_sig_miss t c i

let home_bits_miss t h =
  locked t (fun () ->
      if h.h_bits == no_bits then begin
        let b = Symmetry.home_self_bits t.n h.h_v in
        h.h_bits <- b;
        t.sigs <- t.sigs + 1;
        t.memo_words <- t.memo_words + array_words (Array.length b)
      end;
      h.h_bits)

let[@inline] home_bits t h =
  let b = h.h_bits in
  if b != no_bits then b else home_bits_miss t h

(* The component of id [id], which some domain interned: a stale
   [by_id] can only lack it, so a miss re-reads under the lock. *)
let by_id_miss t p id = locked t (fun () -> p.by_id.(id))

let[@inline] by_id t p id =
  let a = p.by_id in
  if id < Array.length a && Array.unsafe_get a id != p.dummy then
    Array.unsafe_get a id
  else by_id_miss t p id

(* ---- per-domain scratch ------------------------------------------------------

   The parent: the state whose components are in [p_*] — the last
   decoded, or the last one [succ] or [encode] resolved.  The batch:
   [succ]'s last result [b_out], its parent's ids [b_ids], and the
   components successor [k] changed, in
   [d_*.(b_off.(k)) .. d_*.(b_off.(k + 1) - 1)].  Only ints go into the
   arrays that live as long as the scratch, so the hot path adds nothing
   to the GC's remembered set; the exception is [canonical]'s [c_*],
   the state being canonicalized as interned components, almost always
   promoted long before they are stored there.  [kbuf] is where its
   keys are written. *)

type scratch = {
  mutable tbl : t option;
  mutable p_st : Async.state;
  mutable p_h : home;
  mutable p_r : remote array;
  mutable p_th : chan array;
  mutable p_tr : chan array;
  mutable cur : chan array;
  mutable b_out : (Async.label * Async.state) list;
  mutable b_ids : int array;
  mutable b_len : int;
  mutable b_off : int array;
  mutable d_comp : int array;
  mutable d_id : int array;
  mutable d_len : int;
  mutable ids : int array;
  mutable key : Bytes.t;
  mutable pos : int;
  mutable c_st : Async.state;
  mutable c_h : home;
  mutable c_r : remote array;
  mutable c_th : chan array;
  mutable c_tr : chan array;
  kbuf : Buffer.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        tbl = None;
        p_st = void;
        p_h = dummy_home;
        p_r = [||];
        p_th = [||];
        p_tr = [||];
        cur = [||];
        b_out = [];
        b_ids = [||];
        b_len = 0;
        b_off = [||];
        d_comp = [||];
        d_id = [||];
        d_len = 0;
        ids = [||];
        key = Bytes.empty;
        pos = 0;
        c_st = void;
        c_h = dummy_home;
        c_r = [||];
        c_th = [||];
        c_tr = [||];
        kbuf = Buffer.create 256;
      })

let scratch t =
  let sc = Domain.DLS.get scratch_key in
  (match sc.tbl with
  | Some t' when t' == t -> ()
  | _ ->
    let n = t.n and m = 1 + (3 * t.n) in
    sc.tbl <- Some t;
    sc.p_st <- void;
    sc.p_h <- dummy_home;
    sc.p_r <- Array.make n dummy_remote;
    sc.p_th <- Array.make n dummy_chan;
    sc.p_tr <- Array.make n dummy_chan;
    sc.cur <- Array.make n dummy_chan;
    sc.b_out <- [];
    sc.b_ids <- Array.make m 0;
    sc.b_len <- 0;
    sc.b_off <- Array.make 17 0;
    sc.d_comp <- Array.make 64 0;
    sc.d_id <- Array.make 64 0;
    sc.d_len <- 0;
    sc.ids <- Array.make m 0;
    (* a LEB128 id of an OCaml int takes at most 9 bytes *)
    sc.key <- Bytes.create (9 * m);
    sc.c_st <- void;
    sc.c_h <- dummy_home;
    sc.c_r <- Array.make n dummy_remote;
    sc.c_th <- Array.make n dummy_chan;
    sc.c_tr <- Array.make n dummy_chan);
  sc

(* Make [st] the parent, interning its components unless it already is. *)
let resolve t sc (st : Async.state) =
  if st != sc.p_st then begin
    sc.p_st <- void;
    sc.b_out <- [];
    sc.p_h <- home_of t st.h;
    for i = 0 to t.n - 1 do
      sc.p_r.(i) <- remote_of t st.r.(i);
      sc.p_th.(i) <- chan_of_value t st.to_h.(i);
      sc.p_tr.(i) <- chan_of_value t st.to_r.(i)
    done;
    sc.p_st <- st
  end

(* The parent's component ids, in key order, into [a]. *)
let parent_ids t sc a =
  let n = t.n in
  a.(0) <- sc.p_h.h_id;
  for i = 0 to n - 1 do
    a.(1 + i) <- sc.p_r.(i).r_id;
    a.(1 + n + i) <- sc.p_th.(i).c_id;
    a.(1 + (2 * n) + i) <- sc.p_tr.(i).c_id
  done

(* ---- successors ---------------------------------------------------------------- *)

let grow a len x =
  let b = Array.make (2 * len) x in
  Array.blit a 0 b 0 len;
  b

(* The successor being built changes component [comp] to id [id]. *)
let change sc comp id =
  let k = sc.d_len in
  if k = Array.length sc.d_comp then begin
    sc.d_comp <- grow sc.d_comp k 0;
    sc.d_id <- grow sc.d_id k 0
  end;
  sc.d_comp.(k) <- comp;
  sc.d_id.(k) <- id;
  sc.d_len <- k + 1

(* Close the successor being built, onto the reversed batch [acc]. *)
let finish sc acc label st =
  let k = sc.b_len + 1 in
  if k = Array.length sc.b_off then sc.b_off <- grow sc.b_off k 0;
  sc.b_off.(k) <- sc.d_len;
  sc.b_len <- k;
  (label, st) :: acc

let set a i x =
  let a' = Array.copy a in
  a'.(i) <- x;
  a'

let rec meter_h (m : Async.meter) = function
  | [] -> ()
  | (_, w) :: rest ->
    m.m_sent w.m_w;
    meter_h m rest

let rec meter_r (m : Async.meter) = function
  | [] -> ()
  | w :: rest ->
    m.m_sent w.m_w;
    meter_r m rest

(* The home's messages of one step, appended to the remote-bound
   channels: [cur] holds each touched channel as it grows. *)
let rec start_outs sc = function
  | [] -> ()
  | (j, _) :: rest ->
    sc.cur.(j) <- sc.p_tr.(j);
    start_outs sc rest

let rec push_outs t sc = function
  | [] -> ()
  | (j, m) :: rest ->
    sc.cur.(j) <- push t sc.cur.(j) m;
    push_outs t sc rest

let rec record_outs t sc to_r = function
  | [] -> ()
  | (j, _) :: rest ->
    let c = sc.cur.(j) in
    to_r.(j) <- c.c_q;
    change sc (1 + (2 * t.n) + j) c.c_id;
    record_outs t sc to_r rest

let rec push_all t c = function [] -> c | m :: rest -> push_all t (push t c m) rest

(* Home steps; [i >= 0] pops [to_h.(i)] down to [tail]. *)
let rec home_steps_to t sc meter (st : Async.state) i tail acc = function
  | [] -> acc
  | hs :: rest ->
    (match meter with Some m -> meter_h m hs.hs_outs | None -> ());
    change sc 0 hs.hs_h.h_id;
    let to_h =
      if i < 0 then st.to_h
      else begin
        change sc (1 + t.n + i) tail.c_id;
        set st.to_h i tail.c_q
      end
    in
    let to_r =
      match hs.hs_outs with
      | [] -> st.to_r
      | outs ->
        let a = Array.copy st.to_r in
        start_outs sc outs;
        push_outs t sc outs;
        record_outs t sc a outs;
        a
    in
    let acc = finish sc acc hs.hs_label { Async.h = hs.hs_h.h_v; r = st.r; to_h; to_r } in
    home_steps_to t sc meter st i tail acc rest

(* Steps of remote [i]; [tail != dummy_chan] pops [to_r.(i)] to it. *)
let rec remote_steps_to t sc meter (st : Async.state) i tail acc = function
  | [] -> acc
  | rs :: rest ->
    (match meter with Some m -> meter_r m rs.rs_outs | None -> ());
    change sc (1 + i) rs.rs_r.r_id;
    let to_h =
      match rs.rs_outs with
      | [] -> st.to_h
      | outs ->
        let c = push_all t sc.p_th.(i) outs in
        change sc (1 + t.n + i) c.c_id;
        set st.to_h i c.c_q
    in
    let to_r =
      if tail == dummy_chan then st.to_r
      else begin
        change sc (1 + (2 * t.n) + i) tail.c_id;
        set st.to_r i tail.c_q
      end
    in
    let acc =
      finish sc acc rs.rs_label { Async.h = st.h; r = set st.r i rs.rs_r.r_v; to_h; to_r }
    in
    remote_steps_to t sc meter st i tail acc rest

let succ ?meter t (st : Async.state) =
  let sc = scratch t in
  resolve t sc st;
  let n = t.n in
  parent_ids t sc sc.b_ids;
  sc.b_out <- [];
  sc.b_len <- 0;
  sc.d_len <- 0;
  (match meter with
  | Some (m : Async.meter) -> m.m_buf (List.length st.h.h_buf)
  | None -> ());
  (* the order of [Async.successors] *)
  let acc = home_steps_to t sc meter st (-1) dummy_chan [] (home_local t sc.p_h) in
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := remote_steps_to t sc meter st i dummy_chan !acc (remote_local t sc.p_r.(i) i)
  done;
  for i = 0 to n - 1 do
    (match sc.p_th.(i).c_pop with
    | Some (m, tail) ->
      acc := home_steps_to t sc meter st i tail !acc (home_recv t sc.p_h i m)
    | None -> ());
    match sc.p_tr.(i).c_pop with
    | Some (m, tail) ->
      acc :=
        remote_steps_to t sc meter st i tail !acc (remote_recv t sc.p_r.(i) i m)
    | None -> ()
  done;
  let out = List.rev !acc in
  sc.b_out <- out;
  out

(* ---- keys ------------------------------------------------------------------------ *)

(* [id] as an unsigned LEB128 varint at [pos] of [b]; the position after. *)
let rec put_id b pos id =
  if id < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr id);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (id land 0x7f lor 0x80));
    put_id b (pos + 1) (id lsr 7)
  end

let put_ids sc =
  let pos = ref 0 in
  for c = 0 to Array.length sc.ids - 1 do
    pos := put_id sc.key !pos sc.ids.(c)
  done;
  Bytes.sub_string sc.key 0 !pos

(* The index of [st] in the batch, or -1. *)
let rec index_of st k = function
  | [] -> -1
  | (_, s) :: rest -> if s == st then k else index_of st (k + 1) rest

(* [st]'s component ids into [ids]: from the batch, or by interning. *)
let state_ids t sc st =
  let k = index_of st 0 sc.b_out in
  if k >= 0 then begin
    Array.blit sc.b_ids 0 sc.ids 0 (Array.length sc.ids);
    for j = sc.b_off.(k) to sc.b_off.(k + 1) - 1 do
      sc.ids.(sc.d_comp.(j)) <- sc.d_id.(j)
    done
  end
  else begin
    resolve t sc st;
    parent_ids t sc sc.ids
  end

let encode t st =
  let sc = scratch t in
  state_ids t sc st;
  put_ids sc

let bad key at what = Value.refuse (Value.cursor ~who:"Table.decode" key) at what

(* The shortest-form LEB128 id at [pos] of [key] (which starts at [at]),
   leaving [sc.pos] past it. *)
let rec read_id sc key at pos shift acc =
  if pos >= String.length key then bad key pos "truncated key"
  else
    let b = Char.code (String.unsafe_get key pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then begin
      if b = 0 && shift > 0 then bad key at "overlong id";
      sc.pos <- pos + 1;
      acc
    end
    else if shift >= 56 then bad key at "overlong id"
    else read_id sc key at (pos + 1) (shift + 7) acc

(* The component of the next id. *)
let next sc key p what =
  let at = sc.pos in
  let id = read_id sc key at at 0 0 in
  if id >= p.count then bad key at (Printf.sprintf "unknown %s id %d" what id);
  p.by_id.(id)

let decode t key =
  let sc = scratch t in
  let n = t.n in
  sc.p_st <- void;
  sc.b_out <- [];
  sc.pos <- 0;
  let h = next sc key t.homes "home" in
  sc.p_h <- h;
  for i = 0 to n - 1 do sc.p_r.(i) <- next sc key t.remotes "remote" done;
  for i = 0 to n - 1 do sc.p_th.(i) <- next sc key t.chans "channel" done;
  for i = 0 to n - 1 do sc.p_tr.(i) <- next sc key t.chans "channel" done;
  if sc.pos <> String.length key then bad key sc.pos "trailing bytes";
  let to_h = Array.make n [] and to_r = Array.make n [] in
  let r = if n = 0 then [||] else Array.make n sc.p_r.(0).r_v in
  for i = 0 to n - 1 do
    r.(i) <- sc.p_r.(i).r_v;
    to_h.(i) <- sc.p_th.(i).c_q;
    to_r.(i) <- sc.p_tr.(i).c_q
  done;
  let st = { Async.h = h.h_v; r; to_h; to_r } in
  sc.p_st <- st;
  st

let export t key =
  ignore (decode t key);
  let sc = scratch t in
  String.concat ""
    (sc.p_h.h_b
    :: List.concat_map
         (fun a -> Array.to_list a)
         [
           Array.map (fun r -> r.r_b) sc.p_r;
           Array.map (fun c -> c.c_b) sc.p_th;
           Array.map (fun c -> c.c_b) sc.p_tr;
         ])

let import t full = encode t (Async.decode t.prog full)

(* ---- canonical keys ------------------------------------------------------------

   [Symmetry.canonicalize] over the components of [c_st], gathered into
   [c_*]: their memoized signature parts and self-bits, and keys
   written from their bytes. *)

(* A successor of the batch is its parent's components, which are in
   [p_*] while the batch lasts ([resolve] and [decode] end it), with its
   recorded changes; any other state is interned into [p_*]. *)
let find_components t sc =
  let n = t.n in
  let st = sc.c_st in
  let k = index_of st 0 sc.b_out in
  if k < 0 then resolve t sc st;
  sc.c_h <- sc.p_h;
  for i = 0 to n - 1 do
    sc.c_r.(i) <- sc.p_r.(i);
    sc.c_th.(i) <- sc.p_th.(i);
    sc.c_tr.(i) <- sc.p_tr.(i)
  done;
  if k >= 0 then
    for j = sc.b_off.(k) to sc.b_off.(k + 1) - 1 do
      let comp = sc.d_comp.(j) and id = sc.d_id.(j) in
      if comp = 0 then sc.c_h <- by_id t t.homes id
      else if comp <= n then sc.c_r.(comp - 1) <- by_id t t.remotes id
      else if comp <= 2 * n then sc.c_th.(comp - 1 - n) <- by_id t t.chans id
      else sc.c_tr.(comp - 1 - (2 * n)) <- by_id t t.chans id
    done;
  (* fill every memo [compare_slots] reads *)
  for i = 0 to n - 1 do
    ignore (remote_sig t sc.c_r.(i) i);
    ignore (chan_sig t sc.c_th.(i) i);
    ignore (chan_sig t sc.c_tr.(i) i)
  done;
  ignore (home_bits t sc.c_h)

let compare_slots t sc a b =
  let c = String.compare sc.c_r.(a).r_sig.(a) sc.c_r.(b).r_sig.(b) in
  if c <> 0 then c
  else
    let c = String.compare sc.c_th.(a).c_sig.(a) sc.c_th.(b).c_sig.(b) in
    if c <> 0 then c
    else
      let c = String.compare sc.c_tr.(a).c_sig.(a) sc.c_tr.(b).c_sig.(b) in
      if c <> 0 then c else Symmetry.compare_self_bits t.n sc.c_h.h_bits a b

let add_chans b p inv (a : chan array) =
  for j = 0 to Array.length a - 1 do
    let c = a.(inv.(j)) in
    if c.c_rid then Async.add_channel_perm b p c.c_q else Buffer.add_string b c.c_b
  done

(* [Async.encode_perm ~p ~inv] of the state, component by component: a
   component that names no remote id keeps its own bytes. *)
let permuted_key sc ~p ~inv =
  let b = sc.kbuf in
  Buffer.clear b;
  let h = sc.c_h in
  if h.h_rid then Async.add_home_perm b p h.h_v else Buffer.add_string b h.h_b;
  for j = 0 to Array.length sc.c_r - 1 do
    let r = sc.c_r.(inv.(j)) in
    if r.r_rid then Async.add_remote_perm b p r.r_v else Buffer.add_string b r.r_b
  done;
  add_chans b p inv sc.c_th;
  add_chans b p inv sc.c_tr;
  Buffer.contents b

let canonical ?stats ?max_perms t st =
  let sc = scratch t in
  sc.c_st <- st;
  let key =
    Symmetry.canonicalize ?stats ?max_perms ~n:t.n
      ~signatures:(fun () -> find_components t sc)
      ~compare:(compare_slots t sc) ~encode_perm:(permuted_key sc) ()
  in
  sc.c_st <- void;
  key

let sizes t =
  [
    ("homes", t.homes.count);
    ("remotes", t.remotes.count);
    ("channels", t.chans.count);
    ("messages", t.msgs.count);
    ("signatures", t.sigs);
    ("memo_bytes", t.memo_words * (Sys.word_size / 8));
  ]
