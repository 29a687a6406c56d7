open Ccr_core
open Ccr_semantics

(* Rename remote ids through [p] inside a value. *)
let permute_value (p : int array) (v : Value.t) =
  match v with
  | Value.Vrid r -> Value.Vrid p.(r)
  | Value.Vset _ ->
    Value.set_of_list (List.map (fun r -> p.(r)) (Value.set_members v))
  | Value.Vunit | Value.Vbool _ | Value.Vint _ -> v

let permute_env p env = Array.map (permute_value p) env

let permute_msg p (m : Wire.msg) =
  { m with Wire.m_payload = List.map (permute_value p) m.m_payload }

let permute_wire p = function
  | Wire.Req m -> Wire.Req (permute_msg p m)
  | (Wire.Ack | Wire.Nack) as w -> w

(* New array whose slot [p.(i)] holds the (renamed) content of slot [i]. *)
let permute_slots p a f =
  if Array.length a = 0 then [||]
  else begin
    let a' = Array.make (Array.length a) (f a.(0)) in
    Array.iteri (fun i x -> a'.(p.(i)) <- f x) a;
    a'
  end

let permute_rv (_ : Prog.t) p (st : Rendezvous.state) : Rendezvous.state =
  {
    h = { st.h with env = permute_env p st.h.env };
    r =
      permute_slots p st.r (fun (ps : Rendezvous.pstate) ->
          { ps with env = permute_env p ps.env });
  }

let permute_async (_ : Prog.t) p (st : Async.state) : Async.state =
  let home =
    {
      st.Async.h with
      h_env = permute_env p st.Async.h.h_env;
      h_mode =
        (match st.Async.h.h_mode with
        | Async.Hcomm -> Async.Hcomm
        | Async.Htrans t ->
          Async.Htrans
            {
              t with
              peer = p.(t.peer);
              scratch = permute_env p t.scratch;
            });
      h_buf =
        List.map (fun (i, m) -> (p.(i), permute_msg p m)) st.Async.h.h_buf;
    }
  in
  let remote (r : Async.remote) =
    {
      Async.r_ctl = r.Async.r_ctl;
      r_env = permute_env p r.Async.r_env;
      r_mode =
        (match r.Async.r_mode with
        | Async.Rcomm -> Async.Rcomm
        | Async.Rtrans t ->
          Async.Rtrans { t with scratch = permute_env p t.scratch }
        | Async.Rwait t ->
          Async.Rwait { t with scratch = permute_env p t.scratch });
      r_buf = Option.map (permute_msg p) r.Async.r_buf;
    }
  in
  {
    Async.h = home;
    r = permute_slots p st.Async.r remote;
    to_h = permute_slots p st.Async.to_h (List.map (permute_wire p));
    to_r = permute_slots p st.Async.to_r (List.map (permute_wire p));
  }

(* All permutations of [0..n-1], as arrays. *)
let permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun r -> x :: r) (perms (List.filter (( <> ) x) l)))
        l
  in
  perms (List.init n Fun.id) |> List.map Array.of_list

(* {2 Canonicalization statistics} *)

(* Atomics so the parallel engine's worker domains can share one record;
   [tie_sizes.(s)] counts tie groups of size [s] (sizes >= 2 only).  The
   clock is read only for a record made with [~timing:true]. *)
let max_tie_bucket = 32

type stats = {
  st_calls : int Atomic.t;
  st_fallbacks : int Atomic.t;
  st_tied_calls : int Atomic.t;
  st_perms_tried : int Atomic.t;
  st_canon_ns : int Atomic.t;
  st_tie_sizes : int Atomic.t array;
  st_timing : bool;
}

let make_stats ?(timing = false) () =
  {
    st_calls = Atomic.make 0;
    st_fallbacks = Atomic.make 0;
    st_tied_calls = Atomic.make 0;
    st_perms_tried = Atomic.make 0;
    st_canon_ns = Atomic.make 0;
    st_tie_sizes = Array.init (max_tie_bucket + 1) (fun _ -> Atomic.make 0);
    st_timing = timing;
  }

let calls s = Atomic.get s.st_calls
let fallbacks s = Atomic.get s.st_fallbacks
let tied_calls s = Atomic.get s.st_tied_calls
let perms_tried s = Atomic.get s.st_perms_tried
let canon_seconds s = float_of_int (Atomic.get s.st_canon_ns) /. 1e9

let iter_tie_groups s f =
  Array.iteri
    (fun size c ->
      let count = Atomic.get c in
      if count > 0 then f ~size ~count)
    s.st_tie_sizes

let bump a k = if k <> 0 then ignore (Atomic.fetch_and_add a k)

let record_tie s len =
  bump s.st_tie_sizes.(min len max_tie_bucket) 1

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* A call's start time, when its stats time calls. *)
let start = function Some s when s.st_timing -> now_ns () | _ -> 0
let timed s t0 = if s.st_timing then bump s.st_canon_ns (now_ns () - t0)

(* {2 Brute-force canonicalization}

   Kept for [--symmetry brute] and as the test oracle for the fast path.
   The [n > max_fact] fallback returns the plain encoding — sound (it is
   still an injective key, so no two orbits merge) but it reduces nothing;
   it is now counted in [stats] instead of degrading silently. *)

let canonical ~permute ~encode ?stats ?(max_fact = 6) prog n st =
  let t0 = start stats in
  let key =
    if n > max_fact then begin
      Option.iter (fun s -> bump s.st_fallbacks 1) stats;
      encode st
    end
    else
      List.fold_left
        (fun best p ->
          Option.iter (fun s -> bump s.st_perms_tried 1) stats;
          let e = encode (permute prog p st) in
          match best with
          | Some b when String.compare b e <= 0 -> best
          | _ -> Some e)
        None (permutations n)
      |> Option.get
  in
  Option.iter
    (fun s ->
      bump s.st_calls 1;
      timed s t0)
    stats;
  key

let canonical_rv ?stats ?max_fact (prog : Prog.t) st =
  canonical ~permute:permute_rv ~encode:Rendezvous.encode ?stats ?max_fact
    prog prog.n st

let canonical_async ?stats ?max_fact (prog : Prog.t) st =
  canonical ~permute:permute_async ~encode:Async.encode ?stats ?max_fact prog
    prog.n st

(* {2 Fast canonicalization: signature sort + tie refinement}

   Per remote slot compute a permutation-equivariant {e signature}: slot
   [p.(i)] of the permuted state has the same signature as slot [i] of the
   original.  Sorting slots by signature then fixes the canonical position
   of every slot whose signature is unique; only slots inside {e tied}
   signature groups can still be reordered, so the minimal encoding is
   found by enumerating arrangements within tie groups only.  The common
   case (all signatures distinct) is one sort and one [encode_perm]
   instead of [n!] permute+encode rounds.

   Equivariance is what makes the result exactly canonical: applying the
   candidate set to any orbit member yields the same set of permuted
   states, so the minimum over it does not depend on the representative.
   Rid-valued data is abstracted {e relative to the slot} (self/other bit,
   set cardinality + contains-self) — exactly the features preserved by
   renaming.  A too-coarse signature only costs time (bigger tie groups),
   never correctness.

   A signature has two parts, compared in this order:
   - the slot's {e local} bytes: its remote and, at the async level, its
     two channels, each part ended by ['|'] ({!remote_signature},
     {!channel_signature});
   - its {e home self-bits}: one bit per rid-valued feature of the home
     (a rid or set value, the transient peer, a buffered request's
     sender), set when the feature refers to the slot.  Every slot sees
     the same home, so these bits are all that tells slots apart there,
     and one walk of the home sets them for every slot.

   Checkpoints hold canonical keys, so the order must stay that of the
   one-string signature [local ^ v], where [v] writes the home with each
   self-bit as a '0'/'1' character: no part is a proper prefix of
   another of its kind (each field is length-prefixed or ended by a byte
   that cannot start the next), so comparing the parts in turn compares
   their concatenation, and two slots' [v] have equal length and differ
   only in those characters, first feature first.  Sort, tie groups and
   keys are the same.

   Every part is a function of one component and the slot alone, so the
   async level's parts are memoized per component by {!Table.canonical};
   this module keeps the sort and tie enumeration ({!canonicalize}) and
   the rendezvous level, which computes its parts per call. *)

(* Per-domain scratch: the rendezvous level's local signature parts and
   home self-bits, the sort order, the candidate permutation and its
   inverse, plus the orbit size of the last canonicalized state (0 =
   unknown, e.g. after a fallback).  Self-bits are walked into [bits]
   ([words] in use, [bit] the current feature's bit in the last one). *)
type scratch = {
  mutable cap : int;
  mutable locals : string array;
  mutable bits : int array;
  mutable words : int;
  mutable bit : int;
  mutable order : int array;
  mutable perm : int array;
  mutable inv : int array;
  sbuf : Buffer.t;
  mutable last_orbit : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        locals = [||];
        bits = [||];
        words = 0;
        bit = 0;
        order = [||];
        perm = [||];
        inv = [||];
        sbuf = Buffer.create 256;
        last_orbit = 0;
      })

let ensure sc n =
  if sc.cap < n then begin
    sc.cap <- n;
    sc.locals <- Array.make n "";
    sc.order <- Array.make n 0;
    sc.perm <- Array.make n 0;
    sc.inv <- Array.make n 0
  end

let last_orbit () = (Domain.DLS.get scratch_key).last_orbit

let rec fact n = if n <= 1 then 1 else n * fact (n - 1)

(* n! for the orbit-size computation; 0 = too big to represent. *)
let factorial n = if n > 20 then 0 else fact n

(* Slot-relative value abstraction: every feature written here is
   preserved when ids are renamed and the slot moves along. *)
let sig_value buf ~self (v : Value.t) =
  match v with
  | Value.Vrid r ->
    Buffer.add_char buf 'R';
    Buffer.add_char buf (if r = self then '1' else '0')
  | Value.Vset _ ->
    Buffer.add_char buf 'S';
    Value.encode_int buf (Value.set_cardinal v);
    Buffer.add_char buf (if Value.set_mem self v then '1' else '0')
  | Value.Vunit | Value.Vbool _ | Value.Vint _ ->
    Buffer.add_char buf 'V';
    Value.encode buf v

let sig_env buf ~self e =
  for j = 0 to Array.length e - 1 do
    sig_value buf ~self (Array.unsafe_get e j)
  done

let sig_msg buf ~self (m : Wire.msg) =
  Value.encode_int buf (String.length m.m_name);
  Buffer.add_string buf m.m_name;
  Value.encode_int buf (List.length m.m_payload);
  List.iter (sig_value buf ~self) m.m_payload

let sig_wire buf ~self = function
  | Wire.Ack -> Buffer.add_char buf 'a'
  | Wire.Nack -> Buffer.add_char buf 'n'
  | Wire.Req m ->
    Buffer.add_char buf 'q';
    sig_msg buf ~self m

let signature f =
  let buf = Buffer.create 32 in
  f buf;
  Buffer.contents buf

(* {3 Local parts} *)

let rv_local buf (st : Rendezvous.state) i =
  let r = st.r.(i) in
  Value.encode_int buf r.ctl;
  sig_env buf ~self:i r.env;
  Buffer.add_char buf '|'

let remote_signature (r : Async.remote) i =
  signature (fun buf ->
      Value.encode_int buf r.Async.r_ctl;
      sig_env buf ~self:i r.Async.r_env;
      (match r.Async.r_mode with
      | Async.Rcomm -> Buffer.add_char buf 'c'
      | Async.Rtrans { guard; scratch } ->
        Buffer.add_char buf 't';
        Value.encode_int buf guard;
        sig_env buf ~self:i scratch
      | Async.Rwait { guard; scratch; repl } ->
        Buffer.add_char buf 'w';
        Value.encode_int buf guard;
        Value.encode_int buf (String.length repl);
        Buffer.add_string buf repl;
        sig_env buf ~self:i scratch);
      (match r.Async.r_buf with
      | None -> Buffer.add_char buf '0'
      | Some m ->
        Buffer.add_char buf '1';
        sig_msg buf ~self:i m);
      Buffer.add_char buf '|')

(* the end marker keeps a channel from being a prefix of a longer one *)
let channel_signature q i =
  signature (fun buf ->
      List.iter (sig_wire buf ~self:i) q;
      Buffer.add_char buf '|')

(* {3 Home self-bits}

   Features are numbered in the order the home is walked; feature [k]
   lives in word [k / word_bits], most significant bit first, so numeric
   order on words is the order of the self-bit characters.  Word [w] of
   slot [i] is at [w * n + i]; the walk writes the scratch. *)

let word_bits = 62 (* a non-negative OCaml int *)

let start_home sc =
  sc.words <- 0;
  sc.bit <- 0

(* Open the next feature: the next bit of the current word, or a new
   all-clear word. *)
let next_feature sc n =
  sc.bit <- sc.bit lsr 1;
  if sc.bit = 0 then begin
    let off = sc.words * n in
    if Array.length sc.bits < off + n then begin
      let a = Array.make (2 * (off + n)) 0 in
      Array.blit sc.bits 0 a 0 off;
      sc.bits <- a
    end;
    Array.fill sc.bits off n 0;
    sc.words <- sc.words + 1;
    sc.bit <- 1 lsl (word_bits - 1)
  end

(* The open feature refers to slot [i] (nothing, if [i] is no slot). *)
let mark sc n i =
  if i >= 0 && i < n then begin
    let k = ((sc.words - 1) * n) + i in
    sc.bits.(k) <- sc.bits.(k) lor sc.bit
  end

let feat_value sc n (v : Value.t) =
  match v with
  | Value.Vrid r ->
    next_feature sc n;
    mark sc n r
  | Value.Vset m ->
    next_feature sc n;
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then mark sc n i
    done
  | Value.Vunit | Value.Vbool _ | Value.Vint _ -> ()

let feat_env sc n e =
  for j = 0 to Array.length e - 1 do
    feat_value sc n (Array.unsafe_get e j)
  done

(* Whether home data, the transient peer or a buffered request's sender
   refers to each slot. *)
let home_self_bits n (h : Async.home) =
  let sc = Domain.DLS.get scratch_key in
  start_home sc;
  feat_env sc n h.Async.h_env;
  (match h.Async.h_mode with
  | Async.Hcomm -> ()
  | Async.Htrans { peer; scratch; _ } ->
    next_feature sc n;
    mark sc n peer;
    feat_env sc n scratch);
  List.iter
    (fun (j, (m : Wire.msg)) ->
      next_feature sc n;
      mark sc n j;
      List.iter (feat_value sc n) m.m_payload)
    h.Async.h_buf;
  Array.sub sc.bits 0 (sc.words * n)

(* The order of slots [a] and [b] by the self-bit words [bits.(0 .. len - 1)]. *)
let rec compare_words n bits len a b off =
  if off >= len then 0
  else
    let c = Int.compare bits.(off + a) bits.(off + b) in
    if c <> 0 then c else compare_words n bits len a b (off + n)

let compare_self_bits n bits a b = compare_words n bits (Array.length bits) a b 0

let default_max_perms = 5040 (* 7!: brute-force cost we never exceed *)

(* The key of the slot order in [order]: slot [order.(j)] goes to [j]. *)
let use_order sc n encode_perm =
  for j = 0 to n - 1 do
    sc.inv.(j) <- sc.order.(j);
    sc.perm.(sc.order.(j)) <- j
  done;
  encode_perm ~p:sc.perm ~inv:sc.inv

let canonicalize ?stats ?(max_perms = default_max_perms) ~n ~signatures
    ~compare ~encode_perm () =
  let sc = Domain.DLS.get scratch_key in
  ensure sc n;
  let t0 = start stats in
  signatures ();
  (* Insertion sort of the slot order by signature: n is small and the
     array is in scratch, so this beats Array.sort. *)
  for i = 0 to n - 1 do
    sc.order.(i) <- i
  done;
  for i = 1 to n - 1 do
    let x = sc.order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare sc.order.(!j) x > 0 do
      sc.order.(!j + 1) <- sc.order.(!j);
      decr j
    done;
    sc.order.(!j + 1) <- x
  done;
  (* Tie groups: runs of equal signatures in sorted order.  The number of
     candidate permutations is the product of the group factorials. *)
  let groups = ref [] in
  let candidates = ref 1 in
  let tied = ref false in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && compare sc.order.(!i) sc.order.(!j) = 0 do
      incr j
    done;
    let len = !j - !i in
    if len > 1 then begin
      tied := true;
      groups := (!i, !j - 1) :: !groups;
      Option.iter (fun s -> record_tie s len) stats;
      let f = factorial len in
      candidates :=
        (if f = 0 || !candidates > max_perms / f then max_perms + 1
         else !candidates * f)
    end;
    i := !j
  done;
  let tried = ref 0 in
  let key =
    if not !tied then begin
      (* All signatures distinct: the sorted order IS the canonical order,
         and distinct signatures rule out any non-trivial stabilizer. *)
      tried := 1;
      sc.last_orbit <- factorial n;
      use_order sc n encode_perm
    end
    else if !candidates > max_perms then begin
      (* Too many tied arrangements: keep the signature-sorted order as a
         deterministic (injective, hence sound) key and report the
         degradation instead of hiding it. *)
      Option.iter (fun s -> bump s.st_fallbacks 1) stats;
      sc.last_orbit <- 0;
      use_order sc n encode_perm
    end
    else begin
      let garr = Array.of_list !groups in
      let best = ref "" in
      let stab = ref 0 in
      let try_candidate () =
        incr tried;
        let e = use_order sc n encode_perm in
        if !stab = 0 then begin
          best := e;
          stab := 1
        end
        else
          let c = String.compare e !best in
          if c < 0 then begin
            best := e;
            stab := 1
          end
          else if c = 0 then incr stab
      in
      let rec enum gi =
        if gi = Array.length garr then try_candidate ()
        else begin
          let lo, hi = garr.(gi) in
          arrange lo hi gi
        end
      and arrange k hi gi =
        if k >= hi then enum (gi + 1)
        else
          for j = k to hi do
            let t = sc.order.(k) in
            sc.order.(k) <- sc.order.(j);
            sc.order.(j) <- t;
            arrange (k + 1) hi gi;
            let t = sc.order.(k) in
            sc.order.(k) <- sc.order.(j);
            sc.order.(j) <- t
          done
      in
      enum 0;
      (* Candidates achieving the minimum are exactly the stabilizer of
         the canonical representative, so orbit size = n! / |stab|. *)
      let f = factorial n in
      sc.last_orbit <- (if f = 0 then 0 else f / !stab);
      !best
    end
  in
  (match stats with
  | None -> ()
  | Some s ->
    bump s.st_calls 1;
    if !tied then bump s.st_tied_calls 1;
    bump s.st_perms_tried !tried;
    timed s t0);
  key

let canonical_rv_fast ?stats ?max_perms (prog : Prog.t) st =
  let n = prog.n in
  let sc = Domain.DLS.get scratch_key in
  canonicalize ?stats ?max_perms ~n
    ~signatures:(fun () ->
      for i = 0 to n - 1 do
        Buffer.clear sc.sbuf;
        rv_local sc.sbuf st i;
        sc.locals.(i) <- Buffer.contents sc.sbuf
      done;
      start_home sc;
      feat_env sc n st.h.env)
    ~compare:(fun a b ->
      let c = String.compare sc.locals.(a) sc.locals.(b) in
      if c <> 0 then c else compare_words n sc.bits (sc.words * n) a b 0)
    ~encode_perm:(fun ~p ~inv -> Rendezvous.encode_perm ~p ~inv st)
    ()
