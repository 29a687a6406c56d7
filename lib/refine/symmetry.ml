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
   [tie_sizes.(s)] counts tie groups of size [s] (sizes >= 2 only). *)
let max_tie_bucket = 32

type stats = {
  st_calls : int Atomic.t;
  st_fallbacks : int Atomic.t;
  st_tied_calls : int Atomic.t;
  st_perms_tried : int Atomic.t;
  st_canon_ns : int Atomic.t;
  st_tie_sizes : int Atomic.t array;
}

let make_stats () =
  {
    st_calls = Atomic.make 0;
    st_fallbacks = Atomic.make 0;
    st_tied_calls = Atomic.make 0;
    st_perms_tried = Atomic.make 0;
    st_canon_ns = Atomic.make 0;
    st_tie_sizes = Array.init (max_tie_bucket + 1) (fun _ -> Atomic.make 0);
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

(* {2 Brute-force canonicalization}

   Kept for [--symmetry brute] and as the test oracle for the fast path.
   The [n > max_fact] fallback returns the plain encoding — sound (it is
   still an injective key, so no two orbits merge) but it reduces nothing;
   it is now counted in [stats] instead of degrading silently. *)

let canonical ~permute ~encode ?stats ?(max_fact = 6) prog n st =
  let t0 = match stats with None -> 0 | Some _ -> now_ns () in
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
      bump s.st_canon_ns (now_ns () - t0))
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
     two channels, ended by ['|'];
   - its {e home self-bits}: one bit per rid-valued feature of the home
     (a rid or set value, the transient peer, a buffered request's
     sender), set when the feature refers to the slot.  Every slot sees
     the same home, so these bits are all that tells slots apart there,
     and one walk of the home sets them for every slot.

   Checkpoints hold canonical keys, so the order must stay that of the
   one-string signature [local ^ v], where [v] writes the home with each
   self-bit as a '0'/'1' character: no local part is a proper prefix of
   another (each field is length-prefixed or ended by a byte that cannot
   start the next), and two slots' [v] have equal length and differ only
   in those characters, first feature first.  Sort, tie groups and keys
   are the same. *)

(* Per-domain scratch: local signature parts, home self-bits (word [w] of
   slot [i] at [bits.(w * n + i)], [words] in use, [bit] the current
   feature's bit in the last one), sort order, candidate permutation and
   its inverse, the decoded parent whose local parts [parent_locals]
   caches ([""] = not computed yet), plus the orbit size of the last
   canonicalized state (0 = unknown, e.g. after a fallback). *)
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
  mutable parent : Async.state option;
  mutable parent_locals : string array;
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
        parent = None;
        parent_locals = [||];
        last_orbit = 0;
      })

let ensure sc n =
  if sc.cap < n then begin
    sc.cap <- n;
    sc.locals <- Array.make n "";
    sc.order <- Array.make n 0;
    sc.perm <- Array.make n 0;
    sc.inv <- Array.make n 0;
    sc.parent <- None;
    sc.parent_locals <- Array.make n ""
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

(* {3 Local parts} *)

let rv_local buf (st : Rendezvous.state) i =
  let r = st.r.(i) in
  Value.encode_int buf r.ctl;
  sig_env buf ~self:i r.env;
  Buffer.add_char buf '|'

let async_local buf (st : Async.state) i =
  let r = st.r.(i) in
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
  Buffer.add_char buf '|';
  List.iter (sig_wire buf ~self:i) st.Async.to_h.(i);
  Buffer.add_char buf '|';
  List.iter (sig_wire buf ~self:i) st.Async.to_r.(i);
  (* the end marker keeps a channel from being a prefix of a longer one *)
  Buffer.add_char buf '|'

let local sc sig_local st i =
  Buffer.clear sc.sbuf;
  sig_local sc.sbuf st i;
  Buffer.contents sc.sbuf

let cold_locals sig_local sc n st =
  for i = 0 to n - 1 do
    sc.locals.(i) <- local sc sig_local st i
  done

let rv_locals sc n st = cold_locals rv_local sc n st

(* Parent reuse.  A slot whose remote and both channels are physically
   those of the parent [Async.decode] last returned has that parent's
   local part, computed once per parent on first use: states are never
   changed in place (see {!Async.state}), so [==] components hold the
   same values, and a local part depends on nothing else.  The cache
   holds the parent itself, so no other state can take its address while
   the cache is keyed on it.  A decoded base has [n] slots in each of its
   arrays; one from a program of another size is not used. *)
let async_locals sc n (st : Async.state) =
  match Async.splice_base () with
  | Some p when Array.length p.r = n ->
    (match sc.parent with
    | Some q when q == p -> ()
    | _ ->
      sc.parent <- Some p;
      Array.fill sc.parent_locals 0 n "");
    for i = 0 to n - 1 do
      sc.locals.(i) <-
        (if
           st.r.(i) == p.r.(i)
           && st.to_h.(i) == p.to_h.(i)
           && st.to_r.(i) == p.to_r.(i)
         then begin
           let l = sc.parent_locals.(i) in
           if l <> "" then l
           else begin
             let l = local sc async_local st i in
             sc.parent_locals.(i) <- l;
             l
           end
         end
         else local sc async_local st i)
    done
  | _ -> cold_locals async_local sc n st

(* {3 Home self-bits}

   Features are numbered in the order the home is walked; feature [k]
   lives in word [k / word_bits], most significant bit first, so numeric
   order on words is the order of the self-bit characters. *)

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

let rec feat_values sc n = function
  | [] -> ()
  | v :: rest ->
    feat_value sc n v;
    feat_values sc n rest

let rec feat_h_buf sc n = function
  | [] -> ()
  | (j, (m : Wire.msg)) :: rest ->
    next_feature sc n;
    mark sc n j;
    feat_values sc n m.m_payload;
    feat_h_buf sc n rest

let rv_home sc n (st : Rendezvous.state) =
  start_home sc;
  feat_env sc n st.h.env

(* Whether home data, the transient peer or a buffered request's sender
   refers to each slot. *)
let async_home sc n (st : Async.state) =
  start_home sc;
  let h = st.Async.h in
  feat_env sc n h.Async.h_env;
  (match h.Async.h_mode with
  | Async.Hcomm -> ()
  | Async.Htrans { peer; scratch; _ } ->
    next_feature sc n;
    mark sc n peer;
    feat_env sc n scratch);
  feat_h_buf sc n h.Async.h_buf

(* Signature order of slots [a] and [b]: local bytes, then self-bits. *)
let compare_slots sc n a b =
  let c = String.compare sc.locals.(a) sc.locals.(b) in
  if c <> 0 then c
  else begin
    let c = ref 0 and w = ref 0 in
    while !c = 0 && !w < sc.words do
      c := Int.compare sc.bits.((!w * n) + a) sc.bits.((!w * n) + b);
      incr w
    done;
    !c
  end

let default_max_perms = 5040 (* 7!: brute-force cost we never exceed *)

let canonicalize ~locals ~home ~encode_perm ?stats
    ?(max_perms = default_max_perms) ~n st =
  let sc = Domain.DLS.get scratch_key in
  ensure sc n;
  let t0 = match stats with None -> 0 | Some _ -> now_ns () in
  locals sc n st;
  home sc n st;
  (* Insertion sort of the slot order by signature: n is small and the
     array is in scratch, so this beats a closure-driven Array.sort. *)
  for i = 0 to n - 1 do
    sc.order.(i) <- i
  done;
  for i = 1 to n - 1 do
    let x = sc.order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_slots sc n sc.order.(!j) x > 0 do
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
    while !j < n && compare_slots sc n sc.order.(!i) sc.order.(!j) = 0 do
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
  let use_order () =
    for j = 0 to n - 1 do
      sc.inv.(j) <- sc.order.(j);
      sc.perm.(sc.order.(j)) <- j
    done;
    encode_perm ~p:sc.perm ~inv:sc.inv st
  in
  let tried = ref 0 in
  let key =
    if not !tied then begin
      (* All signatures distinct: the sorted order IS the canonical order,
         and distinct signatures rule out any non-trivial stabilizer. *)
      incr tried;
      sc.last_orbit <- factorial n;
      use_order ()
    end
    else if !candidates > max_perms then begin
      (* Too many tied arrangements: keep the signature-sorted order as a
         deterministic (injective, hence sound) key and report the
         degradation instead of hiding it. *)
      Option.iter (fun s -> bump s.st_fallbacks 1) stats;
      sc.last_orbit <- 0;
      use_order ()
    end
    else begin
      let garr = Array.of_list !groups in
      let best = ref "" in
      let stab = ref 0 in
      let try_candidate () =
        incr tried;
        let e = use_order () in
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
  Option.iter
    (fun s ->
      bump s.st_calls 1;
      if !tied then bump s.st_tied_calls 1;
      bump s.st_perms_tried !tried;
      bump s.st_canon_ns (now_ns () - t0))
    stats;
  key

let canonical_rv_fast ?stats ?max_perms (prog : Prog.t) st =
  canonicalize ~locals:rv_locals ~home:rv_home
    ~encode_perm:Rendezvous.encode_perm ?stats ?max_perms ~n:prog.n st

let canonical_async_fast ?stats ?max_perms (prog : Prog.t) st =
  canonicalize ~locals:async_locals ~home:async_home
    ~encode_perm:Async.encode_perm ?stats ?max_perms ~n:prog.n st
