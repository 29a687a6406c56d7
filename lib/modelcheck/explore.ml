type 's canon = {
  canon_key : 's -> string;
  canon_fresh : ('s -> unit) option;
  canon_fallbacks : unit -> int;
}

type key_io = { export : string -> string; import : string -> string }

type ('s, 'l) system = {
  init : 's;
  succ : 's -> ('l * 's) list;
  encode : 's -> string;
  decode : string -> 's;
  canon : 's canon option;
  key_io : key_io option;
}

(* Visited-set key function and fresh-state callback: under symmetry
   reduction states are deduplicated by canonical key while the concrete
   state flows on to successor generation and traces. *)
let key_fns sys =
  match sys.canon with
  | None -> (sys.encode, (fun _ -> ()), fun () -> 0)
  | Some c ->
    ( c.canon_key,
      (match c.canon_fresh with None -> fun _ -> () | Some f -> f),
      c.canon_fallbacks )

(* How [encode]d keys leave a run (checkpoint) and come back (resume). *)
let key_io sys =
  match sys.key_io with
  | Some io -> (io.export, io.import)
  | None -> (Fun.id, Fun.id)

(* The frontier entry of a fresh state [st] stored under [key]: the key
   itself without symmetry reduction (the very string the store holds),
   the concrete state's encoding with it — the concrete state, not its
   orbit representative, is what gets expanded and replayed. *)
let frontier_key sys =
  match sys.canon with
  | None -> fun key _ -> key
  | Some _ -> fun _ st -> sys.encode st

type limit = L_states | L_memory | L_time | L_interrupt

type visited_mode = Exact | Bitstate of int

type 's outcome =
  | Complete
  | Limit of limit
  | Violation of { invariant : string; state : 's }
  | Deadlock of 's

type ('s, 'l) stats = {
  outcome : 's outcome;
  states : int;
  transitions : int;
  time_s : float;
  mem_bytes : int;
  raw_bytes : int;
  peak_frontier : int;
  max_depth : int;
  canon_fallbacks : int;
  trace : ('l option * 's) list option;
}

(* ---- checkpoint control ---------------------------------------------------

   The driver knows nothing about checkpoint files; it offers level
   boundaries through this control record (see explore.mli) and the
   callback (the [Ckpt] layer) decides whether to actually write. *)

type ckpt_view = {
  v_states : int;
  v_transitions : int;
  v_depth : int;
  v_final : bool;
  v_frontier : string array Lazy.t;
  v_iter_keys : (string -> unit) -> unit;
}

type ckpt_resume = {
  r_states : int;
  r_transitions : int;
  r_depth : int;
  r_frontier : string array;
  r_keys : (string -> unit) -> unit;
  r_refused : string -> string;
}

type ckpt = { ck_resume : ckpt_resume option; ck_save : ckpt_view -> unit }

let bitstate_positions = Vstore.bitstate_positions

(* Reconstruct the path to state [id] from a provenance table: walk the
   parent chain (O(depth) packed-slot reads), then replay the recorded
   successor ordinals from the initial state.  Exact — each ordinal pins
   one concrete transition, including under symmetry reduction (the
   replayed states are the concrete representatives the driver
   expanded). *)
let replay_path prov sys id =
  let rec go st ords acc =
    match ords with
    | [] -> List.rev acc
    | ord :: rest -> (
      match List.nth_opt (sys.succ st) ord with
      | Some (label, st') -> go st' rest ((Some label, st') :: acc)
      | None -> invalid_arg "Explore.replay_path: stale provenance ordinal")
  in
  go sys.init (Vstore.Prov.chain prov id) [ (None, sys.init) ]

(* One shard's visited set: exact in-memory or out-of-core per the
   [store] kind, or bitstate when the [visited] mode asks for it (bitstate
   changes the semantics — approximate counts — so it stays a mode, not a
   store, and takes precedence).  A bitstate table is split over the
   shards, keeping the total at [2^bits] bits. *)
let make_store ~shards visited kind =
  match visited with
  | Exact -> Vstore.make kind
  | Bitstate b ->
    let rec log2 n = if n <= 1 then 0 else 1 + log2 ((n + 1) / 2) in
    Vstore.bitstate (b - log2 shards)

(* ---- domain shards ----------------------------------------------------------

   The driver below runs one BFS level at a time against [jobs] visited
   stores, one per shard of the key space.  With one shard it streams:
   successors are deduplicated the moment they are generated, which is
   already sequential discovery order.  With more, the domains expand the
   whole level, route each candidate to the shard owning its key, and let
   each owner dedup its candidates in tag order; the driver's rank merge
   then replays the fresh ones in sequential order. *)

(* Shard routing uses a third hash seed so it stays independent of both the
   exact store's probe hash (seed 0) and the bitstate positions (0 and 1). *)
let shard_seed = 2

(* A candidate's tag packs its frontier index and successor ordinal into
   one int that sorts in sequential discovery order. *)
let tag i ord =
  if ord > 0xffff then invalid_arg "Explore.run: more than 65536 successors";
  (i lsl 16) lor ord

(* Successor candidates as columns — tag, key, state — appended in tag
   order: three words per candidate in arrays that live in the major
   heap, rather than a tuple and a list cell each on the minor heap. *)
type 's cands = {
  mutable tags : int array;
  mutable keys : string array;
  mutable sts : 's array;
  mutable n : int;
}

let cands () = { tags = [||]; keys = [||]; sts = [||]; n = 0 }

let push c t key st =
  if c.n = Array.length c.tags then begin
    let cap = max 64 (2 * c.n) in
    let grow a x =
      let b = Array.make cap x in
      Array.blit a 0 b 0 c.n;
      b
    in
    c.tags <- grow c.tags 0;
    c.keys <- grow c.keys "";
    c.sts <- grow c.sts st
  end;
  c.tags.(c.n) <- t;
  c.keys.(c.n) <- key;
  c.sts.(c.n) <- st;
  c.n <- c.n + 1

(* Visit the candidates of [bufs], each sorted by tag, in tag order:
   [f b h] for the [h]-th candidate of buffer [b]. *)
let merge_iter bufs f =
  let heads = Array.make (Array.length bufs) 0 in
  let more = ref true in
  while !more do
    let best = ref (-1) and best_t = ref max_int in
    Array.iteri
      (fun b c ->
        let h = heads.(b) in
        if h < c.n && c.tags.(h) < !best_t then begin
          best := b;
          best_t := c.tags.(h)
        end)
      bufs;
    if !best < 0 then more := false
    else begin
      let h = heads.(!best) in
      heads.(!best) <- h + 1;
      f !best h
    end
  done

(* [f 0] .. [f (n - 1)], each on its own domain ([f 0] on the caller's);
   an exception re-raises once every domain has joined. *)
let parallel n f =
  let doms = List.init (n - 1) (fun k -> Domain.spawn (fun () -> f (k + 1))) in
  let mine = match f 0 with () -> None | exception e -> Some e in
  let errs =
    List.filter_map
      (fun d -> match Domain.join d with () -> None | exception e -> Some e)
      doms
  in
  match (mine, errs) with
  | Some e, _ | None, e :: _ -> raise e
  | None, [] -> ()

(* Expand the frontier [keys] on [jobs] domains, off an atomic cursor,
   decoding each key as it is claimed: every successor of the k-th state
   as (tag k ord, key, state), in per-domain buffers bucketed by
   [owner key] — each sorted by tag.  [out.(d).(o)] holds what domain [d]
   generated for shard [o].  Expansion stops once [halt ()] says so; the
   flag reports it. *)
let expand ~jobs ~owner ~key_of ~succ ~decode ~halt keys =
  let len = Array.length keys in
  let out = Array.init jobs (fun _ -> Array.init jobs (fun _ -> cands ())) in
  let cursor = Atomic.make 0 and halted = Atomic.make false in
  parallel jobs (fun d ->
      let mine = out.(d) in
      let rec claim () =
        let start = Atomic.fetch_and_add cursor 32 in
        if start < len then begin
          for k = start to min len (start + 32) - 1 do
            if Atomic.get halted || halt () then Atomic.set halted true
            else
              List.iteri
                (fun ord (_, st') ->
                  let key = key_of st' in
                  push mine.(owner key) (tag k ord) key st')
                (succ (decode keys.(k)))
          done;
          claim ()
        end
      in
      claim ());
  (out, Atomic.get halted)

(* Successor counts per frontier index, from the candidates' tags. *)
let count_succ len out =
  let nsucc = Array.make len 0 in
  Array.iter
    (Array.iter (fun c ->
         for k = 0 to c.n - 1 do
           let i = c.tags.(k) lsr 16 in
           nsucc.(i) <- nsucc.(i) + 1
         done))
    out;
  nsucc

let first_viol a b =
  match (a, b) with
  | None, v | v, None -> v
  | Some (t1, _), Some (t2, _) -> if t1 <= t2 then a else b

(* Dedup one owner's candidates, given as tag-sorted buffers, in
   sequential discovery order: the fresh ones, each with its frontier
   key, and the tag-least fresh violation. *)
let dedup ~add ~fkey ~violated bufs =
  let fresh = cands () and viol = ref None in
  merge_iter bufs (fun b h ->
      let c = bufs.(b) in
      let t = c.tags.(h) and key = c.keys.(h) and st = c.sts.(h) in
      if add key then begin
        push fresh t (fkey key st) st;
        if !viol = None then
          Option.iter (fun name -> viol := Some (t, name)) (violated st)
      end);
  (fresh, !viol)

(* ---- the driver -------------------------------------------------------------

   At any shard count, the driver sees each level's discoveries in
   sequential BFS order: frontier index [i] expanded (with its successor
   count), then its fresh successors by ordinal.  Everything observable is
   decided here, once: ids and provenance, [on_level], invariant and
   deadlock events, the caps, progress and the checkpoint view.  Because
   the replay is in sequential order, the driver stops exactly where the
   sequential engine would: a deadlock at index [i] comes before any
   discovery from [i], a violation before a cap on the same state, and
   the transition count at a stop on [(i, ord)] is the successor count of
   indices before [i] plus [ord + 1]. *)

let run ?(jobs = 1) ?(visited = Exact) ?(store = Vstore.Mem) ?max_states
    ?max_mem_bytes ?max_time_s ?(check_deadlock = false) ?(trace = false)
    ?(invariants = []) ?on_progress ?(progress_every = 8192) ?prov ?on_level
    ?interrupt ?ckpt sys =
  let t0 = Unix.gettimeofday () in
  let key_of, on_fresh, canon_fallbacks = key_fns sys in
  let fkey = frontier_key sys in
  (* frontier keys are [encode]d; visited keys are canonical under
     [canon], and those are portable as they are *)
  let fexport, fimport = key_io sys in
  let export, import =
    if sys.canon = None then (fexport, fimport) else (Fun.id, Fun.id)
  in
  let jobs = max 1 jobs in
  (* counterexamples are rebuilt from provenance: without the caller's
     table, an internal one (8 bytes per state) *)
  let prov =
    match prov with None when trace -> Some (Vstore.Prov.create ()) | p -> p
  in
  let violated st =
    List.find_map
      (fun (name, ok) -> if ok st then None else Some name)
      invariants
  in
  let deadline = Option.map (( +. ) t0) max_time_s in
  let poll () =
    match (deadline, interrupt) with
    | Some d, _ when Unix.gettimeofday () > d -> Some L_time
    | _, Some f when f () -> Some L_interrupt
    | _ -> None
  in
  let stores =
    Array.init jobs (fun _ -> make_store ~shards:jobs visited store)
  in
  let owner key = Hashtbl.seeded_hash shard_seed key mod jobs in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 stores in
  let mem_bytes () = sum (fun s -> s.Vstore.mem_bytes ()) in
  (* largest shard over the mean shard *)
  let balance () =
    let total = sum (fun s -> s.Vstore.count ()) in
    if total = 0 then 1.0
    else
      let most =
        Array.fold_left (fun m s -> max m (s.Vstore.count ())) 0 stores
      in
      float_of_int (most * jobs) /. float_of_int total
  in
  let n_states = ref 0 and trans = ref 0 and trans_before = ref 0 in
  let max_depth = ref 0 and peak = ref 0 in
  let outcome = ref None and stop_counts = ref (0, 0, 0) and bad_id = ref 0 in
  (* a cap stop with a checkpoint attached completes its level (ids,
     provenance, store) so that the final checkpoint is a boundary; the
     reported figures stay those of the stop *)
  let finishing = ref false in
  let stopped () = !outcome <> None && not !finishing in
  let stop ~transitions o =
    if !outcome = None then begin
      outcome := Some o;
      stop_counts := (!n_states, transitions, !max_depth);
      finishing :=
        ckpt <> None
        && match o with Limit (L_states | L_memory) -> true | _ -> false
    end
  in
  (* the level under construction, in id order, as frontier keys: states
     are decoded only when expanded, so nothing structured outlives a
     level *)
  let next = ref [||] and next_len = ref 0 in
  let take () =
    let a = Array.sub !next 0 !next_len in
    next := [||];
    next_len := 0;
    a
  in
  let progress =
    match on_progress with
    | None -> fun _ -> ()
    | Some f ->
      fun depth ->
        if !n_states mod progress_every = 0 then begin
          let elapsed = Unix.gettimeofday () -. t0 in
          f
            {
              Ccr_obs.Progress.states = !n_states;
              transitions = !trans;
              depth;
              frontier = !next_len;
              rate =
                (if elapsed > 0. then float_of_int !n_states /. elapsed else 0.);
              mem_bytes = mem_bytes ();
              shard_balance = balance ();
              elapsed_s = elapsed;
            }
        end
  in
  let admit ~parent ~ord ~depth key st viol =
    if not !finishing then on_fresh st;
    let id = !n_states in
    Option.iter (fun p -> Vstore.Prov.record p ~id ~parent ~ord) prov;
    if depth > !max_depth then begin
      (* first state of a deeper level: the previous level is complete *)
      Option.iter (fun f -> f ~depth:(depth - 1) ~states:id) on_level;
      max_depth := depth
    end;
    incr n_states;
    if !next_len = Array.length !next then begin
      let a = Array.make (max 1024 (2 * !next_len)) key in
      Array.blit !next 0 a 0 !next_len;
      next := a
    end;
    !next.(!next_len) <- key;
    incr next_len;
    if not !finishing then begin
      let transitions = !trans_before + ord + 1 in
      (match viol () with
      | Some invariant ->
        bad_id := id;
        stop ~transitions (Violation { invariant; state = st })
      | None -> ());
      (match (max_states, max_mem_bytes) with
      | Some cap, _ when !n_states >= cap -> stop ~transitions (Limit L_states)
      | _, Some cap when mem_bytes () >= cap ->
        stop ~transitions (Limit L_memory)
      | _ -> ());
      progress depth
    end
  in
  let expanded ~base i key n =
    trans_before := !trans;
    trans := !trans + n;
    if n = 0 && check_deadlock && not !finishing then begin
      bad_id := base + i;
      stop ~transitions:!trans (Deadlock (sys.decode key))
    end
  in
  let stream_level (s : Vstore.t) ~base ~depth frontier =
    let len = Array.length frontier in
    let i = ref 0 in
    while !i < len && not (stopped ()) do
      let key = frontier.(!i) in
      (* consult the time cap and the interrupt before every expansion
         (the boundary's own poll covers the first) *)
      (if !i > 0 && not !finishing then
         match poll () with
         | Some l -> stop ~transitions:!trans (Limit l)
         | None -> ());
      if not (stopped ()) then begin
        let succs = sys.succ (sys.decode key) in
        expanded ~base !i key (List.length succs);
        List.iteri
          (fun ord (_, st') ->
            if not (stopped ()) then begin
              let key' = key_of st' in
              if s.Vstore.add key' then
                admit ~parent:(base + !i) ~ord ~depth:(depth + 1)
                  (fkey key' st') st' (fun () -> violated st')
            end)
          succs
      end;
      incr i
    done
  in
  let offer ~final ~depth frontier =
    Option.iter
      (fun c ->
        c.ck_save
          {
            v_states = !n_states;
            v_transitions = !trans;
            v_depth = depth;
            v_final = final;
            v_frontier = lazy (Array.map fexport frontier);
            v_iter_keys =
              (fun f ->
                Array.iter
                  (fun s -> s.Vstore.iter_keys (fun k -> f (export k)))
                  stores);
          })
      ckpt
  in
  (* the domain shards' level: expand, dedup per owner, then the rank
     merge replays every shard's fresh candidates in tag order, each
     frontier index expanded before its first discovery *)
  let shard_level ~base ~depth frontier =
    let out, halted =
      expand ~jobs ~owner ~key_of ~succ:sys.succ ~decode:sys.decode
        ~halt:(fun () -> poll () <> None)
        frontier
    in
    if halted then begin
      (* nothing was deduplicated: the stores still hold exactly this
         boundary *)
      stop ~transitions:!trans (Limit (Option.value (poll ()) ~default:L_time));
      offer ~final:true ~depth frontier
    end
    else begin
      let nsucc = count_succ (Array.length frontier) out in
      let fresh = Array.make jobs (cands ()) in
      let viols = Array.make jobs None in
      parallel jobs (fun o ->
          let f, v =
            dedup ~add:stores.(o).Vstore.add ~fkey ~violated
              (Array.map (fun m -> m.(o)) out)
          in
          fresh.(o) <- f;
          viols.(o) <- v);
      let vtag, vname =
        match Array.fold_left first_viol None viols with
        | Some (t, n) -> (t, Some n)
        | None -> (-1, None)
      in
      let next_i = ref 0 in
      let expand_upto i =
        while !next_i <= i && not (stopped ()) do
          expanded ~base !next_i frontier.(!next_i) nsucc.(!next_i);
          incr next_i
        done
      in
      merge_iter fresh (fun b h ->
          let c = fresh.(b) in
          let t = c.tags.(h) in
          expand_upto (t lsr 16);
          if not (stopped ()) then
            admit ~parent:(base + (t lsr 16)) ~ord:(t land 0xffff)
              ~depth:(depth + 1) c.keys.(h) c.sts.(h) (fun () ->
                if t = vtag then vname else None));
      expand_upto (Array.length frontier - 1)
    end
  in
  (* one level per call: poll, offer the boundary, expand and merge *)
  let rec level ~first frontier depth =
    let len = Array.length frontier in
    let base = !n_states - len in
    peak := max !peak len;
    if len = 0 then ()
    else if !finishing then offer ~final:true ~depth frontier
    else if !outcome = None then begin
      let halted = poll () in
      Option.iter (fun l -> stop ~transitions:!trans (Limit l)) halted;
      (* the starting boundary is on disk already (or is the root) *)
      if (not first) || halted <> None then
        offer ~final:(halted <> None) ~depth frontier;
      if halted = None then begin
        if jobs = 1 then stream_level stores.(0) ~base ~depth frontier
        else shard_level ~base ~depth frontier;
        level ~first:false (take ()) (depth + 1)
      end
    end
  in
  let seed key = ignore (stores.(owner key).Vstore.add key) in
  (match ckpt with
  | Some { ck_resume = Some r; _ } ->
    (* a key the decoder refuses names its section and index; frontier
       keys are decoded once here, so none is refused mid-run *)
    let resumed section i f =
      try f ()
      with Invalid_argument m ->
        invalid_arg (r.r_refused (Printf.sprintf "%s key %d: %s" section i m))
    in
    let i = ref 0 in
    r.r_keys (fun k ->
        seed (resumed "visited" !i (fun () -> import k));
        incr i);
    let frontier =
      Array.mapi
        (fun i k ->
          resumed "frontier" i (fun () ->
              let k = fimport k in
              ignore (sys.decode k);
              k))
        r.r_frontier
    in
    n_states := r.r_states;
    trans := r.r_transitions;
    max_depth := r.r_depth;
    level ~first:true frontier r.r_depth
  | _ ->
    let key = key_of sys.init in
    seed key;
    admit ~parent:0 ~ord:(-1) ~depth:0 (fkey key sys.init) sys.init (fun () ->
        violated sys.init);
    level ~first:true (take ()) 0);
  let states, transitions, max_depth =
    if !outcome = None then (!n_states, !trans, !max_depth) else !stop_counts
  in
  let outcome = Option.value !outcome ~default:Complete in
  let trace =
    match (outcome, prov) with
    | (Violation _ | Deadlock _), Some p when trace ->
      Some (replay_path p sys !bad_id)
    | _ -> None
  in
  {
    outcome;
    states;
    transitions;
    time_s = Unix.gettimeofday () -. t0;
    mem_bytes = mem_bytes ();
    raw_bytes = sum (fun s -> s.Vstore.raw_bytes ());
    peak_frontier = !peak;
    max_depth;
    canon_fallbacks = canon_fallbacks ();
    trace;
  }

let pp_outcome pp_state ppf = function
  | Complete -> Fmt.string ppf "complete"
  | Limit L_states -> Fmt.string ppf "unfinished (state cap)"
  | Limit L_memory -> Fmt.string ppf "unfinished (memory cap)"
  | Limit L_time -> Fmt.string ppf "unfinished (time cap)"
  | Limit L_interrupt -> Fmt.string ppf "unfinished (interrupted)"
  | Violation { invariant; state } ->
    Fmt.pf ppf "invariant %s violated at@,%a" invariant pp_state state
  | Deadlock state -> Fmt.pf ppf "deadlock at@,%a" pp_state state
