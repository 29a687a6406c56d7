(* The multi-process partition of the exploration driver (DESIGN.md §6):
   the canonical-key space is split over [workers] forked OS processes,
   each owning the visited-set shard for its keys.  The parent routes
   batches over pipes.  Per BFS level (one call of [level]):

   1. parent -> worker: expand your frontier states ([P_assign] reuses
      the fresh states the worker kept from the last dedup round,
      [P_expand] ships them explicitly);
   2. worker -> parent: every successor as (tag, key, state);
   3. parent -> worker: the candidates that worker owns;
   4. worker: dedups them in tag order — sequential discovery order —
      and answers with the fresh tags and its tag-least violation.

   The parent is also a supervisor.  It logs, per worker, the keys that
   went fresh in that worker's shard (an unlinked temp file), so a dead
   worker — EOF/EPIPE on its pipes — is respawned with exponential
   backoff, its store rebuilt from the log, and the in-flight round
   replayed: a dedup round is re-sent, an expansion round re-issued as
   [P_expand] from the slices the parent keeps.  When the respawn budget
   runs out the parent degrades: every worker is stopped, the key space
   is re-partitioned over one fewer worker from the logs, and the round
   restarts — ids follow tag rank, so counts are unaffected.  The logs
   are also the checkpoint's visited section. *)

(* Key-to-owner routing uses its own hash seed, independent of the exact
   store probe hash, the bitstate positions (0, 1), the in-process shard
   router (2) and the disk index (3). *)
let owner_seed = 4

(* ---- deterministic crash injection ---------------------------------------- *)

type crash_at = { ca_worker : int option; ca_level : int }

let crash_at () =
  match Sys.getenv_opt "CCR_CRASH_AT" with
  | None | Some "" -> None
  | Some s ->
    let fields = String.split_on_char ',' s in
    let lookup k =
      List.find_map
        (fun f ->
          match String.index_opt f '=' with
          | Some i when String.sub f 0 i = k ->
            int_of_string_opt
              (String.sub f (i + 1) (String.length f - i - 1))
          | _ -> None)
        fields
    in
    (match lookup "level" with
    | Some l -> Some { ca_worker = lookup "worker"; ca_level = l }
    | None -> None)

let crash_here () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* ---- the partition interface ----------------------------------------------- *)

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

type 's level = {
  nsucc : int array;
  fresh : 's cands array;
  viol : (int * string) option;
  halted : bool;
}

type 's partition = {
  level : depth:int -> 's array -> 's level;
  seed : string -> unit;
  iter_keys : (string -> unit) -> unit;
  mem_bytes : unit -> int;
  raw_bytes : unit -> int;
  balance : unit -> float;
  fallbacks : unit -> int;
  close : unit -> unit;
}

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

(* Expand [states] on [jobs] domains, off an atomic cursor: every
   successor of the k-th state as (tag (index k) ord, key, state), in
   per-domain buffers bucketed by [owner key] among [shards] — each sorted
   by tag when [index] is increasing.  Expansion stops once [halt ()]
   says so; the flag reports it. *)
let expand ~jobs ~shards ~owner ~key_of ~succ ~halt ~index states =
  let len = Array.length states in
  let out = Array.init jobs (fun _ -> Array.init shards (fun _ -> cands ())) in
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
                  push mine.(owner key) (tag (index k) ord) key st')
                (succ states.(k))
          done;
          claim ()
        end
      in
      claim ());
  (out, Atomic.get halted)

(* Successor counts per frontier index, from the candidates' tags. *)
let count_succ len bufs =
  let nsucc = Array.make len 0 in
  List.iter
    (fun c ->
      for k = 0 to c.n - 1 do
        let i = c.tags.(k) lsr 16 in
        nsucc.(i) <- nsucc.(i) + 1
      done)
    bufs;
  nsucc

let first_viol a b =
  match (a, b) with
  | None, v | v, None -> v
  | Some (t1, _), Some (t2, _) -> if t1 <= t2 then a else b

(* Dedup one owner's candidates, given as tag-sorted buffers, in
   sequential discovery order: the fresh ones, and the tag-least fresh
   violation. *)
let dedup ~add ~violated bufs =
  let fresh = cands () and viol = ref None in
  merge_iter bufs (fun b h ->
      let c = bufs.(b) in
      let t = c.tags.(h) and st = c.sts.(h) in
      if add c.keys.(h) then begin
        push fresh t c.keys.(h) st;
        if !viol = None then
          Option.iter (fun name -> viol := Some (t, name)) (violated st)
      end);
  (fresh, !viol)

(* ---- wire protocol --------------------------------------------------------- *)

type 's to_worker =
  | P_preload of string array
      (** add these keys to the store, silently: the root, checkpoint
          resume, and store reconstruction after a respawn *)
  | P_candidates of 's cands array
      (** tag-sorted buffers, all owned by the receiver *)
  | P_assign of { idx : int array; level : int }
      (** expand the fresh states of the last dedup round, the k-th one
          under frontier index [idx.(k)]; [level] is its BFS depth *)
  | P_expand of { frontier : (int * 's) array; level : int }
      (** expand exactly these (frontier index, state)s: the first level,
          and respawn recovery *)

type fresh_report = {
  tags : int array;  (** fresh candidates, in sorted tag order *)
  f_viol : (int * string) option;
  mem : int;
  raw : int;
  count : int;
  fallbacks : int;
  expand_s : float;  (** cumulative seconds spent expanding *)
}

type 's exp_report = {
  succs : 's cands array;  (** per domain, tag-sorted; the parent re-buckets *)
  timed_out : bool;
}

type 's to_parent = W_fresh of fresh_report | W_expanded of 's exp_report

let send oc (msg : 'a) =
  Marshal.to_channel oc msg [];
  flush oc

let recv ic : 'a = Marshal.from_channel ic

(* ---- parent-side per-worker key logs -------------------------------------- *)

(* Everything a worker's visited shard contains, in insertion order, as
   varint-framed keys in an unlinked temp file.  Serves three masters:
   respawn preload, degradation re-partitioning, and the checkpoint
   visited section. *)
module Klog = struct
  type t = { fd : Unix.file_descr; buf : Buffer.t; mutable bytes : int }

  let create () =
    let path = Filename.temp_file "ccr-mpx" ".klog" in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    { fd; buf = Buffer.create 8192; bytes = 0 }

  let flush t =
    if Buffer.length t.buf > 0 then begin
      let s = Buffer.contents t.buf in
      ignore (Unix.lseek t.fd t.bytes Unix.SEEK_SET);
      let len = String.length s in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write_substring t.fd s !off (len - !off)
      done;
      t.bytes <- t.bytes + len;
      Buffer.clear t.buf
    end

  let add t key =
    let n = String.length key in
    let rec varint i =
      if i < 0x80 then Buffer.add_char t.buf (Char.unsafe_chr i)
      else begin
        Buffer.add_char t.buf (Char.unsafe_chr (0x80 lor (i land 0x7f)));
        varint (i lsr 7)
      end
    in
    varint n;
    Buffer.add_string t.buf key;
    if Buffer.length t.buf >= 1 lsl 18 then flush t

  let iter t f =
    flush t;
    ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
    let b = Bytes.create t.bytes in
    let off = ref 0 in
    while !off < t.bytes do
      let n = Unix.read t.fd b !off (t.bytes - !off) in
      if n = 0 then failwith "Mpx.Klog: short read";
      off := !off + n
    done;
    let pos = ref 0 in
    while !pos < t.bytes do
      let len = ref 0 and shift = ref 0 and more = ref true in
      while !more do
        let c = Char.code (Bytes.unsafe_get b !pos) in
        incr pos;
        if c < 0x80 then begin
          len := !len lor (c lsl !shift);
          more := false
        end
        else begin
          len := !len lor ((c land 0x7f) lsl !shift);
          shift := !shift + 7
        end
      done;
      f (Bytes.sub_string b !pos !len);
      pos := !pos + !len
    done

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ---- worker side ----------------------------------------------------------- *)

let worker_main ~wid ~ic ~oc ~jobs ~key_of ~canon_fallbacks ~succ ~violated
    ~new_store ~deadline =
  (* interruption is the parent's to field: it reacts at the level
     boundary and stops us — a worker that died to Ctrl-C would read as
     a crash and burn respawn budget *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  let maybe_crash level =
    match crash_at () with
    | Some { ca_worker = Some w; ca_level } when w = wid && ca_level = level ->
      crash_here ()
    | _ -> ()
  in
  let store : Vstore.t = new_store () in
  let expand_s = ref 0. in
  let last_fresh = ref (cands ()) in
  let halt () =
    match deadline with Some d -> Unix.gettimeofday () > d | None -> false
  in
  let expand_and_report frontier =
    let t0 = Unix.gettimeofday () in
    let out, timed_out =
      expand
        ~jobs:(if Array.length frontier >= 64 then jobs else 1)
        ~shards:1 ~owner:(fun _ -> 0) ~key_of ~succ ~halt
        ~index:(fun k -> fst frontier.(k))
        (Array.map snd frontier)
    in
    expand_s := !expand_s +. (Unix.gettimeofday () -. t0);
    send oc (W_expanded { succs = Array.map (fun o -> o.(0)) out; timed_out })
  in
  while true do
    match (recv ic : _ to_worker) with
    | P_preload keys -> Array.iter (fun k -> ignore (store.Vstore.add k)) keys
    | P_candidates bufs ->
      let fresh, viol = dedup ~add:store.Vstore.add ~violated bufs in
      last_fresh := fresh;
      send oc
        (W_fresh
           {
             tags = Array.sub fresh.tags 0 fresh.n;
             f_viol = viol;
             mem = store.Vstore.mem_bytes ();
             raw = store.Vstore.raw_bytes ();
             count = store.Vstore.count ();
             fallbacks = canon_fallbacks ();
             expand_s = !expand_s;
           })
    | P_assign { idx; level } ->
      maybe_crash level;
      let f = !last_fresh in
      expand_and_report (Array.init f.n (fun k -> (idx.(k), f.sts.(k))))
    | P_expand { frontier; level } ->
      maybe_crash level;
      expand_and_report frontier
  done

(* ---- parent side ----------------------------------------------------------- *)

let compare_fst (a, _) (b, _) = Int.compare a b

exception Worker_died of int
exception Degrade

let partition ~workers ~jobs ~new_store ~key_of ~canon_fallbacks ~succ
    ~violated ~deadline ?metrics ?on_respawn ?on_degrade () =
  (* a worker death turns into EPIPE on our next send; we want the
     Sys_error, not the default fatal signal *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let n_workers = ref workers in
  let spawn ~wid =
    (* fork before any domain is spawned in this process: mixing fork
       with live domains is unsupported in OCaml 5 (the parent never
       spawns domains itself, so respawns stay legal mid-run) *)
    let p2w_r, p2w_w = Unix.pipe ~cloexec:false () in
    let w2p_r, w2p_w = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
      Unix.close p2w_w;
      Unix.close w2p_r;
      let ic = Unix.in_channel_of_descr p2w_r in
      let oc = Unix.out_channel_of_descr w2p_w in
      (try
         worker_main ~wid ~ic ~oc ~jobs ~key_of ~canon_fallbacks ~succ
           ~violated ~new_store ~deadline
       with _ -> ());
      (* _exit: skip the parent's at_exit/flush inherited state; the
         parent stops workers with SIGKILL *)
      Unix._exit 1
    | pid ->
      Unix.close p2w_r;
      Unix.close w2p_w;
      (pid, Unix.out_channel_of_descr p2w_w, Unix.in_channel_of_descr w2p_r)
  in
  let procs = ref (Array.init workers (fun wid -> spawn ~wid)) in
  (* initial forks inherited the crash directive; clear it so respawned
     workers do not crash again on the same level *)
  (match crash_at () with
  | Some { ca_worker = Some _; _ } -> (
    try Unix.putenv "CCR_CRASH_AT" "" with Unix.Unix_error _ -> ())
  | _ -> ());
  let logs = ref (Array.init workers (fun _ -> Klog.create ())) in
  let respawn_budget = ref (workers * 2) in
  let respawn_attempts = ref 0 in
  let send_to w msg =
    let _, oc, _ = !procs.(w) in
    try send oc msg with Sys_error _ -> raise (Worker_died w)
  in
  let recv_from w : 's to_parent =
    let _, _, ic = !procs.(w) in
    try recv ic
    with End_of_file | Sys_error _ | Failure _ -> raise (Worker_died w)
  in
  let reap w =
    let pid, oc, ic = !procs.(w) in
    (try close_out oc with _ -> ());
    (try close_in ic with _ -> ());
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let preload w =
    (* rebuild the worker's shard from its log, in batches so one message
       never holds the whole store *)
    let batch = ref [] and n = ref 0 in
    let flush_batch () =
      if !n > 0 then begin
        send_to w (P_preload (Array.of_list (List.rev !batch)));
        batch := [];
        n := 0
      end
    in
    Klog.iter !logs.(w) (fun k ->
        batch := k :: !batch;
        incr n;
        if !n >= 65536 then flush_batch ());
    flush_batch ()
  in
  let rec recover w =
    reap w;
    if !respawn_budget <= 0 then raise Degrade;
    decr respawn_budget;
    Unix.sleepf (0.05 *. (2. ** float_of_int (min !respawn_attempts 5)));
    incr respawn_attempts;
    !procs.(w) <- spawn ~wid:w;
    (match on_respawn with Some f -> f ~worker:w | None -> ());
    (* the replacement can die during its own preload; that counts
       against the same budget *)
    try preload w with Worker_died _ -> recover w
  in
  (* each worker's last dedup report: its store and meter figures *)
  let last = ref (Array.make workers None) in
  let owner w key = Hashtbl.seeded_hash owner_seed key mod w in
  (* seeded keys (root, resume) go to the logs; the workers preload them
     before the next round *)
  let seeded = ref false in
  let degrade () =
    (* respawn budget exhausted: re-partition the key space over one
       fewer worker (from the logs — no worker cooperation needed) and let
       the caller restart its round *)
    for w = 0 to !n_workers - 1 do
      reap w
    done;
    let w' = !n_workers - 1 in
    if w' < 1 then failwith "Mpx: all workers lost, respawn budget exhausted";
    let new_logs = Array.init w' (fun _ -> Klog.create ()) in
    Array.iter
      (fun l -> Klog.iter l (fun k -> Klog.add new_logs.(owner w' k) k))
      !logs;
    Array.iter Klog.close !logs;
    logs := new_logs;
    n_workers := w';
    procs := Array.init w' (fun wid -> spawn ~wid);
    last := Array.make w' None;
    respawn_budget := w' * 2;
    respawn_attempts := 0;
    for w = 0 to w' - 1 do
      try preload w with Worker_died _ -> recover w
    done;
    match on_degrade with Some f -> f ~workers:w' | None -> ()
  in
  let seed key =
    Klog.add !logs.(owner !n_workers key) key;
    seeded := true
  in
  (* Send [msg wk] to every worker, then collect each reply with [take];
     workers work in parallel.  Survives deaths ([on_death] adjusts the
     replay, the round is re-sent to the replacement) but not
     degradation, which the callers handle by restarting. *)
  let round ~msg ~take ~on_death =
    let w = !n_workers in
    let reports = Array.make w None in
    while Array.exists Option.is_none reports do
      let sent = ref [] in
      for wk = w - 1 downto 0 do
        if reports.(wk) = None then
          try
            send_to wk (msg wk);
            sent := wk :: !sent
          with Worker_died _ ->
            recover wk;
            on_death wk
      done;
      List.iter
        (fun wk ->
          try reports.(wk) <- Some (take (recv_from wk))
          with Worker_died _ ->
            recover wk;
            on_death wk)
        !sent
    done;
    Array.map Option.get reports
  in
  (* One dedup round: split every expansion buffer by owner (keeping tag
     order), collect every W_fresh.  A respawned worker gets the same
     buffers (dedup against the log-rebuilt store is deterministic);
     degradation restarts the round over fewer workers. *)
  let rec collect_fresh all =
    try
      let w = !n_workers in
      let sent = Array.make w [] in
      List.iter
        (fun c ->
          let split = Array.init w (fun _ -> cands ()) in
          for k = 0 to c.n - 1 do
            push split.(owner w c.keys.(k)) c.tags.(k) c.keys.(k) c.sts.(k)
          done;
          Array.iteri
            (fun o s -> if s.n > 0 then sent.(o) <- s :: sent.(o))
            split)
        all;
      let sent = Array.map Array.of_list sent in
      let replies =
        round
          ~msg:(fun wk -> P_candidates sent.(wk))
          ~take:(function
            | W_fresh r -> r
            | W_expanded _ -> invalid_arg "Mpx: unexpected expanded")
          ~on_death:ignore
      in
      (sent, replies)
    with Degrade ->
      degrade ();
      collect_fresh all
  in
  (* One expansion round.  [slices.(wk)] is the (index, state) frontier
     worker [wk] owns — normally reachable via a bare [P_assign] (the
     worker kept its fresh list), but a respawned worker lost it and gets
     the explicit [P_expand]. *)
  let rec collect_expanded ~level ~idx ~slices ~via_assign =
    try
      round
        ~msg:(fun wk ->
          if via_assign.(wk) then P_assign { idx = idx.(wk); level }
          else P_expand { frontier = slices.(wk); level })
        ~take:(function
          | W_expanded r -> r
          | W_fresh _ -> invalid_arg "Mpx: unexpected fresh")
        ~on_death:(fun wk -> via_assign.(wk) <- false)
    with Degrade ->
      degrade ();
      let w = !n_workers in
      let slices' = Array.make w [] in
      Array.iter
        (Array.iter (fun ((_, st) as e) ->
             let o = owner w (key_of st) in
             slices'.(o) <- e :: slices'.(o)))
        slices;
      (* index order keeps each worker's expansion buffers tag-sorted *)
      collect_expanded ~level ~idx:(Array.make w [||])
        ~slices:
          (Array.map (fun l -> Array.of_list (List.sort compare_fst l)) slices')
        ~via_assign:(Array.make w false)
  in
  let gauges =
    Option.map
      (fun reg ->
        Array.init workers (fun w ->
            ( Ccr_obs.Metrics.gauge reg
                (Printf.sprintf "mpx.w%d.states_per_s" w),
              Ccr_obs.Metrics.gauge reg
                (Printf.sprintf "mpx.w%d.bytes_per_state" w) )))
      metrics
  in
  let update_gauges () =
    Option.iter
      (Array.iteri (fun w (g_rate, g_bytes) ->
           if w < !n_workers then begin
             match !last.(w) with
             | Some r when r.count > 0 ->
               if r.expand_s > 0. then
                 Ccr_obs.Metrics.set g_rate
                   (float_of_int r.count /. r.expand_s);
               Ccr_obs.Metrics.set g_bytes
                 (float_of_int r.mem /. float_of_int r.count)
             | _ -> ()
           end))
      gauges
  in
  (* The next level as the workers hold it after a dedup round: per
     worker, its fresh candidates and their frontier indices (tag
     rank).  Valid for the next [level] call exactly when the driver
     admitted the whole round, which it does unless it stops. *)
  let prepared = ref None in
  let level ~depth frontier =
    if !seeded then begin
      seeded := false;
      try
        for w = 0 to !n_workers - 1 do
          try preload w with Worker_died _ -> recover w
        done
      with Degrade -> degrade () (* the new workers preload the logs *)
    end;
    let w = !n_workers in
    let idx, slices, via_assign =
      match !prepared with
      | Some (idx, fresh) when Array.length idx = w ->
        ( idx,
          Array.mapi
            (fun wk f -> Array.init f.n (fun k -> (idx.(wk).(k), f.sts.(k))))
            fresh,
          Array.make w true )
      | _ ->
        let slices = Array.make w [] in
        Array.iteri
          (fun i st ->
            let o = owner w (key_of st) in
            slices.(o) <- (i, st) :: slices.(o))
          frontier;
        ( Array.make w [||],
          Array.map (fun l -> Array.of_list (List.rev l)) slices,
          Array.make w false )
    in
    prepared := None;
    let expanded = collect_expanded ~level:depth ~idx ~slices ~via_assign in
    let all =
      List.concat_map (fun xr -> Array.to_list xr.succs) (Array.to_list expanded)
    in
    let nsucc = count_succ (Array.length frontier) all in
    if Array.exists (fun xr -> xr.timed_out) expanded then
      { nsucc; fresh = [||]; viol = None; halted = true }
    else begin
      let sent, freshes = collect_fresh all in
      let viol = ref None in
      Array.iteri
        (fun wk fr ->
          !last.(wk) <- Some fr;
          viol := first_viol !viol fr.f_viol)
        freshes;
      (* recover each worker's fresh candidates by matching the buffers
         it was sent against the returned tags — this is what makes
         workers expendable: the parent can re-issue any slice of the
         level, and log its keys, alone *)
      let fresh =
        Array.mapi
          (fun wk fr ->
            let out = cands () and j = ref 0 in
            merge_iter sent.(wk) (fun b h ->
                let c = sent.(wk).(b) in
                if !j < Array.length fr.tags && fr.tags.(!j) = c.tags.(h)
                then begin
                  incr j;
                  Klog.add !logs.(wk) c.keys.(h);
                  push out c.tags.(h) c.keys.(h) c.sts.(h)
                end);
            out)
          freshes
      in
      (* rank merge: a fresh state's next-level index is its tag rank *)
      let idx = Array.map (fun f -> Array.make f.n 0) fresh in
      let rank = ref 0 in
      merge_iter fresh (fun b h ->
          idx.(b).(h) <- !rank;
          incr rank);
      prepared := Some (idx, fresh);
      update_gauges ();
      { nsucc; fresh; viol = !viol; halted = false }
    end
  in
  let close () =
    for wk = 0 to !n_workers - 1 do
      reap wk
    done;
    Array.iter Klog.close !logs;
    match old_sigpipe with
    | Some h -> ( try ignore (Sys.signal Sys.sigpipe h) with _ -> ())
    | None -> ()
  in
  let sum f =
    Array.fold_left (fun a r -> a + Option.fold ~none:0 ~some:f r) 0 !last
  in
  let most f =
    Array.fold_left (fun m r -> max m (Option.fold ~none:0 ~some:f r)) 0 !last
  in
  {
    level;
    seed;
    iter_keys = (fun f -> Array.iter (fun l -> Klog.iter l f) !logs);
    mem_bytes = (fun () -> sum (fun r -> r.mem));
    raw_bytes = (fun () -> sum (fun r -> r.raw));
    balance =
      (fun () ->
        let total = sum (fun r -> r.count) in
        if total = 0 then 1.0
        else
          float_of_int (most (fun r -> r.count) * !n_workers)
          /. float_of_int total);
    fallbacks = (fun () -> sum (fun r -> r.fallbacks));
    close;
  }
