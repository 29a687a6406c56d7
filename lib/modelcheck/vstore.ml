(* Visited-state stores: the exact in-memory set, an out-of-core
   append-file store, and bitstate hashing — all behind one record so the
   exploration engines stay store-agnostic. *)

type t = {
  add : string -> bool;
  mem_bytes : unit -> int;
  raw_bytes : unit -> int;
  count : unit -> int;
  iter_keys : (string -> unit) -> unit;
}

type kind = Mem | Disk

let kind_name = function Mem -> "mem" | Disk -> "disk"

(* Stable per-state bookkeeping figure used by the *raw* (uncompressed)
   byte count: what the exact store pays per state on top of the
   key bytes (hash slot, boxed string header, id).  Kept identical across
   store kinds so bench bytes/state comparisons share one baseline. *)
let per_state_overhead = 64

(* Honest accounting constants for [mem_bytes]: OCaml boxed-string header
   plus word rounding (~24 bytes on 64-bit), and open-addressing slot
   costs.  These make [mem_bytes] track actual RAM, so a memory cap set
   for the machine really is honored — the old figure ignored the tables
   themselves, undercounting by ~30%. *)
let string_overhead = 24
let hashtbl_entry_overhead = 48 (* hashtbl bucket + boxed header *)

(* ---- exact in-memory store ---------------------------------------------

   Insert-only open-addressing string set.  [add] is the visited-set hot
   path: it hashes the key once and walks a single probe sequence to both
   test membership and insert, where the stdlib [Hashtbl.mem] +
   [Hashtbl.add] pair traverses its bucket chain twice and allocates a
   bucket cell per state.  Keys are interned exactly once: the encoded
   string handed to [add] is the string retained in the table. *)
module Strset = struct
  type t = {
    mutable keys : string array;
    mutable hashes : int array;
    mutable count : int;
    mutable key_bytes : int;
  }

  (* Physically unique empty-slot marker ([String.make] allocates a fresh
     block, so no real key can be [==] to it). *)
  let absent = String.make 1 '\000'

  let create ~init_slots =
    {
      keys = Array.make init_slots absent;
      hashes = Array.make init_slots 0;
      count = 0;
      key_bytes = 0;
    }

  let resize t =
    let old_keys = t.keys and old_hashes = t.hashes in
    let cap = 2 * Array.length old_keys in
    let mask = cap - 1 in
    let keys = Array.make cap absent and hashes = Array.make cap 0 in
    Array.iteri
      (fun i k ->
        if k != absent then begin
          let h = old_hashes.(i) in
          let j = ref (h land mask) in
          while keys.(!j) != absent do
            j := (!j + 1) land mask
          done;
          keys.(!j) <- k;
          hashes.(!j) <- h
        end)
      old_keys;
    t.keys <- keys;
    t.hashes <- hashes

  (* true when [key] was absent (in which case it is inserted) *)
  let add t key =
    if 2 * t.count >= Array.length t.keys then resize t;
    let h = Hashtbl.hash key in
    let mask = Array.length t.keys - 1 in
    let j = ref (h land mask) in
    let fresh = ref false and scanning = ref true in
    while !scanning do
      let k = t.keys.(!j) in
      if k == absent then begin
        t.keys.(!j) <- key;
        t.hashes.(!j) <- h;
        t.count <- t.count + 1;
        t.key_bytes <- t.key_bytes + String.length key;
        fresh := true;
        scanning := false
      end
      else if t.hashes.(!j) = h && String.equal k key then scanning := false
      else j := (!j + 1) land mask
    done;
    !fresh
end

let exact ?(init_slots = 4096) () =
  let t = Strset.create ~init_slots in
  {
    add = (fun key -> Strset.add t key);
    mem_bytes =
      (fun () ->
        (* keys + headers, plus the two slot arrays (pointer + hash word) *)
        t.Strset.key_bytes
        + (string_overhead * t.Strset.count)
        + (16 * Array.length t.Strset.keys));
    raw_bytes =
      (fun () -> t.Strset.key_bytes + (per_state_overhead * t.Strset.count));
    count = (fun () -> t.Strset.count);
    iter_keys =
      (fun f ->
        Array.iter (fun k -> if k != Strset.absent then f k) t.Strset.keys);
  }

(* ---- bitstate (supertrace) hashing -------------------------------------- *)

(* Two independent hash positions, as SPIN's double bitstate.  Seeded
   hashing keeps the second position allocation-free (the old scheme
   hashed [key ^ "\x01"], building a fresh string per state). *)
let bitstate_positions ~bits key =
  let bits = max 10 (min 34 bits) in
  let mask = (1 lsl bits) - 1 in
  (Hashtbl.seeded_hash 0 key land mask, Hashtbl.seeded_hash 1 key land mask)

let bitstate bits =
  let bits = max 10 (min 34 bits) in
  let nbits = 1 lsl bits in
  let table = Bytes.make (nbits / 8) '\000' in
  let get i =
    Char.code (Bytes.get table (i lsr 3)) land (1 lsl (i land 7)) <> 0
  in
  let set i =
    Bytes.set table (i lsr 3)
      (Char.chr (Char.code (Bytes.get table (i lsr 3)) lor (1 lsl (i land 7))))
  in
  let marked = ref 0 in
  {
    add =
      (fun key ->
        let h1, h2 = bitstate_positions ~bits key in
        let seen = get h1 && get h2 in
        if not seen then begin
          set h1;
          set h2;
          incr marked
        end;
        not seen);
    mem_bytes = (fun () -> nbits / 8);
    raw_bytes = (fun () -> nbits / 8);
    count = (fun () -> !marked);
    iter_keys =
      (fun _ ->
        (* bitstate drops the keys by construction; checkpointing refuses
           the mode before ever asking *)
        invalid_arg "Vstore.bitstate: keys are not recoverable");
  }

(* ---- out-of-core (append-file) store ------------------------------------

   Key bytes live in an unlinked temporary file (appended through a small
   tail buffer); RAM holds only an open-addressing index of packed
   (offset, length) words plus the key hashes.  Unlike bitstate hashing
   this is exact: a hash hit is confirmed by reading the stored key back
   and comparing bytes, so counts equal the in-memory store's. *)
module Diskset = struct
  (* Index slot layout, one OCaml int per slot:
       0                              — empty
       1 + (off << 20 | tag << 12 | lenfield)
     [off]: byte offset of the key in the file (42 bits, 4 TB);
     [tag]: 8 high bits of the key's hash, rejecting almost all false
     probes without touching the file; [lenfield]: key length, values
     >= 0xfff overflowing into [long_lens].  No per-slot hash word: a
     resize re-reads each stored key once to rehash it — sequential-ish,
     page-cache-friendly I/O, paid O(log n) times — which halves the
     resident index to 8 bytes per slot. *)
  type t = {
    fd : Unix.file_descr;
    mutable file_len : int; (* bytes flushed to [fd] *)
    tail : Buffer.t; (* appended keys not yet flushed *)
    tail_cap : int;
    mutable packed : int array;
    mutable count : int;
    mutable key_bytes : int;
    long_lens : (int, int) Hashtbl.t; (* off -> true len when >= 0xfff *)
    mutable read_buf : Bytes.t;
  }

  let create ?path ~init_slots ~tail_cap () =
    let fd =
      match path with
      | None ->
        (* anonymous: unlinked immediately, vanishes with the process *)
        let p = Filename.temp_file "ccr_vstore" ".keys" in
        let fd = Unix.openfile p [ Unix.O_RDWR ] 0o600 in
        Unix.unlink p;
        fd
      | Some p ->
        (* named: persists on disk so an external checkpoint/reopen flow
           can point at a stable file instead of a vanishing temp *)
        Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let t =
      {
        fd;
        file_len = 0;
        tail = Buffer.create (min tail_cap 65536);
        tail_cap;
        packed = Array.make init_slots 0;
        count = 0;
        key_bytes = 0;
        long_lens = Hashtbl.create 16;
        read_buf = Bytes.create 256;
      }
    in
    (* the store owns the descriptor and nothing else can reach it; a
       dropped store must give the fd back or a long-lived process (the
       serve daemon, a fuzz campaign) exhausts the fd table *)
    Gc.finalise (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) t;
    t

  let tag_of h = (h lsr 22) land 0xff

  let pack ~off ~tag ~lenfield = ((off lsl 20) lor (tag lsl 12) lor lenfield) + 1

  let flush t =
    let s = Buffer.contents t.tail in
    Buffer.clear t.tail;
    let len = String.length s in
    ignore (Unix.lseek t.fd t.file_len Unix.SEEK_SET);
    let written = ref 0 in
    while !written < len do
      written :=
        !written + Unix.write_substring t.fd s !written (len - !written)
    done;
    t.file_len <- t.file_len + len

  let entry_len t off lenfield =
    if lenfield < 0xfff then lenfield else Hashtbl.find t.long_lens off

  (* Copy the [len] stored bytes at [off] into [t.read_buf]. *)
  let read_stored t off len =
    if Bytes.length t.read_buf < len then t.read_buf <- Bytes.create (2 * len);
    if off >= t.file_len then
      (* still in the tail buffer *)
      Buffer.blit t.tail (off - t.file_len) t.read_buf 0 len
    else begin
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      let got = ref 0 in
      while !got < len do
        let r = Unix.read t.fd t.read_buf !got (len - !got) in
        if r = 0 then invalid_arg "Vstore.disk: truncated store file";
        got := !got + r
      done
    end

  let stored_matches t off key =
    let len = String.length key in
    read_stored t off len;
    let i = ref 0 in
    while !i < len && Bytes.unsafe_get t.read_buf !i = String.unsafe_get key !i
    do
      incr i
    done;
    !i = len

  let resize t =
    let old = t.packed in
    let cap = 2 * Array.length old in
    let mask = cap - 1 in
    let packed = Array.make cap 0 in
    Array.iter
      (fun p ->
        if p <> 0 then begin
          let off = (p - 1) lsr 20 in
          let len = entry_len t off ((p - 1) land 0xfff) in
          read_stored t off len;
          let h =
            Hashtbl.seeded_hash 3 (Bytes.sub_string t.read_buf 0 len)
          in
          let j = ref (h land mask) in
          while packed.(!j) <> 0 do
            j := (!j + 1) land mask
          done;
          packed.(!j) <- p
        end)
      old;
    t.packed <- packed

  let add t key =
    if 2 * t.count >= Array.length t.packed then resize t;
    let len = String.length key in
    let h = Hashtbl.seeded_hash 3 key in
    let tag = tag_of h in
    let mask = Array.length t.packed - 1 in
    let j = ref (h land mask) in
    let fresh = ref false and scanning = ref true in
    while !scanning do
      let p = t.packed.(!j) in
      if p = 0 then begin
        let off = t.file_len + Buffer.length t.tail in
        Buffer.add_string t.tail key;
        if Buffer.length t.tail >= t.tail_cap then flush t;
        let lenfield = min len 0xfff in
        if lenfield = 0xfff then Hashtbl.replace t.long_lens off len;
        t.packed.(!j) <- pack ~off ~tag ~lenfield;
        t.count <- t.count + 1;
        t.key_bytes <- t.key_bytes + len;
        fresh := true;
        scanning := false
      end
      else begin
        let p = p - 1 in
        let off = p lsr 20 in
        if
          (p lsr 12) land 0xff = tag
          && entry_len t off (p land 0xfff) = len
          && stored_matches t off key
        then scanning := false
        else j := (!j + 1) land mask
      end
    done;
    !fresh

  let mem_bytes t =
    (8 * Array.length t.packed)
    + Buffer.length t.tail
    + (hashtbl_entry_overhead * Hashtbl.length t.long_lens)
    + Bytes.length t.read_buf
end

let disk ?path ?(init_slots = 1024) ?(tail_cap = 1 lsl 16) () =
  let t = Diskset.create ?path ~init_slots ~tail_cap () in
  {
    add = (fun key -> Diskset.add t key);
    mem_bytes = (fun () -> Diskset.mem_bytes t);
    raw_bytes =
      (fun () -> t.Diskset.key_bytes + (per_state_overhead * t.Diskset.count));
    count = (fun () -> t.Diskset.count);
    iter_keys =
      (fun f ->
        (* The index knows (offset, length); visiting offsets in
           ascending order replays insertion order, so serialized
           checkpoints are deterministic for a given exploration. *)
        let entries = ref [] in
        Array.iter
          (fun p ->
            if p <> 0 then begin
              let off = (p - 1) lsr 20 in
              entries := (off, Diskset.entry_len t off ((p - 1) land 0xfff))
                         :: !entries
            end)
          t.Diskset.packed;
        let entries = List.sort compare !entries in
        List.iter
          (fun (off, len) ->
            Diskset.read_stored t off len;
            f (Bytes.sub_string t.Diskset.read_buf 0 len))
          entries);
  }

let make ?init_slots ?tail_cap = function
  | Mem -> exact ?init_slots ()
  | Disk -> disk ?init_slots ?tail_cap ()

(* ---- provenance side-table ----------------------------------------------

   Optional per-state provenance: for each visited state id (dense, in
   discovery order) the parent state's id and the ordinal of the fired
   transition within the parent's successor list.  One packed word per
   state — [parent lsl 16 lor (ord + 1)], the root stored with
   pseudo-ordinal -1 — either in a growable int array ([P_mem]) or as
   8-byte little-endian records appended to an unlinked temporary file
   through a tail buffer ([P_disk], the Diskset discipline), so the
   table stays out-of-core alongside [--store disk].  No labels are
   stored: replaying the i-th recorded ordinal against the current
   state's successor list recovers the label exactly, which turns
   counterexample reconstruction into an O(depth) chain walk plus one
   successor expansion per step instead of a sequential re-exploration. *)
module Prov = struct
  type pkind = P_mem | P_disk

  let pkind_name = function P_mem -> "mem" | P_disk -> "disk"

  let ord_bits = 16
  let ord_mask = (1 lsl ord_bits) - 1

  type disk_state = {
    fd : Unix.file_descr;
    mutable file_len : int; (* bytes flushed to [fd] *)
    tail : Buffer.t; (* records not yet flushed *)
    tail_cap : int;
    read_buf : Bytes.t; (* one 8-byte record *)
  }

  type backend = Arr of int array ref | File of disk_state

  type t = { mutable n : int; backend : backend }

  let create ?(kind = P_mem) ?(tail_cap = 1 lsl 16) () =
    let backend =
      match kind with
      | P_mem -> Arr (ref (Array.make 1024 0))
      | P_disk ->
        let path = Filename.temp_file "ccr_prov" ".log" in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
        (* unlinked immediately: the file vanishes with the process *)
        Unix.unlink path;
        let ds =
          {
            fd;
            file_len = 0;
            tail = Buffer.create (min tail_cap 65536);
            tail_cap;
            read_buf = Bytes.create 8;
          }
        in
        (* same ownership story as Diskset: reclaim the fd with the table *)
        Gc.finalise
          (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
          ds;
        File ds
    in
    { n = 0; backend }

  let flush d =
    let s = Buffer.contents d.tail in
    Buffer.clear d.tail;
    let len = String.length s in
    ignore (Unix.lseek d.fd d.file_len Unix.SEEK_SET);
    let written = ref 0 in
    while !written < len do
      written :=
        !written + Unix.write_substring d.fd s !written (len - !written)
    done;
    d.file_len <- d.file_len + len

  let record t ~id ~parent ~ord =
    if id <> t.n then
      invalid_arg "Vstore.Prov.record: ids must arrive densely in order";
    if ord < -1 || ord >= ord_mask then
      invalid_arg "Vstore.Prov.record: ordinal out of range";
    if parent < 0 || (parent >= id && ord >= 0) then
      invalid_arg "Vstore.Prov.record: parent must precede the state";
    let w = (parent lsl ord_bits) lor (ord + 1) in
    (match t.backend with
    | Arr slots ->
      if t.n >= Array.length !slots then begin
        let a = Array.make (2 * Array.length !slots) 0 in
        Array.blit !slots 0 a 0 t.n;
        slots := a
      end;
      !slots.(t.n) <- w
    | File d ->
      Bytes.set_int64_le d.read_buf 0 (Int64.of_int w);
      Buffer.add_bytes d.tail d.read_buf;
      if Buffer.length d.tail >= d.tail_cap then flush d);
    t.n <- t.n + 1

  let entry t id =
    if id < 0 || id >= t.n then invalid_arg "Vstore.Prov.entry: unknown id";
    let w =
      match t.backend with
      | Arr slots -> !slots.(id)
      | File d ->
        let off = 8 * id in
        if off >= d.file_len then
          Buffer.blit d.tail (off - d.file_len) d.read_buf 0 8
        else begin
          ignore (Unix.lseek d.fd off Unix.SEEK_SET);
          let got = ref 0 in
          while !got < 8 do
            let r = Unix.read d.fd d.read_buf !got (8 - !got) in
            if r = 0 then
              invalid_arg "Vstore.Prov: truncated provenance file";
            got := !got + r
          done
        end;
        Int64.to_int (Bytes.get_int64_le d.read_buf 0)
    in
    (w lsr ord_bits, (w land ord_mask) - 1)

  (* Ordinals along the chain from the root to [id], root first; the
     root's own pseudo-ordinal is not included. *)
  let chain t id =
    let rec up id acc =
      let parent, ord = entry t id in
      if ord < 0 then acc else up parent (ord :: acc)
    in
    up id []

  let count t = t.n

  let mem_bytes t =
    match t.backend with
    | Arr slots -> 8 * Array.length !slots
    | File d -> Buffer.length d.tail + Bytes.length d.read_buf + 64

  let bytes t = 8 * t.n
end
