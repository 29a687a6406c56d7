(* Visited-state stores: one exact index over keys kept in RAM or in an
   append file, and bitstate hashing — all behind one record so the
   exploration engines stay store-agnostic. *)

open Bigarray

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
   byte count: what a store of boxed key strings pays per state on top of
   the key bytes (hash slot, string header, id).  Kept identical across
   store kinds so bench bytes/state comparisons share one baseline. *)
let per_state_overhead = 64

type bigstring = (char, int8_unsigned_elt, c_layout) Array1.t

external big_get64 : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external big_set64 : bigstring -> int -> int64 -> unit
  = "%caml_bigstring_set64u"
external str_get64 : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* ---- RAM log: append-only bytes in off-heap chunks ---------------------

   Logical offset [off] lives in chunk [off lsr bits] at [off land mask].
   Chunk 0 starts small and doubles (by copy) up to [cap]; every later
   chunk is [cap] bytes, so a small store stays small, a large one copies
   nothing past the first chunk, and the bytes sit outside the OCaml heap, where the GC neither
   scans them nor sizes its slack by them.  A record may straddle two
   chunks. *)
module Chunks = struct
  let bits = 18
  let cap = 1 lsl bits
  let mask = cap - 1

  type t = {
    mutable chunks : bigstring array;
    mutable n : int; (* chunks in use *)
    mutable len : int; (* bytes appended *)
  }

  let chunk size : bigstring = Array1.create char c_layout size
  let create ~first = { chunks = [| chunk first |]; n = 1; len = 0 }

  (* room for [extra] more bytes *)
  let reserve t extra =
    let need = t.len + extra in
    let c0 = t.chunks.(0) in
    let d0 = Array1.dim c0 in
    if need > d0 && d0 < cap then begin
      let d = ref d0 in
      while !d < need && !d < cap do
        d := 2 * !d
      done;
      let c = chunk !d in
      Array1.blit (Array1.sub c0 0 t.len) (Array1.sub c 0 t.len);
      t.chunks.(0) <- c
    end;
    while t.n * cap < need do
      if t.n = Array.length t.chunks then
        t.chunks <-
          Array.init (2 * t.n) (fun i ->
              if i < t.n then t.chunks.(i) else t.chunks.(0));
      t.chunks.(t.n) <- chunk cap;
      t.n <- t.n + 1
    done

  let get t off =
    Array1.unsafe_get t.chunks.(off lsr bits) (off land mask)

  let add_char t ch =
    reserve t 1;
    Array1.unsafe_set t.chunks.(t.len lsr bits) (t.len land mask) ch;
    t.len <- t.len + 1

  let add_string t s =
    let n = String.length s in
    reserve t n;
    let i = ref 0 in
    while !i < n do
      let off = t.len + !i in
      let c = t.chunks.(off lsr bits) and p = off land mask in
      let run = min (n - !i) (cap - p) in
      let j = ref 0 in
      while !j + 8 <= run do
        big_set64 c (p + !j) (str_get64 s (!i + !j));
        j := !j + 8
      done;
      while !j < run do
        Array1.unsafe_set c (p + !j) (String.unsafe_get s (!i + !j));
        incr j
      done;
      i := !i + run
    done;
    t.len <- t.len + n

  (* 8-byte words at multiples of 8 never straddle: chunk sizes are *)
  let add_word t w =
    reserve t 8;
    big_set64 t.chunks.(t.len lsr bits) (t.len land mask) w;
    t.len <- t.len + 8

  let get_word t off = big_get64 t.chunks.(off lsr bits) (off land mask)

  (* copy the [len] bytes at [off] into [buf] (at 0) *)
  let blit_to t off len buf =
    let c = t.chunks.(off lsr bits) and p = off land mask in
    if p + len <= cap then begin
      let j = ref 0 in
      while !j + 8 <= len do
        bytes_set64 buf !j (big_get64 c (p + !j));
        j := !j + 8
      done;
      for i = !j to len - 1 do
        Bytes.unsafe_set buf i (Array1.unsafe_get c (p + i))
      done
    end
    else
      for i = 0 to len - 1 do
        Bytes.unsafe_set buf i (get t (off + i))
      done

  (* the [String.length key] bytes at [off] equal [key]: a word at a time
     (the last word overlapping) when they sit in one chunk *)
  let equal t off key =
    let len = String.length key in
    let c = t.chunks.(off lsr bits) and p = off land mask in
    if p + len <= cap && len >= 8 then begin
      let i = ref 0 and eq = ref true in
      while !eq && !i + 8 < len do
        if big_get64 c (p + !i) <> str_get64 key !i then eq := false;
        i := !i + 8
      done;
      !eq && big_get64 c (p + len - 8) = str_get64 key (len - 8)
    end
    else begin
      let i = ref 0 in
      while !i < len && get t (off + !i) = String.unsafe_get key !i do
        incr i
      done;
      !i = len
    end
end

(* ---- file log: an append file behind a RAM tail buffer -----------------

   Bytes live in an unlinked temporary file (or a named one), appended
   through a small tail buffer that is flushed when it reaches
   [tail_cap]; reads are served from the file or the tail. *)
module File = struct
  type t = {
    fd : Unix.file_descr;
    mutable file_len : int; (* bytes flushed to [fd] *)
    tail : Buffer.t; (* appended bytes not yet flushed *)
    tail_cap : int;
    mutable read_buf : Bytes.t;
  }

  let create ?path ~prefix ~tail_cap () =
    let fd =
      match path with
      | None ->
        (* anonymous: unlinked immediately, vanishes with the process *)
        let p = Filename.temp_file prefix ".log" in
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
        read_buf = Bytes.create 256;
      }
    in
    (* the log owns the descriptor and nothing else can reach it; a
       dropped log must give the fd back or a long-lived process (the
       serve daemon, a fuzz campaign) exhausts the fd table *)
    Gc.finalise (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) t;
    t

  let length t = t.file_len + Buffer.length t.tail

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

  (* after each appended record: spill a full tail to the file *)
  let appended t = if Buffer.length t.tail >= t.tail_cap then flush t

  (* Copy bytes [off, off + len) into [buf] at [pos]. *)
  let read_into t off len buf pos =
    let in_file = max 0 (min len (t.file_len - off)) in
    if in_file > 0 then begin
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      let got = ref 0 in
      while !got < in_file do
        let r = Unix.read t.fd buf (pos + !got) (in_file - !got) in
        if r = 0 then invalid_arg "Vstore: truncated store file";
        got := !got + r
      done
    end;
    if in_file < len then
      Buffer.blit t.tail
        (off + in_file - t.file_len)
        buf (pos + in_file) (len - in_file)

  (* bytes [off, off + len) in [t.read_buf] *)
  let read t off len =
    if Bytes.length t.read_buf < len then t.read_buf <- Bytes.create (2 * len);
    read_into t off len t.read_buf 0;
    t.read_buf

  let equal t off key =
    let len = String.length key in
    let b = read t off len in
    let i = ref 0 and eq = ref true in
    while !eq && !i + 8 <= len do
      if bytes_get64 b !i <> str_get64 key !i then eq := false;
      i := !i + 8
    done;
    while !eq && !i < len do
      if Bytes.unsafe_get b !i <> String.unsafe_get key !i then eq := false;
      incr i
    done;
    !eq
end

(* ---- logs: where a store's bytes live ---------------------------------- *)

type log = Ram of Chunks.t | File of File.t

let log_length = function Ram c -> c.Chunks.len | File f -> File.length f

(* A chunk's pages beyond the bytes written are never touched, so they
   are not resident. *)
let log_resident = function
  | Ram c -> c.Chunks.len
  | File f -> Buffer.length f.File.tail + Bytes.length f.File.read_buf

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

(* A LEB128 varint from [get 0], [get 1], ...: (value, bytes read). *)
let read_varint get =
  let n = ref 0 and shift = ref 0 and i = ref 0 and more = ref true in
  while !more do
    let b = Char.code (get !i) in
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr i;
    more := b land 0x80 <> 0
  done;
  (!n, !i)

(* One key record: LEB128 length, then the key's bytes. *)
let append_key log key =
  let len = String.length key in
  match log with
  | Ram c ->
    let n = ref len in
    while !n >= 0x80 do
      Chunks.add_char c (Char.unsafe_chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Chunks.add_char c (Char.unsafe_chr !n);
    Chunks.add_string c key
  | File f ->
    let n = ref len in
    while !n >= 0x80 do
      Buffer.add_char f.File.tail (Char.unsafe_chr (!n land 0x7f lor 0x80));
      n := !n lsr 7
    done;
    Buffer.add_char f.File.tail (Char.unsafe_chr !n);
    Buffer.add_string f.File.tail key;
    File.appended f

(* Visit every key record in append order: [f off buf len], [off] the
   record's offset, its key the first [len] bytes of [buf] (a scratch
   buffer, valid during the call).  A file is read sequentially through
   a window. *)
let iter_records log f =
  let total = log_length log in
  let off = ref 0 in
  match log with
  | Ram c ->
    let buf = ref (Bytes.create 256) in
    while !off < total do
      let len, hdr =
        let b = Chunks.get c !off in
        if Char.code b < 0x80 then (Char.code b, 1)
        else read_varint (fun i -> Chunks.get c (!off + i))
      in
      if Bytes.length !buf < len then buf := Bytes.create (2 * len);
      Chunks.blit_to c (!off + hdr) len !buf;
      f !off !buf len;
      off := !off + hdr + len
    done
  | File d ->
    let win = ref (Bytes.create 65536) and w_off = ref 0 and w_len = ref 0 in
    let buf = ref (Bytes.create 256) in
    (* bytes [o, o + n) inside the window *)
    let need o n =
      if o + n > !w_off + !w_len then begin
        if Bytes.length !win < n then win := Bytes.create n;
        let m = min (Bytes.length !win) (total - o) in
        File.read_into d o m !win 0;
        w_off := o;
        w_len := m
      end
    in
    while !off < total do
      need !off (min 10 (total - !off));
      let len, hdr = read_varint (fun i -> Bytes.get !win (!off - !w_off + i)) in
      need (!off + hdr) len;
      if Bytes.length !buf < len then buf := Bytes.create (2 * len);
      Bytes.blit !win (!off + hdr - !w_off) !buf 0 len;
      f !off !buf len;
      off := !off + hdr + len
    done

(* ---- the exact store: one index over either log ------------------------

   An insert-only open-addressing index, one int per slot in an off-heap
   [Bigarray]:
       0                              — empty
       1 + (off << 20 | tag << 12 | lenfield)
   [off]: offset of the key's record in the log (42 bits, 4 TB);
   [tag]: 8 high bits of the key's hash, rejecting almost all false
   probes without touching the key bytes; [lenfield]: the key length,
   0xfff meaning "read it from the record".  A tag and length hit is
   confirmed by comparing the stored bytes, so the store is exact.
   Plain linear probing; the slot array doubles when an insert fills it
   to 7/8, so the number of slots depends only on the key count.  No
   hash word per slot: a resize walks the log in append order and
   rehashes each key, paid O(log n) times.  [Mem] and [Disk] differ only
   in the log. *)
module Index = struct
  type slots = (int, int_elt, c_layout) Array1.t

  type t = {
    log : log;
    mutable slots : slots;
    mutable count : int;
    mutable key_bytes : int;
  }

  let empty_slots n : slots =
    let a = Array1.create int c_layout n in
    Array1.fill a 0;
    a

  let create ~init_slots log =
    { log; slots = empty_slots init_slots; count = 0; key_bytes = 0 }

  (* A hash of the first [len] bytes of [s], a word at a time (the last
     word overlapping), so a resize can rehash a stored key in place. *)
  let[@inline] fold w =
    Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 32)

  let[@inline] mix h w =
    let h = (h lxor w) * 0x2127599bf4325c37 in
    h lxor (h lsr 31)

  let hash_sub s len =
    let h =
      if len < 8 then begin
        let w = ref 0 in
        for i = 0 to len - 1 do
          w := (!w lsl 8) lor Char.code (String.unsafe_get s i)
        done;
        mix len !w
      end
      else begin
        let h = ref len and i = ref 0 in
        while !i + 8 < len do
          h := mix !h (fold (str_get64 s !i));
          i := !i + 8
        done;
        mix !h (fold (str_get64 s (len - 8)))
      end
    in
    let h = (h lxor (h lsr 29)) * 0x1b873593cc9e2d51 in
    (h lxor (h lsr 32)) land max_int

  let hash key = hash_sub key (String.length key)
  let tag_len h len = (((h lsr 22) land 0xff) lsl 12) lor min len 0xfff

  (* the first empty slot on [h]'s probe sequence *)
  let free slots h =
    let mask = Array1.dim slots - 1 in
    let j = ref (h land mask) in
    while Array1.unsafe_get slots !j <> 0 do
      j := (!j + 1) land mask
    done;
    !j

  let resize t =
    let slots = empty_slots (2 * Array1.dim t.slots) in
    iter_records t.log (fun off buf len ->
        let h = hash_sub (Bytes.unsafe_to_string buf) len in
        Array1.unsafe_set slots (free slots h)
          (((off lsl 20) lor tag_len h len) + 1));
    t.slots <- slots

  (* the stored length of the record at [off]: its varint, read only
     for keys of 0xfff bytes or more *)
  let stored_len t off =
    fst
      (match t.log with
      | Ram c -> read_varint (fun i -> Chunks.get c (off + i))
      | File f ->
        let b = File.read f off (min 10 (log_length t.log - off)) in
        read_varint (Bytes.get b))

  let matches t off key =
    let len = String.length key in
    (len < 0xfff || stored_len t off = len)
    &&
    let start = off + varint_size len in
    match t.log with
    | Ram c -> Chunks.equal c start key
    | File f -> File.equal f start key

  (* true when [key] was absent (in which case it is inserted) *)
  let add t key =
    let len = String.length key in
    let h = hash key in
    let want = tag_len h len in
    let mask = Array1.dim t.slots - 1 in
    let j = ref (h land mask) in
    let fresh = ref false and scanning = ref true in
    while !scanning do
      let p = Array1.unsafe_get t.slots !j in
      if p = 0 then begin
        let off = log_length t.log in
        append_key t.log key;
        Array1.unsafe_set t.slots !j (((off lsl 20) lor want) + 1);
        t.count <- t.count + 1;
        t.key_bytes <- t.key_bytes + len;
        fresh := true;
        scanning := false
      end
      else if (p - 1) land 0xfffff = want && matches t ((p - 1) lsr 20) key
      then scanning := false
      else j := (!j + 1) land mask
    done;
    if !fresh && 8 * t.count >= 7 * Array1.dim t.slots then resize t;
    !fresh

  let store t =
    {
      add = (fun key -> add t key);
      mem_bytes =
        (fun () -> (8 * Array1.dim t.slots) + log_resident t.log);
      raw_bytes = (fun () -> t.key_bytes + (per_state_overhead * t.count));
      count = (fun () -> t.count);
      iter_keys =
        (fun f ->
          iter_records t.log (fun _ buf len -> f (Bytes.sub_string buf 0 len)));
    }
end

let exact ?(init_slots = 4096) () =
  Index.store (Index.create ~init_slots (Ram (Chunks.create ~first:4096)))

let disk ?path ?(init_slots = 1024) ?(tail_cap = 1 lsl 16) () =
  Index.store
    (Index.create ~init_slots
       (File (File.create ?path ~prefix:"ccr_vstore" ~tail_cap ())))

let make ?init_slots ?tail_cap = function
  | Mem -> exact ?init_slots ()
  | Disk -> disk ?init_slots ?tail_cap ()

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

(* ---- provenance side-table ----------------------------------------------

   Optional per-state provenance: for each visited state id (dense, in
   discovery order) the parent state's id and the ordinal of the fired
   transition within the parent's successor list.  One packed word per
   state — [parent lsl 16 lor (ord + 1)], the root stored with
   pseudo-ordinal -1 — as 8-byte records in a log: off-heap chunks
   ([P_mem]) or an unlinked temporary file ([P_disk]), so the table
   stays out-of-core alongside [--store disk].  No labels are stored:
   replaying the i-th recorded ordinal against the current state's
   successor list recovers the label exactly, which turns counterexample
   reconstruction into an O(depth) chain walk plus one successor
   expansion per step instead of a sequential re-exploration. *)
module Prov = struct
  type pkind = P_mem | P_disk

  let pkind_name = function P_mem -> "mem" | P_disk -> "disk"

  let ord_bits = 16
  let ord_mask = (1 lsl ord_bits) - 1

  type t = { mutable n : int; log : log }

  let create ?(kind = P_mem) ?(tail_cap = 1 lsl 16) () =
    let log =
      match kind with
      | P_mem -> Ram (Chunks.create ~first:8192)
      | P_disk -> File (File.create ~prefix:"ccr_prov" ~tail_cap ())
    in
    { n = 0; log }

  let record t ~id ~parent ~ord =
    if id <> t.n then
      invalid_arg "Vstore.Prov.record: ids must arrive densely in order";
    if ord < -1 || ord >= ord_mask then
      invalid_arg "Vstore.Prov.record: ordinal out of range";
    if parent < 0 || (parent >= id && ord >= 0) then
      invalid_arg "Vstore.Prov.record: parent must precede the state";
    let w = Int64.of_int ((parent lsl ord_bits) lor (ord + 1)) in
    (match t.log with
    | Ram c -> Chunks.add_word c w
    | File f ->
      Buffer.add_int64_le f.File.tail w;
      File.appended f);
    t.n <- t.n + 1

  let entry t id =
    if id < 0 || id >= t.n then invalid_arg "Vstore.Prov.entry: unknown id";
    let w =
      Int64.to_int
        (match t.log with
        | Ram c -> Chunks.get_word c (8 * id)
        | File f -> Bytes.get_int64_le (File.read f (8 * id) 8) 0)
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
  let mem_bytes t = log_resident t.log
  let bytes t = 8 * t.n
end
