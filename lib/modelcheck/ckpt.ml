(* Crash-safe exploration checkpoints.

   A checkpoint is one file, [DIR/ckpt], holding everything the BFS
   driver needs to continue from a level boundary: a JSON manifest (spec
   hash, instance parameters, engine flags, cumulative counts), the
   unexpanded frontier and the visited set as keys, and the provenance
   slots.  Keys are written as the system exports them
   ({!Explore.key_io}), so the file holds no run-local ids and no
   marshalled values: a key a later reader cannot decode is refused by
   its strict decoder, with a byte offset.  Fault budgets need no section
   of their own: they live inside the states of the fault-injected
   semantics, so they ride in the frontier keys.

   Durability discipline: the file is written to [DIR/ckpt.tmp], fsynced,
   renamed over [DIR/ckpt], and the directory fsynced — a crash at any
   byte leaves either the previous checkpoint or a complete new one.
   Every section carries its length and CRC32, so a torn or bit-flipped
   file is refused on load with a precise message instead of being
   half-trusted.

   Version policy: [version] is stamped in the header and the manifest.
   Readers refuse any other version, naming both; a format change that
   keeps old checkpoints readable keeps the version, anything else bumps
   it.  v1 marshalled decoded frontier states; v2 writes frontier keys. *)

module J = Ccr_obs.Journal

let version = 2

let header = Printf.sprintf "CCRCKPT v%d" version

let file dir = Filename.concat dir "ckpt"

(* ---- CRC32 (IEEE 802.3, table-driven) ------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---- varints (key framing of the frontier and visited sections) ---------- *)

let put_varint buf i =
  let rec go i =
    if i < 0x80 then Buffer.add_char buf (Char.unsafe_chr i)
    else begin
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (i land 0x7f)));
      go (i lsr 7)
    end
  in
  if i < 0 then invalid_arg "Ckpt.put_varint: negative";
  go i

(* returns (value, next position); raises [Exit] on truncation *)
let get_varint s pos =
  let rec go pos shift acc =
    if pos >= String.length s then raise Exit;
    let c = Char.code (String.unsafe_get s pos) in
    if c < 0x80 then (acc lor (c lsl shift), pos + 1)
    else go (pos + 1) (shift + 7) (acc lor ((c land 0x7f) lsl shift))
  in
  go pos 0 0

(* ---- section payloads ---------------------------------------------------- *)

(* A key section: each key as its varint length, then its bytes. *)
let render_keys iter_keys =
  let buf = Buffer.create 65536 in
  iter_keys (fun k ->
      put_varint buf (String.length k);
      Buffer.add_string buf k);
  Buffer.contents buf

exception Damaged of string

(* [f] on each key of section [name] in order, refusing bad framing. *)
let iter_keys name s f =
  let pos = ref 0 in
  try
    while !pos < String.length s do
      let len, data = get_varint s !pos in
      if data + len > String.length s then raise Exit;
      f (String.sub s data len);
      pos := data + len
    done
  with Exit ->
    raise (Damaged (Printf.sprintf "truncated key in %s section" name))

let render_prov prov ~states =
  match prov with
  | None -> ""
  | Some p ->
    let n = Vstore.Prov.count p in
    if n <> states then
      invalid_arg
        (Printf.sprintf
           "Ckpt: provenance table holds %d records for %d states" n states);
    let b = Bytes.create (8 * n) in
    for id = 0 to n - 1 do
      let parent, ord = Vstore.Prov.entry p id in
      let w = (parent lsl 16) lor (ord + 1) in
      Bytes.set_int64_le b (8 * id) (Int64.of_int w)
    done;
    Bytes.unsafe_to_string b

let decode_prov s =
  let n = String.length s / 8 in
  Array.init n (fun id ->
      let w = Int64.to_int (String.get_int64_le s (8 * id)) in
      (w lsr 16, (w land 0xffff) - 1))

(* ---- atomic write -------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_atomically ~dir contents =
  mkdir_p dir;
  let tmp = file dir ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = String.length contents in
      let written = ref 0 in
      while !written < len do
        written :=
          !written + Unix.write_substring fd contents !written (len - !written)
      done;
      (* data must be durable before the rename publishes it *)
      Unix.fsync fd);
  Unix.rename tmp (file dir);
  fsync_dir dir

(* ---- save ---------------------------------------------------------------- *)

let section buf name payload =
  Buffer.add_string buf
    (Printf.sprintf "%s %d %08x\n" name (String.length payload)
       (crc32 payload));
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let save ~dir ~manifest ~prov (v : Explore.ckpt_view) =
  let frontier = Lazy.force v.Explore.v_frontier in
  let manifest =
    manifest
    @ [
        ("ckpt_version", J.Int version);
        ("states", J.Int v.Explore.v_states);
        ("transitions", J.Int v.Explore.v_transitions);
        ("depth", J.Int v.Explore.v_depth);
        ("frontier_len", J.Int (Array.length frontier));
        ("prov_records", J.Int (match prov with
          | Some p -> Vstore.Prov.count p
          | None -> 0));
      ]
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  section buf "manifest" (J.to_string (J.Obj manifest));
  section buf "frontier" (render_keys (fun f -> Array.iter f frontier));
  section buf "visited" (render_keys v.Explore.v_iter_keys);
  section buf "prov" (render_prov prov ~states:v.Explore.v_states);
  Buffer.add_string buf "end\n";
  let contents = Buffer.contents buf in
  write_atomically ~dir contents;
  String.length contents

(* ---- load ---------------------------------------------------------------- *)

type loaded = {
  l_manifest : (string * J.value) list;
  l_states : int;
  l_transitions : int;
  l_depth : int;
  l_frontier : string array;
  l_keys : (string -> unit) -> unit;
  l_prov : (int * int) array;
  l_bytes : int;
  l_file : string;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One "name len crc\n" + payload + "\n" block; returns (payload, next). *)
let read_section s pos name =
  let nl =
    match String.index_from_opt s pos '\n' with
    | Some i -> i
    | None -> raise (Damaged (Printf.sprintf "missing %s header" name))
  in
  let hdr = String.sub s pos (nl - pos) in
  let len, crc =
    try Scanf.sscanf hdr "%s %d %x" (fun n l c ->
        if n <> name then
          raise (Damaged (Printf.sprintf "expected section %s, found %s" name n));
        (l, c))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      raise (Damaged (Printf.sprintf "malformed %s header" name))
  in
  let data = nl + 1 in
  if data + len + 1 > String.length s then
    raise
      (Damaged
         (Printf.sprintf "section %s truncated (%d of %d payload bytes)" name
            (String.length s - data) len));
  let payload = String.sub s data len in
  let found = crc32 payload in
  if found <> crc then
    raise
      (Damaged
         (Printf.sprintf "section %s fails its CRC (stored %08x, computed %08x)"
            name crc found));
  if s.[data + len] <> '\n' then
    raise (Damaged (Printf.sprintf "section %s missing terminator" name));
  (payload, data + len + 1)

let manifest_int m key =
  match J.get_int (J.find (J.Obj m) key) with
  | Some i -> i
  | None -> raise (Damaged (Printf.sprintf "manifest lacks %S" key))

(* The offset past the header line when its version is this reader's;
   else a refusal, naming both versions when the header names one. *)
let check_header s =
  match Scanf.sscanf_opt s "CCRCKPT v%u\n%n" (fun v n -> (v, n)) with
  | Some (v, n) when v = version -> n
  | Some (v, _) ->
    raise
      (Damaged
         (Printf.sprintf
            "written in checkpoint format v%d, this ccr reads v%d; restart the \
             check without --resume"
            v version))
  | None -> raise (Damaged "bad header (not a ccr checkpoint)")

let load ~dir =
  let path = file dir in
  try
    if not (Sys.file_exists path) then
      Error (Printf.sprintf "no checkpoint at %s" path)
    else begin
      let s = read_file path in
      let mstr, pos = read_section s (check_header s) "manifest" in
      let manifest =
        match J.parse mstr with
        | Some (J.Obj fields) -> fields
        | Some _ | None -> raise (Damaged "manifest is not a JSON object")
      in
      let v = manifest_int manifest "ckpt_version" in
      if v <> version then
        raise
          (Damaged
             (Printf.sprintf "manifest version %d disagrees with the header's v%d"
                v version));
      let fstr, pos = read_section s pos "frontier" in
      let vstr, pos = read_section s pos "visited" in
      let pstr, pos = read_section s pos "prov" in
      if
        pos + 4 > String.length s
        || String.sub s pos (String.length s - pos) <> "end\n"
      then raise (Damaged "missing end marker");
      let states = manifest_int manifest "states" in
      let frontier = ref [] in
      iter_keys "frontier" fstr (fun k -> frontier := k :: !frontier);
      let frontier = Array.of_list (List.rev !frontier) in
      if Array.length frontier <> manifest_int manifest "frontier_len" then
        raise (Damaged "frontier length disagrees with the manifest");
      (* the frontier is the last ids of the boundary *)
      if Array.length frontier > states then
        raise (Damaged "frontier holds more keys than the manifest's states");
      (* framing checked here, so [l_keys] never refuses *)
      iter_keys "visited" vstr ignore;
      let prov = decode_prov pstr in
      if Array.length prov > 0 && Array.length prov <> states then
        raise (Damaged "provenance record count disagrees with the manifest");
      Ok
        {
          l_manifest = manifest;
          l_states = states;
          l_transitions = manifest_int manifest "transitions";
          l_depth = manifest_int manifest "depth";
          l_frontier = frontier;
          l_keys = iter_keys "visited" vstr;
          l_prov = prov;
          l_bytes = String.length s;
          l_file = path;
        }
    end
  with
  | Damaged msg -> Error (Printf.sprintf "checkpoint %s refused: %s" path msg)
  | Sys_error msg -> Error (Printf.sprintf "checkpoint %s unreadable: %s" path msg)
  | Invalid_argument msg ->
    Error (Printf.sprintf "checkpoint %s refused: %s" path msg)

let resume ?prov ?(save = ignore) l =
  Option.iter
    (fun p ->
      Array.iteri
        (fun id (parent, ord) -> Vstore.Prov.record p ~id ~parent ~ord)
        l.l_prov)
    prov;
  {
    Explore.ck_resume =
      Some
        {
          Explore.r_states = l.l_states;
          r_transitions = l.l_transitions;
          r_depth = l.l_depth;
          r_frontier = l.l_frontier;
          r_keys = l.l_keys;
          r_refused =
            (fun msg ->
              Printf.sprintf
                "checkpoint %s refused: %s; restart the check without --resume"
                l.l_file msg);
        };
    ck_save = save;
  }

(* ---- compatibility guard -------------------------------------------------- *)

(* Fields that pin what is being explored: resuming under a different
   value would silently produce garbage counts, so any difference refuses
   with a field-by-field diff.  Store/prov kinds, job counts and caps
   are deliberately absent — they affect how, not what, and may
   change across sessions. *)
let guard_keys =
  [ "spec_hash"; "protocol"; "level"; "n"; "k"; "generic"; "symmetry";
    "faults"; "harden" ]

let pp_value = function
  | J.Null -> "null"
  | v -> J.to_string v

let mismatch ~expected ~found =
  let diffs =
    List.filter_map
      (fun key ->
        match (List.assoc_opt key expected, List.assoc_opt key found) with
        | Some e, Some f when e = f -> None
        | Some e, Some f ->
          Some
            (Printf.sprintf "  %s: checkpoint has %s, this run has %s" key
               (pp_value f) (pp_value e))
        | Some e, None ->
          Some
            (Printf.sprintf "  %s: absent from checkpoint, this run has %s" key
               (pp_value e))
        | None, _ -> None)
      guard_keys
  in
  match diffs with
  | [] -> None
  | ds ->
    Some
      ("the checkpoint records a different exploration:\n"
      ^ String.concat "\n" ds)

(* ---- write policy --------------------------------------------------------- *)

type every = E_states of int | E_secs of float

let parse_every s =
  let num body conv err =
    match conv body with
    | Some v -> Ok v
    | None -> Error err
  in
  if s = "" then Error "empty --checkpoint-every"
  else if s.[String.length s - 1] = 's' then
    num
      (String.sub s 0 (String.length s - 1))
      (fun b -> Option.map (fun f -> E_secs f) (float_of_string_opt b))
      (Printf.sprintf "bad --checkpoint-every %S (expected e.g. 30s)" s)
  else
    num s
      (fun b -> Option.map (fun i -> E_states i) (int_of_string_opt b))
      (Printf.sprintf "bad --checkpoint-every %S (expected a state count or Ns)" s)

(* ---- deterministic crash injection ---------------------------------------- *)

(* Only [level=L] is accepted: a stray or retired form (the multi-process
   era's [worker=W,level=L]) would otherwise kill this very process at a
   level nobody asked for, or silently never fire. *)
let crash_at () =
  match Sys.getenv_opt "CCR_CRASH_AT" with
  | None | Some "" -> Ok None
  | Some s -> (
    let level =
      if String.starts_with ~prefix:"level=" s then
        let digits = String.sub s 6 (String.length s - 6) in
        if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
        then int_of_string_opt digits
        else None
      else None
    in
    match level with
    | Some l -> Ok (Some l)
    | None ->
      Error
        (Printf.sprintf
           "CCR_CRASH_AT=%S refused: expected level=L, with L a BFS depth" s))

let crash_here () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* ---- the engine-facing save callback -------------------------------------- *)

let saver ~dir ~manifest ~prov ?every ?on_save () =
  let last_states = ref 0 in
  let last_time = ref (Unix.gettimeofday ()) in
  let crash =
    match crash_at () with Ok l -> l | Error msg -> invalid_arg msg
  in
  fun (v : Explore.ckpt_view) ->
    let due =
      if v.Explore.v_final then
        (* a final view with an empty frontier is a finished exploration
           — complete, or stopped on an event; there is nothing a resume
           could continue, so skip the (large) write *)
        Array.length (Lazy.force v.Explore.v_frontier) > 0
      else
        match every with
        | None -> true
        | Some (E_states n) -> v.Explore.v_states - !last_states >= n
        | Some (E_secs secs) -> Unix.gettimeofday () -. !last_time >= secs
    in
    if due then begin
      let bytes = save ~dir ~manifest ~prov v in
      last_states := v.Explore.v_states;
      last_time := Unix.gettimeofday ();
      match on_save with
      | Some f ->
        f ~bytes ~states:v.Explore.v_states ~depth:v.Explore.v_depth
      | None -> ()
    end;
    (* fires after the write, so the smoke's kill point always has a
       fresh checkpoint to resume from *)
    match crash with
    | Some l when v.Explore.v_depth = l -> crash_here ()
    | _ -> ()
