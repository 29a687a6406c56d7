(* Content-addressed result cache.  Keys are hex digests, so they are
   safe as file names; entries are self-describing JSON objects written
   through the journal codec, each framed by the CRC32 of its bytes. *)

module J = Ccr_obs.Journal
module Ckpt = Ccr_modelcheck.Ckpt

type t = { cdir : string; max_entries : int; lock : Mutex.t }

type entry = {
  e_key : string;
  e_config : J.value;
  e_verdict : Api.verdict;
  e_journal : string list;
}

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir ?(max_entries = 4096) () =
  mkdir_p dir;
  { cdir = dir; max_entries; lock = Mutex.create () }

let dir t = t.cdir

let safe_key key =
  String.for_all
    (fun c ->
      (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))
    key
  && key <> ""

let path t key = Filename.concat t.cdir (key ^ ".json")

let entries t =
  match Sys.readdir t.cdir with
  | exception Sys_error _ -> [||]
  | names -> Array.of_list
      (List.filter (fun n -> Filename.check_suffix n ".json")
         (Array.to_list names))

let count t = Array.length (entries t)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* An entry file is its body's CRC32 as eight hex digits, a newline,
   then the body. *)
let frame body = Printf.sprintf "%08x\n%s" (Ckpt.crc32 body) body

let unframe raw =
  let len = String.length raw in
  if len < 9 || raw.[8] <> '\n' then Error "no CRC line"
  else
    let body = String.sub raw 9 (len - 9) in
    match int_of_string_opt ("0x" ^ String.sub raw 0 8) with
    | Some crc when crc = Ckpt.crc32 body -> Ok body
    | Some _ -> Error "CRC mismatch"
    | None -> Error "no CRC line"

(* The entry a checked body holds, if it is the one filed under [key]. *)
let entry_of key body =
  match J.parse body with
  | None -> Error "not JSON"
  | Some json -> (
    if J.get_str (J.find json "key") <> Some key then
      Error "filed under another key"
    else
      match J.find json "verdict" with
      | None -> Error "no verdict"
      | Some vj ->
        Result.map
          (fun v ->
            let journal =
              match J.get_list (J.find json "journal") with
              | Some lines ->
                List.filter_map
                  (function J.Str s -> Some s | _ -> None)
                  lines
              | None -> []
            in
            {
              e_key = key;
              e_config = Option.value ~default:J.Null (J.find json "config");
              e_verdict = v;
              e_journal = journal;
            })
          (Api.verdict_of_json vj))

let find ?(on_damaged = fun _ -> ()) t key =
  if not (safe_key key) then None
  else
    match read_file (path t key) with
    | exception Sys_error _ -> None
    | raw -> (
      match Result.bind (unframe raw) (entry_of key) with
      | Ok e -> Some e
      | Error why ->
        on_damaged why;
        None)

let evict_locked t =
  let names = entries t in
  let excess = Array.length names - t.max_entries in
  if excess > 0 then begin
    let with_mtime =
      Array.map
        (fun n ->
          let p = Filename.concat t.cdir n in
          let mt = try (Unix.stat p).Unix.st_mtime with _ -> 0. in
          (mt, p))
        names
    in
    Array.sort compare with_mtime;
    Array.iteri
      (fun i (_, p) -> if i < excess then try Sys.remove p with _ -> ())
      with_mtime
  end

let store t e =
  if safe_key e.e_key then begin
    let json =
      J.Obj
        [
          ("key", J.Str e.e_key);
          ("config", e.e_config);
          ("verdict", Api.verdict_to_json e.e_verdict);
          ("journal", J.List (List.map (fun l -> J.Str l) e.e_journal));
        ]
    in
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let final = path t e.e_key in
        let tmp = final ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc (frame (J.to_string json ^ "\n"));
        close_out oc;
        Sys.rename tmp final;
        evict_locked t)
  end
