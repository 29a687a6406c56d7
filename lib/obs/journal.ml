(* Schema-versioned JSONL run journal.

   Every checker invocation can append a stream of events — config, level
   boundaries, cap hits, canon fallbacks, fault budgets, violations with
   their provenance-derived trace, final stats, rule-coverage — to a
   journal file: one JSON object per line, every line carrying
   {"v": <schema_version>, "ev": <kind>, ...}.  Consumers ([ccr report],
   external tooling) parse line by line and skip kinds or versions they
   do not know, so the schema can grow without breaking readers; breaking
   changes bump [schema_version].

   Determinism is the load-bearing property: events are buffered in
   memory in emission order and rendered with a fixed field order and
   float format, and the engines only feed the journal
   parallelism-independent facts (level boundaries as (depth, cumulative
   states), never timings or interleavings) — so journals are
   byte-identical across [-j] counts.  The file write happens once, at
   the end of the run (before any failure exit), in append mode: a
   journal file accumulates one line-block per invocation.

   The [value] type and [parse] double as the repository's minimal JSON
   codec (no external JSON dependency): [ccr report] reads journals and
   BENCH_*.json rows back through it. *)

let schema_version = 1

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

(* ---- rendering ----------------------------------------------------------- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    Buffer.add_string b
      (if Float.is_finite f then Printf.sprintf "%.6g" f else "null")
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        render b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\":";
        render b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  render b v;
  Buffer.contents b

(* ---- the journal --------------------------------------------------------- *)

type t = { mutable rev_lines : string list; mutable n : int; mutable len : int }

let create () = { rev_lines = []; n = 0; len = 0 }

let event t ev fields =
  let line = to_string (Obj (("v", Int schema_version) :: ("ev", Str ev) :: fields)) in
  t.rev_lines <- line :: t.rev_lines;
  t.n <- t.n + 1;
  t.len <- t.len + String.length line + 1

let count t = t.n
let bytes t = t.len

let contents t =
  let b = Buffer.create (t.len + 1) in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    (List.rev t.rev_lines);
  Buffer.contents b

let append_to_file t path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  output_string oc (contents t);
  flush oc;
  (* the journal is the record of what a crashed run achieved — make the
     append durable before reporting it written *)
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc

(* ---- parsing (minimal recursive-descent JSON) ----------------------------- *)

exception Bad of int

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else raise (Bad !pos)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else raise (Bad !pos)
  in
  let utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_body () =
    let b = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then raise (Bad !pos);
      let c = s.[!pos] in
      incr pos;
      if c = '"' then fin := true
      else if c = '\\' then begin
        if !pos >= n then raise (Bad !pos);
        let e = s.[!pos] in
        incr pos;
        match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 > n then raise (Bad !pos);
          let cp =
            try int_of_string ("0x" ^ String.sub s !pos 4)
            with _ -> raise (Bad !pos)
          in
          pos := !pos + 4;
          utf8 b cp
        | _ -> raise (Bad !pos)
      end
      else Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
        is_float := true;
        true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> raise (Bad start)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> raise (Bad start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' ->
      incr pos;
      Str (string_body ())
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else begin
        let acc = ref [ value () ] in
        skip_ws ();
        while peek () = ',' do
          incr pos;
          acc := value () :: !acc;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !acc)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let acc = ref [ field () ] in
        skip_ws ();
        while peek () = ',' do
          incr pos;
          acc := field () :: !acc;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !acc)
      end
    | '-' | '0' .. '9' -> number ()
    | _ -> raise (Bad !pos)
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad !pos);
  v

let parse s = try Some (parse_exn s) with Bad _ -> None

(* ---- accessors ------------------------------------------------------------ *)

let find v key =
  match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

let get_int = function
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let get_float = function
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

let get_str = function Some (Str s) -> Some s | _ -> None
let get_list = function Some (List l) -> Some l | _ -> None
