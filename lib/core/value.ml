type rid = int

type t =
  | Vunit
  | Vbool of bool
  | Vint of int
  | Vrid of rid
  | Vset of int

type domain =
  | Dunit
  | Dbool
  | Dint of int * int
  | Drid
  | Dset

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let default = function
  | Dunit -> Vunit
  | Dbool -> Vbool false
  | Dint (lo, _) -> Vint lo
  | Drid -> Vrid 0
  | Dset -> Vset 0

let member ~n dom v =
  match (dom, v) with
  | Dunit, Vunit -> true
  | Dbool, Vbool _ -> true
  | Dint (lo, hi), Vint i -> lo <= i && i <= hi
  | Drid, Vrid r -> 0 <= r && r < n
  | Dset, Vset m -> m >= 0 && m < 1 lsl n
  | (Dunit | Dbool | Dint _ | Drid | Dset), _ -> false

let enumerate ~n = function
  | Dunit -> [ Vunit ]
  | Dbool -> [ Vbool false; Vbool true ]
  | Dint (lo, hi) -> List.init (hi - lo + 1) (fun i -> Vint (lo + i))
  | Drid -> List.init n (fun i -> Vrid i)
  | Dset -> List.init (1 lsl n) (fun m -> Vset m)

let set_empty = Vset 0

let as_mask = function
  | Vset m -> m
  | Vunit | Vbool _ | Vint _ | Vrid _ -> invalid_arg "Value: expected a set"

let set_mem r s = as_mask s land (1 lsl r) <> 0
let set_add r s = Vset (as_mask s lor (1 lsl r))
let set_remove r s = Vset (as_mask s land lnot (1 lsl r))
let set_is_empty s = as_mask s = 0

let set_members s =
  let m = as_mask s in
  let rec loop i acc =
    if 1 lsl i > m then List.rev acc
    else loop (i + 1) (if m land (1 lsl i) <> 0 then i :: acc else acc)
  in
  loop 0 []

let set_of_list rs = Vset (List.fold_left (fun m r -> m lor (1 lsl r)) 0 rs)
(* Counts the mask's bits, clearing the lowest set bit each round:
   the symmetry signatures call it for every set-valued variable. *)
let set_cardinal s =
  let rec count m c = if m <= 0 then c else count (m land (m - 1)) (c + 1) in
  count (as_mask s) 0

let pp ppf = function
  | Vunit -> Fmt.string ppf "()"
  | Vbool b -> Fmt.bool ppf b
  | Vint i -> Fmt.int ppf i
  | Vrid r -> Fmt.pf ppf "r%d" r
  | Vset s ->
    Fmt.pf ppf "{%s}"
      (String.concat "," (List.map string_of_int (set_members (Vset s))))

let pp_domain ppf = function
  | Dunit -> Fmt.string ppf "unit"
  | Dbool -> Fmt.string ppf "bool"
  | Dint (lo, hi) -> Fmt.pf ppf "int[%d..%d]" lo hi
  | Drid -> Fmt.string ppf "rid"
  | Dset -> Fmt.string ppf "rid set"

(* Closure-free: the encoders run once per transition on the model
   checker's hot path, and a local helper capturing [buf] would be
   allocated on every call. *)
let add_byte buf i = Buffer.add_char buf (Char.unsafe_chr (i land 0xff))

let encode_int buf i =
  (* small non-negative ints in one byte; larger in five *)
  if i >= 0 && i < 0xf8 then add_byte buf i
  else begin
    add_byte buf 0xf8;
    add_byte buf i;
    add_byte buf (i lsr 8);
    add_byte buf (i lsr 16);
    add_byte buf (i asr 24)
  end

(* Single source of the rid/set byte layout, shared with {!encode_perm}:
   a renamed value must encode exactly as the value it renames to. *)
let encode_rid buf r =
  Buffer.add_char buf '\004';
  encode_int buf r

let encode_set buf m =
  Buffer.add_char buf '\005';
  encode_int buf m

let encode buf v =
  match v with
  | Vunit -> add_byte buf 0
  | Vbool false -> add_byte buf 1
  | Vbool true -> add_byte buf 2
  | Vint i ->
    add_byte buf 3;
    encode_int buf (if i >= 0 then 2 * i else (-2 * i) + 1)
  | Vrid r -> encode_rid buf r
  | Vset m -> encode_set buf m

let encode_perm buf p v =
  match v with
  | Vrid r -> encode_rid buf p.(r)
  | Vset m ->
    let m' = ref 0 in
    let i = ref 0 in
    while m lsr !i <> 0 do
      if (m lsr !i) land 1 = 1 then m' := !m' lor (1 lsl p.(!i));
      incr i
    done;
    encode_set buf !m'
  | Vunit | Vbool _ | Vint _ -> encode buf v

(* ---- decoding encoded keys ----------------------------------------------

   The inverse of the encoders above, for keys read back as states.  A
   cursor walks the key; every reader checks the bytes it needs before
   touching them and accepts only the exact bytes an encoder writes, so a
   truncated or damaged key is refused with its byte offset instead of
   raising an index error or decoding to a state that encodes otherwise. *)

type cursor = { key : string; mutable pos : int; who : string }

let cursor ~who key = { key; pos = 0; who }

let refuse c at what =
  invalid_arg (Printf.sprintf "%s: %s at byte %d" c.who what at)

(* The 5-byte form of [encode_int] at [pos]: the value and the position
   just past it. *)
let read_int s pos =
  let byte i = Char.code (String.unsafe_get s (pos + i)) in
  let v = byte 1 lor (byte 2 lsl 8) lor (byte 3 lsl 16) lor (byte 4 lsl 24) in
  (* byte 4 carries the sign (encode_int wrote [i asr 24]) *)
  ((if byte 4 >= 0x80 then v - (1 lsl 32) else v), pos + 5)

let decode_int c =
  let p = c.pos in
  if p >= String.length c.key then refuse c p "truncated key";
  let b = Char.code (String.unsafe_get c.key p) in
  if b < 0xf8 then begin
    c.pos <- p + 1;
    b
  end
  else begin
    if b > 0xf8 then refuse c p (Printf.sprintf "bad integer byte %d" b);
    if p + 5 > String.length c.key then refuse c p "truncated key";
    let i, p' = read_int c.key p in
    if i >= 0 && i < 0xf8 then refuse c p "non-canonical integer";
    c.pos <- p';
    i
  end

let decode_count c =
  let p = c.pos in
  let i = decode_int c in
  if i < 0 then refuse c p (Printf.sprintf "negative count %d" i);
  i

let decode_string c len =
  let p = c.pos in
  if len < 0 || p + len > String.length c.key then refuse c p "truncated key";
  c.pos <- p + len;
  String.sub c.key p len

let decode_char c =
  let p = c.pos in
  if p >= String.length c.key then refuse c p "truncated key";
  c.pos <- p + 1;
  String.unsafe_get c.key p

let decode_end c =
  if c.pos <> String.length c.key then refuse c c.pos "trailing bytes"

(* Decoded values below [shared] come from these tables, so decoded
   states share their small values as generated ones do. *)
let shared = 64
let v_false = Vbool false
let v_true = Vbool true
let v_ints = Array.init shared (fun i -> Vint i)
let v_rids = Array.init shared (fun r -> Vrid r)
let v_sets = Array.init shared (fun m -> Vset m)
let pick table mk i = if i >= 0 && i < shared then table.(i) else mk i

let decode c =
  let p = c.pos in
  match decode_char c with
  | '\000' -> Vunit
  | '\001' -> v_false
  | '\002' -> v_true
  | '\003' ->
    (* zigzag: 2i for i >= 0, -2i + 1 below; 1 would be a second zero *)
    let z = decode_int c in
    if z < 0 || z = 1 then refuse c (p + 1) "non-canonical integer";
    if z land 1 = 0 then pick v_ints (fun i -> Vint i) (z asr 1)
    else Vint (-(z asr 1))
  | '\004' -> pick v_rids (fun r -> Vrid r) (decode_int c)
  | '\005' -> pick v_sets (fun m -> Vset m) (decode_int c)
  | b -> refuse c p (Printf.sprintf "bad value tag %d" (Char.code b))

let decode_values c len =
  if len = 0 then [||]
  else begin
    let a = Array.make len (decode c) in
    for i = 1 to len - 1 do
      a.(i) <- decode c
    done;
    a
  end
