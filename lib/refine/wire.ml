open Ccr_core

type msg = { m_name : string; m_payload : Value.t list }

type t = Req of msg | Ack | Nack

let equal (a : t) (b : t) = a = b

let rec encode_payload buf = function
  | [] -> ()
  | v :: rest ->
    Value.encode buf v;
    encode_payload buf rest

let encode buf = function
  | Ack -> Value.encode_int buf 0
  | Nack -> Value.encode_int buf 1
  | Req m ->
    Value.encode_int buf 2;
    Value.encode_int buf (String.length m.m_name);
    Buffer.add_string buf m.m_name;
    Value.encode_int buf (List.length m.m_payload);
    encode_payload buf m.m_payload

let rec encode_payload_perm buf p = function
  | [] -> ()
  | v :: rest ->
    Value.encode_perm buf p v;
    encode_payload_perm buf p rest

let encode_perm buf p = function
  | Ack -> Value.encode_int buf 0
  | Nack -> Value.encode_int buf 1
  | Req m ->
    Value.encode_int buf 2;
    Value.encode_int buf (String.length m.m_name);
    Buffer.add_string buf m.m_name;
    Value.encode_int buf (List.length m.m_payload);
    encode_payload_perm buf p m.m_payload

(* The inverse of [encode], field for field. *)
let rec decode_payload c k =
  if k = 0 then []
  else
    let v = Value.decode c in
    v :: decode_payload c (k - 1)

let decode c =
  let p = c.Value.pos in
  match Value.decode_int c with
  | 0 -> Ack
  | 1 -> Nack
  | 2 ->
    let m_name = Value.decode_string c (Value.decode_count c) in
    let m_payload = decode_payload c (Value.decode_count c) in
    Req { m_name; m_payload }
  | t -> Value.refuse c p (Printf.sprintf "bad message tag %d" t)

let pp ppf = function
  | Ack -> Fmt.string ppf "ack"
  | Nack -> Fmt.string ppf "nack"
  | Req m ->
    Fmt.pf ppf "req:%s(%a)" m.m_name
      Fmt.(list ~sep:comma Value.pp)
      m.m_payload
