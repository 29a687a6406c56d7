(** Messages of the refined (asynchronous) protocol.

    Each rendezvous is split into a {e request} carrying the rendezvous'
    message type and payload, answered by an {e ack} (success), a {e nack}
    (failure: insufficient buffers or no matching guard), or — under the
    request/reply optimization — by the reply request itself.  Acks carry
    no payload: data always flows from the active to the passive party of
    the rendezvous, i.e. inside the request. *)

open Ccr_core

type msg = { m_name : string; m_payload : Value.t list }

type t = Req of msg | Ack | Nack

val equal : t -> t -> bool
val encode : Buffer.t -> t -> unit

val encode_perm : Buffer.t -> int array -> t -> unit
(** [encode_perm buf p m] writes exactly the bytes [encode] would write
    for [m] with every remote id [r] in its payload renamed to [p.(r)]. *)

val decode : Value.cursor -> t
(** Read an {!encode}d message at the cursor (see {!Value.decode}).
    @raise Invalid_argument on a truncated or malformed message. *)

val pp : t Fmt.t
