(** Thread-safe FIFO channels with single-consumer peek semantics.

    Models the paper's network assumption (§2.2): reliable, in-order,
    point-to-point delivery with unbounded buffering.  The consumer may
    {!peek} before committing to {!pop} — remotes must leave a request
    queued while their one-slot buffer is full (Table 1).

    A channel can be {!close}d (poisoned): sends are dropped and
    consumers see an empty channel, so nodes polling it wind down
    immediately instead of waiting on a wedged peer. *)

type 'a t

val create : unit -> 'a t
val send : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The oldest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest element. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val close : 'a t -> unit
(** Poison the channel: discard its contents, make every later [send] a
    no-op and every [peek]/[pop] return [None].  Idempotent: closing an
    already-closed channel is a no-op, never an error — error paths may
    poison the same transport twice. *)

val is_closed : 'a t -> bool
