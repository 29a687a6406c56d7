(** The refined asynchronous semantics (paper §3, Tables 1 and 2).

    The rendezvous protocol is executed over reliable in-order
    point-to-point FIFO channels with request/ack/nack messages:

    - every active guard becomes a request followed by a wait in a
      {e transient} mode for an ack, a nack, or a crossing request
      (implicit nack, rule R3);
    - every remote node owns a one-message buffer for a pending home
      request (Table 1);
    - the home owns a [k >= 2]-message buffer with two reservations: the
      {e progress buffer} (last free slot only admits a request that can
      complete a rendezvous in the current communication state) and, while
      the home is transient towards remote [i], the {e ack buffer} (one
      slot kept free so a message from [i] can always be held) — Table 2;
    - on a nack the home rotates to its next output guard (Table 2, T2);
    - guards annotated by the request/reply analysis (§3.3) skip acks: the
      reply doubles as the ack of the request.

    This module is an interpreter for the refined protocol; the
    corresponding explicit automata (paper Figures 4–5) are produced by
    {!Compile}. *)

open Ccr_core

type config = { k : int }  (** home buffer capacity, [k >= 2] *)

type hmode =
  | Hcomm
  | Htrans of {
      guard : int;  (** index of the output guard in the control state *)
      peer : int;  (** remote the home awaits *)
      scratch : Value.t array;
          (** environment with the guard's choose binders applied, kept so
              the assignments can run when the rendezvous completes *)
      await : [ `Ack | `Repl of string ];
    }

type home = {
  h_ctl : int;
  h_env : Value.t array;
  h_mode : hmode;
  h_rot : int;
      (** rotation position over the control state's output guards,
          advanced on (implicit) nacks — Table 2 row T2 *)
  h_buf : (int * Wire.msg) list;  (** buffered requests, oldest first *)
}

type rmode =
  | Rcomm
  | Rtrans of { guard : int; scratch : Value.t array }
  | Rwait of { guard : int; scratch : Value.t array; repl : string }
      (** request sent under request/reply: waiting for the reply (or a
          nack), no ack will come *)

type remote = {
  r_ctl : int;
  r_env : Value.t array;
  r_mode : rmode;
  r_buf : Wire.msg option;  (** the one-message buffer of Table 1 *)
}

type state = {
  h : home;
  r : remote array;
  to_h : Wire.t list array;  (** channel remote [i] → home, head oldest *)
  to_r : Wire.t list array;  (** channel home → remote [i] *)
}
(** A state is an immutable value, although OCaml lets its arrays and
    environments be written: never change one in place — not [st.r.(i)],
    a channel slot, nor an [h_env]/[r_env]/[scratch] entry — but build a
    new state that copies the array it changes, as {!successors} does.
    {!encode} reuses the bytes of every component that is physically a
    decoded parent's, so a state changed in place after {!decode} would
    get that parent's stale bytes, a wrong visited key. *)

(** Rule identifiers, named after the rows of Tables 1 and 2; used for
    trace explanation and for the rule-coverage experiment. *)
type rule_id =
  | R_C1  (** remote: request for rendezvous sent, buffer was empty *)
  | R_C2  (** remote: request sent, pending home request deleted *)
  | R_C3_ack  (** remote: buffered home request matched, acked *)
  | R_C3_silent  (** remote: request/reply consume, no ack *)
  | R_C3_nack  (** remote: buffered home request matched no guard *)
  | R_T1  (** remote: ack received, rendezvous complete *)
  | R_T2  (** remote: nack received, back to communication state *)
  | R_T3  (** remote: home request ignored while transient *)
  | R_tau
  | R_reply_send  (** remote: fire-and-forget reply *)
  | R_repl_recv  (** remote: reply received, completes both rendezvous *)
  | R_deliver  (** home request moved from channel into remote buffer *)
  | H_C1  (** home: buffered request matched, acked *)
  | H_C1_silent  (** home: request/reply consume, no ack *)
  | H_C2  (** home: request for rendezvous sent, transient entered *)
  | H_T1  (** home: ack received, rendezvous complete *)
  | H_T1_repl  (** home: reply received, completes both rendezvous *)
  | H_T2  (** home: nack received, rotation advanced *)
  | H_T3  (** home: implicit nack — peer's request buffered *)
  | H_T4  (** home: foreign request admitted, > 2 slots free *)
  | H_T5  (** home: foreign request admitted into the progress buffer *)
  | H_T6  (** home: foreign request nacked, buffers exhausted *)
  | H_tau
  | H_reply_send  (** home: fire-and-forget reply *)
  | H_admit  (** home (non-transient): request admitted *)
  | H_admit_progress
      (** home (non-transient): request admitted into the progress buffer *)
  | H_nack_full  (** home (non-transient): request nacked, buffers full *)

type label = {
  rule : rule_id;
  actor : int;  (** remote id, or [-1] for the home *)
  subject : string;  (** message or tau label involved, [""] if none *)
}

exception Protocol_error of string
(** Raised when an execution reaches a configuration the refinement rules
    declare impossible (e.g. an ack arriving at a non-transient process).
    Reachable only if the refinement itself is broken, so tests treat it
    as a hard failure. *)

type meter = {
  m_sent : Wire.t -> unit;
      (** called for every message a generated transition enqueues *)
  m_buf : int -> unit;
      (** called once per {!successors} call with the expanded state's
          home-buffer occupancy *)
}
(** Observation hooks for the model checker's observability layer.  The
    semantics is per {e enumerated} transition: during exploration every
    generated successor edge is counted once, so the derived figure is
    messages per explored transition (a simulator executing one chosen
    successor must count on the picked label instead — see
    {!Ccr_simulate.Sim}). *)

val initial : Prog.t -> config -> state

val successors : ?meter:meter -> Prog.t -> config -> state -> (label * state) list
(** [meter] (default: none, a single option check) feeds the
    observability layer; it does not affect the generated transitions. *)

(** {2 Keys}

    A state's key is its home, then each remote, then each home-bound
    channel, then each remote-bound channel, each component encoded on
    its own: a component's bytes depend on its value alone, not on its
    slot or on its neighbours.

    {b Parent-spliced encoding.}  Every {!decode} (and {!decode_from})
    leaves a {e splice base} in the calling domain: the decoded state,
    the key it was read from, and the offsets where each of its [1 + 3n]
    components ends.  {!encode} then copies from the base key every
    component of its argument that is {e physically} the base's ([==])
    and encodes only the others.  The model checker decodes a parent
    just before it expands it, and {!successors} shares every home
    record, remote record and channel list a transition leaves
    untouched, so a successor's key is mostly copied: a transition
    changes one node and one or two channels.

    Physical identity is enough because states are immutable values:
    nothing in this library, or in a caller, may mutate a state's arrays
    or environments in place (the semantics copies on write).  A
    component that is physically the base's therefore still has the value
    it had when the base key was read, and so the same bytes.  A miss —
    a state unrelated to the last decode, or a base from a program with
    another [n] — costs the full encoding and nothing else; the key is
    byte-identical either way.

    {b Concurrency.}  The scratch buffer and the base are per domain
    ([Domain.DLS]), so shards on different domains never share them.
    The base is immutable and replaced whole, so a systhread that
    decodes between another's {!decode} and {!encode} changes only which
    components are copied, never the key.  The scratch buffer is not
    protected: systhreads that share one domain must still serialize
    their calls to {!encode} and {!encode_perm}, as the daemon's engine
    lock does. *)

val encode : state -> string
(** The key of a state, spliced from the calling domain's base where it
    can be (see above); byte-identical to [encode_perm] under the
    identity permutation, which never splices. *)

val decode : Prog.t -> string -> state
(** The inverse of {!encode} for the program's states:
    [decode prog (encode st) = st], and a key that decodes at all
    decodes to the state that {!encode}s back to it.  The model checker
    keeps its BFS frontier as keys and decodes each one when expanding
    it.  The result becomes the calling domain's splice base.
    @raise Invalid_argument naming [Async.decode] and the byte offset on
    a truncated, garbage or trailing-byte key. *)

val decode_from : Prog.t -> Value.cursor -> state
(** {!decode}'s reader from the cursor on, leaving the cursor just past
    the state's bytes (for encodings that embed an {!encode}d state, as
    {!Ccr_faults.Injected.encode} does).  The result becomes the splice
    base, with offsets into the cursor's whole key. *)

val encode_perm : p:int array -> inv:int array -> state -> string
(** [encode_perm ~p ~inv st] is byte-identical to [encode] of [st] with
    remotes permuted by [p] ([inv] is [p]'s inverse): slot arrays and both
    channel arrays are read through [inv], while sender ids and rid-valued
    payloads are renamed through [p].  Lets symmetry canonicalization score
    a permutation without building the permuted state. *)

val split_key : Prog.t -> string -> int array
(** [split_key prog key] cuts an {!encode}d (or canonical) key into
    per-component substrings for collapse compression: [1 + 3n] offsets —
    past the home, past each remote, past each home-bound channel, past
    each remote-bound channel.  The last offset equals
    [String.length key]. *)

(** {2 Node-local semantics}

    The refinement rules are local to one node: these functions give each
    node's transitions together with the messages it emits.  The global
    {!successors} is assembled from them, and {!Runtime} executes them
    concurrently over real channels. *)

val initial_home : Prog.t -> home
val initial_remote : Prog.t -> remote

val home_local :
  Prog.t -> config -> home -> (label * home * (int * Wire.t) list) list
(** Taus, row C1 (consume a buffered request — emits the ack) and row C2
    (send a request — emits it plus any eviction nack). *)

val home_recv :
  Prog.t -> config -> home -> int -> Wire.t -> (label * home * (int * Wire.t) list) list
(** Reaction to a message from remote [i]: rows T1-T6 and the admission
    rules.  Always consumes the message.
    @raise Protocol_error on messages the rules declare impossible. *)

val remote_local : Prog.t -> remote -> int -> (label * remote * Wire.t list) list
(** Taus, the active send (rows C1/C2 of Table 1) and passive consumption
    of the buffered home request (row C3). *)

val remote_recv : Prog.t -> remote -> int -> Wire.t -> (label * remote * Wire.t list) list
(** Reaction to a message from the home: rows T1-T3 and buffering.
    Returns [[]] when the one-slot buffer is full and the request cannot
    be accepted yet; the caller must leave the message queued. *)

(** {2 Matching helpers}

    All ways a request from remote [i] could complete a rendezvous of the
    home (resp. of remote [i]) at control state [ctl] under environment
    [env].  Each result is the matching guard's index and the scratch
    environment with bindings applied.  Shared with {!Absmap}. *)

val home_request_instances :
  Prog.t ->
  ctl:int ->
  env:Value.t array ->
  int ->
  Wire.msg ->
  (int * Value.t array) list

val remote_request_instances :
  Prog.t ->
  ctl:int ->
  env:Value.t array ->
  int ->
  Wire.msg ->
  (int * Value.t array) list

val messages_in_flight : state -> int
val all_rules : rule_id list
val rule_name : rule_id -> string
val pp_label : label Fmt.t
val pp_state : Prog.t -> state Fmt.t
