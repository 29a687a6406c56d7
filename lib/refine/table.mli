(** A per-check component table for the asynchronous level.

    The refinement rules of Tables 1 and 2 are local to one node, and
    the states of one check share few distinct components: on invalidate
    n=4, 1.7 M transitions touch about two thousand home values and a
    few dozen remote values, channel contents and messages.  A table
    interns each home, remote, channel and message by its {!Async}
    component bytes, and memoizes on the interned components:

    - {!Async.home_local} per home;
    - {!Async.remote_local} per remote and slot;
    - {!Async.home_recv} and {!Async.remote_recv} per node, slot and
      head message;
    - channel pop (computed when a channel is interned) and push per
      channel and message.

    A memo entry lists each transition's label, the node's new
    component and the messages it emits.  {!succ} assembles a
    successor from the parent and one entry, copying only the arrays the
    transition changes, and records which components it changed, so
    {!encode} writes the successor's key without encoding a component.

    Memoizing is exact: the four node-local rules are functions of
    their arguments alone (the program, the buffer capacity, the node's
    value, its slot and the message), so a memoized answer is the one a
    fresh call would give, label for label and in the same order.

    {b Keys.}  A table keys a state by its [1 + 3n] component ids
    (home, remotes, home-bound channels, remote-bound channels), each an
    unsigned LEB128 varint of any width.  Ids are dense in
    first-interned order and exist only inside one table: {!export}
    turns a key into the state's {!Async.encode} bytes, which are what
    leaves the check (checkpoint frontier and visited sections), and
    {!import} turns those bytes back into a key.

    {b Domains.}  Domain shards may share one table.  A memo hit takes
    no lock; a miss, and every interning, takes the table's mutex.  The
    memo fields are written once per entry and hold immutable values, so
    a reader sees either no entry (and takes the lock) or a complete
    one, and the BFS driver only decodes keys of earlier levels, whose
    ids were interned before the domains of that level joined.  With
    several shards the order of interning, and so every id, depends on
    timing.  Keys are then fine as frontier entries beside a canonical
    visited key, but as visited keys they would make the store's memory,
    its shard routing and a checkpoint's visited order depend on timing,
    so a sharded check without symmetry reduction should not use a
    table.

    {b Values.}  An interned component's value is decoded from its
    bytes, so its shape in memory never depends on which rule produced
    it first; {!decode} returns states built from these values.
    Equal components of one state are then physically equal. *)

open Ccr_core

type t

val create : Prog.t -> Async.config -> t
(** An empty table: a few records; its arrays come with its first
    components. *)

val succ :
  ?meter:Async.meter -> t -> Async.state -> (Async.label * Async.state) list
(** Exactly {!Async.successors}: the same labels and states, in the same
    order, with [meter] called as {!Async.successors} calls it.  The
    parent's components are known without interning when it is the
    state the calling domain last {!decode}d (or last passed to [succ]
    or {!encode}); any other state interns its components first.
    @raise Async.Protocol_error where {!Async.successors} raises it. *)

val encode : t -> Async.state -> string
(** The state's key.  A successor from the calling domain's last {!succ}
    batch is found there by [==] and keyed from its parent's ids and
    its recorded changes; any other state interns its components.  Two
    states have equal keys exactly when their {!Async.encode} keys are
    equal. *)

val decode : t -> string -> Async.state
(** The inverse of {!encode}: a state that {!Async.encode}s to the bytes
    the key stands for.  The result becomes the calling domain's parent
    for {!succ}.
    @raise Invalid_argument naming [Table.decode] and the byte offset on
    a truncated, overlong or trailing-byte key or an unknown id. *)

val export : t -> string -> string
(** A key's {!Async.encode} bytes. *)

val import : t -> string -> string
(** The key of the state whose {!Async.encode} bytes are given.
    @raise Invalid_argument as {!Async.decode}. *)

val canonical :
  ?stats:Symmetry.stats -> ?max_perms:int -> t -> Async.state -> string
(** The state's canonical key under remote-id symmetry: the sort and tie
    enumeration of {!Symmetry.canonicalize} over memoized inputs.  The
    state's components are found as {!encode} finds them (by [==] in the
    calling domain's last {!succ} batch, else by interning); each
    remote's and channel's signature part is memoized per component and
    slot, and the home's self-bits per home.  A candidate key is its
    components' bytes under the permutation: a component that names no
    remote id keeps its own bytes, any other is written afresh.

    The key is byte-identical to {!Async.encode_perm} of the chosen
    permutation, hence to the same function computed from the structured
    state, so checkpoints, golden digests and counts do not depend on
    the table.  [stats] and [max_perms] are as in
    {!Symmetry.canonical_rv_fast}; {!Symmetry.last_orbit} reports the
    state's orbit.  The memos hold at most [n] signature parts per
    remote and channel and one self-bit array per home; {!sizes}
    reports them. *)

val sizes : t -> (string * int) list
(** The table's size, for metrics: interned [homes], [remotes],
    [channels] and [messages]; memoized [signatures] (signature parts
    and home self-bit arrays) and [memo_bytes], their heap bytes. *)

