(** Symmetry reduction over remote identities.

    The paper's systems are fully symmetric in the remote nodes: every
    remote runs the same process, and remote identities appear only as
    interchangeable tokens (directory variables, sharer sets, payload
    values, channel indices).  Any permutation of remote ids is therefore
    an automorphism of the transition system, and reachability only needs
    one representative per orbit.

    These functions produce a {e canonical encoding}: the
    lexicographically smallest encoding over all permutations of remote
    ids.  Plugging one in as the canonical key of
    {!Ccr_modelcheck.Explore.run} explores the quotient space: counts
    shrink by up to [n!] while preserving every property that is itself
    symmetric (coherence invariants, deadlock, progress).

    Two canonicalizers are provided.  The {e brute} one permutes and
    re-encodes the state [n!] times (the test oracle; unusable past
    [max_fact]).  The {e fast} one sorts remote slots by a
    permutation-equivariant per-slot signature — the slot's own bytes
    (control state, env, buffer, transient mode, both channel contents),
    then one bit per home feature that refers to the slot — and
    enumerates permutations only within tied signature groups, so the
    common case is one sort plus one [encode_perm].  The async level's
    fast canonicalizer is {!Table.canonical}, which memoizes every
    signature part per interned component.  Both
    fall back to a deterministic injective — hence
    still sound, merely less reducing — key when their work bound is
    exceeded, and the fallback is {e counted}, never silent.

    This is an {e extension} beyond the paper — 1997 SPIN had no symmetry
    reduction — quantified by the bench harness. *)

open Ccr_core
open Ccr_semantics

(** {1 Statistics}

    Shared, domain-safe counters: one record can be handed to
    canonicalizers running in all of {!Ccr_modelcheck.Explore.run}'s
    domains. *)

type stats

val make_stats : ?timing:bool -> unit -> stats
(** [timing] (default [false]) makes every canonicalization read the
    clock twice, for {!canon_seconds}; counts are kept either way. *)

val calls : stats -> int
(** Canonicalizations performed. *)

val fallbacks : stats -> int
(** Calls that gave up on exact canonicalization (brute: [n > max_fact];
    fast: tie-group arrangements exceeded [max_perms]) and returned a
    deterministic non-canonical key instead. *)

val tied_calls : stats -> int
(** Fast-path calls with at least one tied signature group. *)

val perms_tried : stats -> int
(** Candidate encodings computed (1 per untied fast call). *)

val canon_seconds : stats -> float
(** Wall-clock time spent canonicalizing, summed over domains; 0 unless
    the stats were made with [~timing:true]. *)

val iter_tie_groups : stats -> (size:int -> count:int -> unit) -> unit
(** Iterate the tie-group size histogram (sizes >= 2; sizes beyond 32
    are clamped into the last bucket). *)

(** {1 Brute-force canonicalization} *)

val canonical_rv :
  ?stats:stats -> ?max_fact:int -> Prog.t -> Rendezvous.state -> string
(** Canonical encoding of a rendezvous state by exhaustive permutation.
    [max_fact] bounds the number of remotes for which all permutations
    are tried (default 6); beyond it the identity permutation is used and
    the call is counted as a fallback in [stats]. *)

val canonical_async :
  ?stats:stats -> ?max_fact:int -> Prog.t -> Async.state -> string

(** {1 Fast canonicalization} *)

val canonical_rv_fast :
  ?stats:stats -> ?max_perms:int -> Prog.t -> Rendezvous.state -> string
(** Canonical encoding by signature sort + tie refinement: the minimal
    encoding over the {e signature-consistent} permutations (those mapping
    each slot to a position of equal signature).  That candidate set is
    itself permutation-invariant, so the key is constant on each orbit and
    distinct across orbits — the same partition as the brute-force oracle
    (identical quotient counts and verdicts), though the representative
    {e encoding} it picks may differ from brute's global minimum.
    [max_perms] (default 5040) bounds the number of tie-group arrangements
    tried before falling back to the signature-sorted order (counted in
    [stats]). *)

val canonicalize :
  ?stats:stats ->
  ?max_perms:int ->
  n:int ->
  signatures:(unit -> unit) ->
  compare:(int -> int -> int) ->
  encode_perm:(p:int array -> inv:int array -> string) ->
  unit ->
  string
(** The sort and tie enumeration behind the fast canonicalizers, over
    [n] slots: [signatures ()] runs first (inside the timed part of
    [stats]) and makes [compare] ready, [compare a b] orders slots [a]
    and [b] by signature, and [encode_perm ~p ~inv] is the key of the
    state permuted by [p] ([inv] its inverse; both arrays are reused
    between calls).  The async level's canonicalizer is
    {!Table.canonical}, over memoized signature parts. *)

(** {2 Signature parts}

    A slot's signature at the async level is its remote's part, then
    its two channels' parts, then the home self-bits; each depends on
    one component and the slot alone. *)

val remote_signature : Async.remote -> int -> string
(** The slot-relative bytes of a remote at slot [i], ended by ['|']. *)

val channel_signature : Wire.t list -> int -> string
(** The slot-relative bytes of the channel between the home and slot
    [i], ended by ['|']. *)

val home_self_bits : int -> Async.home -> int array
(** One bit per rid-valued feature of the home, per slot of [n]: word
    [w] of slot [i] at [w * n + i], first feature most significant. *)

val compare_self_bits : int -> int array -> int -> int -> int
(** [compare_self_bits n bits a b] orders slots [a] and [b] of [n] by
    their self-bit words, first word first. *)

val last_orbit : unit -> int
(** Orbit size ([n! / |stabilizer|]) of the state passed to the most
    recent fast canonicalization {e in the calling domain}, or [0] when
    unknown (fallback, or [n!] overflows).  Valid until the next fast
    canonicalization in the same domain; feeds the states-per-orbit
    histogram. *)

(** {1 Permutation primitives (exposed for tests and the bench)} *)

val permute_rv : Prog.t -> int array -> Rendezvous.state -> Rendezvous.state
(** [permute_rv prog p st] renames remote [i] to [p.(i)] everywhere:
    remote array slots, rid-valued variables, rid sets, payloads and
    channel contents. *)

val permute_async : Prog.t -> int array -> Async.state -> Async.state

val permute_slots : int array -> 'a array -> ('a -> 'b) -> 'b array
(** New array whose slot [p.(i)] holds [f] of slot [i]; total on the
    empty array. *)

val permutations : int -> int array list
(** All permutations of [0..n-1]. *)
