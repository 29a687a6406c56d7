open Ccr_core
open Ccr_semantics
open Ccr_refine
open Test_util

let k2 = Async.{ k = 2 }
let mig n = compile ~n (Ccr_protocols.Migratory.system ())

(* [encode] may be a canonical encoding: [decode] then reads the orbit
   representative back, whose successors match the concrete state's up to
   the symmetry. *)
let explore_with encode decode succ init =
  Ccr_modelcheck.Explore.run
    Ccr_modelcheck.Explore.
      { init; succ; encode; decode; canon = None; key_io = None }
  |> fun (r : (_, _) Ccr_modelcheck.Explore.stats) -> (r.states, r.outcome)

let rv_quotient prog =
  explore_with
    (Symmetry.canonical_rv prog)
    (Rendezvous.decode prog) (Rendezvous.successors prog)
    (Rendezvous.initial prog)

let rv_exact prog =
  explore_with Rendezvous.encode (Rendezvous.decode prog)
    (Rendezvous.successors prog)
    (Rendezvous.initial prog)

let async_quotient ?(k = 2) prog =
  explore_with
    (Symmetry.canonical_async prog)
    (Async.decode prog)
    (Async.successors prog Async.{ k })
    (Async.initial prog Async.{ k })

let async_exact ?(k = 2) prog =
  explore_with Async.encode (Async.decode prog)
    (Async.successors prog Async.{ k })
    (Async.initial prog Async.{ k })

let identity n = Array.init n Fun.id
let swap01 n =
  let p = Array.init n Fun.id in
  p.(0) <- 1;
  p.(1) <- 0;
  p

(* ---- shared machinery for the property tests --------------------------- *)

(* Registry protocols instantiated at [n] (the request/reply-optimized
   refinement, as `ccr check` uses). *)
let registry_progs n =
  List.map
    (fun (e : Ccr_protocols.Registry.t) ->
      (e.name, e.instantiate ~reqrep:true ~n))
    Ccr_protocols.Registry.all

(* BFS sample of up to [budget] distinct reachable states. *)
let sample_states ~encode ~succ init budget =
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let out = ref [] in
  let budget = ref budget in
  let push st =
    let key = encode st in
    if (not (Hashtbl.mem seen key)) && !budget > 0 then begin
      decr budget;
      Hashtbl.add seen key ();
      out := st :: !out;
      Queue.push st q
    end
  in
  push init;
  while not (Queue.is_empty q) do
    let st = Queue.pop q in
    List.iter (fun (_, s) -> push s) (succ st)
  done;
  !out

let sample_async prog budget =
  sample_states ~encode:Async.encode
    ~succ:(Async.successors prog k2)
    (Async.initial prog k2) budget

let sample_rv prog budget =
  sample_states ~encode:Rendezvous.encode
    ~succ:(Rendezvous.successors prog)
    (Rendezvous.initial prog) budget

let random_perm rng n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* The async fast canonicalizer: [Table.canonical] over a table of its
   own, which interns the states it is given. *)
let fast ?stats ?max_perms prog =
  Table.canonical ?stats ?max_perms (Table.create prog k2)

(* The async system on a component table, as [ccr check] runs it: the
   canonicalizer then finds each successor in [succ]'s batch. *)
let table_system t prog =
  Ccr_modelcheck.Explore.
    {
      init = Async.initial prog k2;
      succ = Table.succ t;
      encode = Table.encode t;
      decode = Table.decode t;
      canon = None;
      key_io = None;
    }

(* Quotient exploration through the [canon] hook, sequential or parallel. *)
let quotient_count ~jobs sys canon_key =
  let sys =
    Ccr_modelcheck.Explore.
      {
        sys with
        canon =
          Some
            {
              canon_key;
              canon_fresh = None;
              canon_fallbacks = (fun () -> 0);
            };
      }
  in
  let r = Ccr_modelcheck.Explore.run ~jobs sys in
  assert_complete "quotient" r;
  r.states

(* A quotient run on a component table at [n], as [ccr check] makes
   it, and the digest of its sorted canonical-key set. *)
type golden = {
  g_states : int;
  g_keys : int;
  g_stats : Symmetry.stats;
  g_digest : string;
}

let golden_run ?max_perms name n =
  let prog =
    (Ccr_protocols.Registry.find name |> Option.get).instantiate ~reqrep:true
      ~n
  in
  let t = Table.create prog k2 in
  let stats = Symmetry.make_stats () in
  let seen = Hashtbl.create 4096 in
  let canon_key st =
    let k = Table.canonical ~stats ?max_perms t st in
    Hashtbl.replace seen k ();
    k
  in
  let states = quotient_count ~jobs:1 (table_system t prog) canon_key in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun k ->
      Buffer.add_string b (string_of_int (String.length k));
      Buffer.add_char b ':';
      Buffer.add_string b k)
    (List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []));
  {
    g_states = states;
    g_keys = Hashtbl.length seen;
    g_stats = stats;
    g_digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

let tests =
  [
    case "permuting with the identity is the identity" (fun () ->
        let prog = mig 3 in
        let st = Async.initial prog k2 in
        let st = fire prog st (by_rule ~actor:1 Async.R_C1) in
        let st' = Symmetry.permute_async prog (identity 3) st in
        checks "same" (Async.encode st) (Async.encode st'));
    case "permutation renames consistently" (fun () ->
        let prog = mig 2 in
        let st = Async.initial prog k2 in
        (* r0 requests; swapping 0<->1 must move the request to r1 *)
        let st = fire prog st (by_rule ~actor:0 Async.R_C1) in
        let st' = Symmetry.permute_async prog (swap01 2) st in
        checkb "r1 now waits" true
          (match st'.Async.r.(1).r_mode with
          | Async.Rwait _ -> true
          | _ -> false);
        checkb "r0 now idle" true (st'.Async.r.(0).r_mode = Async.Rcomm);
        checki "channel moved" 1 (List.length st'.Async.to_h.(1));
        checki "old channel empty" 0 (List.length st'.Async.to_h.(0)));
    case "permutation renames directory variables and sets" (fun () ->
        let prog = compile ~n:3 Ccr_protocols.Invalidate.system in
        let st = Rendezvous.initial prog in
        let sh = Prog.var_index prog.home "sh" in
        let env = Array.copy st.Rendezvous.h.env in
        env.(sh) <- Value.set_of_list [ 0; 2 ];
        let st = { st with Rendezvous.h = { st.Rendezvous.h with env } } in
        let p = [| 1; 0; 2 |] in
        let st' = Symmetry.permute_rv prog p st in
        checkb "set renamed" true
          (Value.equal
             st'.Rendezvous.h.env.(sh)
             (Value.set_of_list [ 1; 2 ])));
    case "permute_slots is total on the empty array" (fun () ->
        checki "empty" 0 (Array.length (Symmetry.permute_slots [||] [||] Fun.id)));
    case "canonical encoding is permutation-invariant" (fun () ->
        let prog = mig 3 in
        List.iter
          (fun st ->
            (* every permutation of the state canonicalizes identically *)
            let c = Symmetry.canonical_async prog st in
            List.iter
              (fun p ->
                checks "invariant" c
                  (Symmetry.canonical_async prog
                     (Symmetry.permute_async prog (Array.of_list p) st)))
              [ [ 1; 0; 2 ]; [ 2; 1; 0 ]; [ 1; 2; 0 ] ])
          (sample_async prog 500));
    case "encode_perm matches encode-of-permuted, both levels" (fun () ->
        let rng = Random.State.make [| 0x5e7 |] in
        List.iter
          (fun (name, prog) ->
            let n = prog.Prog.n in
            let inv_of p =
              let inv = Array.make n 0 in
              Array.iteri (fun i j -> inv.(j) <- i) p;
              inv
            in
            List.iter
              (fun st ->
                let p = random_perm rng n in
                checks (name ^ " async")
                  (Async.encode (Symmetry.permute_async prog p st))
                  (Async.encode_perm ~p ~inv:(inv_of p) st))
              (sample_async prog 60);
            if
              List.exists
                (fun (e : Ccr_protocols.Registry.t) ->
                  e.name = name && e.system <> None)
                Ccr_protocols.Registry.all
            then
              List.iter
                (fun st ->
                  let p = random_perm rng n in
                  checks (name ^ " rv")
                    (Rendezvous.encode (Symmetry.permute_rv prog p st))
                    (Rendezvous.encode_perm ~p ~inv:(inv_of p) st))
                (sample_rv prog 60))
          (registry_progs 3));
    case "fast and brute canonicalizers induce the same partition"
      (fun () ->
        (* The two canonicalizers may pick different orbit representatives
           (fast minimizes over the signature-consistent permutations, brute
           over all), but they must merge exactly the same states: the key
           equivalences coincide.  That is the property the quotient counts
           and verdicts depend on. *)
        let rng = Random.State.make [| 0xb0b |] in
        List.iter
          (fun n ->
            List.iter
              (fun (name, prog) ->
                let base = sample_async prog (if n = 3 then 120 else 60) in
                (* include permuted variants so cross-orbit merging is
                   actually exercised, not just hit by luck *)
                let sts =
                  base
                  @ List.map
                      (fun st ->
                        Symmetry.permute_async prog (random_perm rng n) st)
                      base
                in
                let brute_to_fast = Hashtbl.create 64 in
                let fast_to_brute = Hashtbl.create 64 in
                let canon = fast prog in
                List.iter
                  (fun st ->
                    let b = Symmetry.canonical_async prog st in
                    let f = canon st in
                    (match Hashtbl.find_opt brute_to_fast b with
                    | None -> Hashtbl.add brute_to_fast b f
                    | Some f' -> checks (name ^ " merge") f' f);
                    match Hashtbl.find_opt fast_to_brute f with
                    | None -> Hashtbl.add fast_to_brute f b
                    | Some b' -> checks (name ^ " split") b' b)
                  sts)
              (registry_progs n))
          [ 3; 4 ]);
    case "fast canonical is permutation-invariant (random perms)" (fun () ->
        let rng = Random.State.make [| 0xfa57 |] in
        List.iter
          (fun (name, prog) ->
            let canon = fast prog in
            List.iter
              (fun st ->
                let c = canon st in
                for _ = 1 to 4 do
                  let p = random_perm rng prog.Prog.n in
                  checks name c (canon (Symmetry.permute_async prog p st))
                done)
              (sample_async prog 80))
          (registry_progs 4));
    case "fast rendezvous canonical is permutation-invariant" (fun () ->
        let rng = Random.State.make [| 0xca4 |] in
        List.iter
          (fun (name, prog) ->
            List.iter
              (fun st ->
                let c = Symmetry.canonical_rv_fast prog st in
                for _ = 1 to 4 do
                  let p = random_perm rng prog.Prog.n in
                  checks name c
                    (Symmetry.canonical_rv_fast prog
                       (Symmetry.permute_rv prog p st))
                done)
              (sample_rv prog 120))
          (List.filter_map
             (fun (e : Ccr_protocols.Registry.t) ->
               if e.system = None then None
               else Some (e.name, e.instantiate ~reqrep:true ~n:4))
             Ccr_protocols.Registry.all));
    case "quotient counts: fast = brute at jobs 1/2/4, rendezvous n=3..4"
      (fun () ->
        List.iter
          (fun n ->
            List.iter
              (fun (e : Ccr_protocols.Registry.t) ->
                match e.system with
                | None -> ()
                | Some _ ->
                  let prog = e.instantiate ~reqrep:true ~n in
                  let sys = rv_system prog in
                  let brute =
                    quotient_count ~jobs:1 sys (Symmetry.canonical_rv prog)
                  in
                  List.iter
                    (fun jobs ->
                      checki
                        (Fmt.str "%s rv n=%d j=%d" e.name n jobs)
                        brute
                        (quotient_count ~jobs sys
                           (Symmetry.canonical_rv_fast prog)))
                    [ 1; 2; 4 ])
              Ccr_protocols.Registry.all)
          [ 3; 4 ]);
    case "quotient counts: fast = brute at jobs 1/2/4, async n=3..4"
      (fun () ->
        (* full registry at n=3; n=4 on the protocols whose brute-force
           quotient stays small enough for a test run *)
        let sweep n names =
          List.iter
            (fun (e : Ccr_protocols.Registry.t) ->
              if names = [] || List.mem e.name names then begin
                let prog = e.instantiate ~reqrep:true ~n in
                let sys = async_system prog in
                let brute =
                  quotient_count ~jobs:1 sys (Symmetry.canonical_async prog)
                in
                List.iter
                  (fun jobs ->
                    let t = Table.create prog k2 in
                    checki
                      (Fmt.str "%s async n=%d j=%d" e.name n jobs)
                      brute
                      (quotient_count ~jobs (table_system t prog)
                         (Table.canonical t)))
                  [ 1; 2; 4 ]
              end)
            Ccr_protocols.Registry.all
        in
        sweep 3 [ "migratory"; "migratory-hand"; "invalidate"; "lock"; "barrier" ];
        sweep 4 [ "migratory"; "lock"; "barrier" ]);
    case "quotient counts sit between exact/n! and exact" (fun () ->
        let rec fact = function 0 | 1 -> 1 | k -> k * fact (k - 1) in
        List.iter
          (fun n ->
            let prog = mig n in
            let exact, _ = rv_exact prog in
            let quotient, _ = rv_quotient prog in
            checkb "reduced" true (quotient <= exact);
            checkb "not over-reduced" true (quotient * fact n >= exact))
          [ 2; 3; 4 ]);
    case "quotient preserves invariants and deadlock-freedom" (fun () ->
        let prog = mig 3 in
        let r =
          Ccr_modelcheck.Explore.run ~check_deadlock:true
            ~invariants:(Ccr_protocols.Migratory.async_invariants prog)
            Ccr_modelcheck.Explore.
              {
                init = Async.initial prog k2;
                succ = Async.successors prog k2;
                encode = Symmetry.canonical_async prog;
                decode = Async.decode prog;
                canon = None;
                key_io = None;
              }
        in
        checkb "complete" true (outcome_complete r.outcome));
    case "async quotient reduction factor grows with n" (fun () ->
        let e2, _ = async_exact (mig 2) in
        let q2, _ = async_quotient (mig 2) in
        let e3, _ = async_exact (mig 3) in
        let q3, _ = async_quotient (mig 3) in
        let f2 = float_of_int e2 /. float_of_int q2 in
        let f3 = float_of_int e3 /. float_of_int q3 in
        checkb "reduces at n=2" true (f2 > 1.5);
        checkb "reduces more at n=3" true (f3 > f2));
    case "orbit sizes from the stabilizer count" (fun () ->
        let prog = mig 3 in
        let st0 = Async.initial prog k2 in
        (* migratory's home starts with owner [o = rid 0], which
           distinguishes remote 0; remotes 1 and 2 tie, so the stabilizer
           is 2! and the initial orbit 3!/2! = 3 *)
        ignore (fast prog st0);
        checki "initial orbit" 3 (Symmetry.last_orbit ());
        (* remote 1 fires C1: now all three slots are distinguished (0 by
           the owner var, 1 by its control state), stabilizer 1, orbit 3! *)
        let st1 = fire prog st0 (by_rule ~actor:1 Async.R_C1) in
        ignore (fast prog st1);
        checki "one-requester orbit" 6 (Symmetry.last_orbit ()));
    case "beyond max_fact the brute encoding falls back, counted" (fun () ->
        let prog = mig 3 in
        let st = Async.initial prog k2 in
        let stats = Symmetry.make_stats () in
        checks "identity fallback"
          (Async.encode st)
          (Symmetry.canonical_async ~stats ~max_fact:2 prog st);
        checki "fallback counted" 1 (Symmetry.fallbacks stats);
        checki "one call" 1 (Symmetry.calls stats));
    case "fast tie cap falls back soundly, counted" (fun () ->
        let prog = mig 3 in
        let st = Async.initial prog k2 in
        let stats = Symmetry.make_stats () in
        (* the initial state's remotes all tie: 3! arrangements > 1 *)
        let k1 = fast ~stats ~max_perms:1 prog st in
        checki "fallback counted" 1 (Symmetry.fallbacks stats);
        checki "orbit unknown" 0 (Symmetry.last_orbit ());
        checks "deterministic" k1 (fast ~max_perms:1 prog st);
        (* capped quotient still lands between true quotient and exact *)
        let capped =
          explore_with
            (fast ~max_perms:1 prog)
            (Async.decode prog)
            (Async.successors prog k2)
            (Async.initial prog k2)
          |> fst
        in
        let q, _ = async_quotient prog in
        let e, _ = async_exact prog in
        checkb "sound" true (q <= capped && capped <= e));
    case "explorer surfaces canonicalization fallbacks" (fun () ->
        let prog = mig 3 in
        let stats = Symmetry.make_stats () in
        let sys =
          Ccr_modelcheck.Explore.
            {
              (async_system prog) with
              canon =
                Some
                  {
                    canon_key =
                      Symmetry.canonical_async ~stats ~max_fact:2 prog;
                    canon_fresh = None;
                    canon_fallbacks = (fun () -> Symmetry.fallbacks stats);
                  };
            }
        in
        let r = Ccr_modelcheck.Explore.run sys in
        assert_complete "capped" r;
        (* one canonicalization per discovered successor plus the initial
           state, every one of them beyond max_fact *)
        checki "fallbacks surfaced" (r.transitions + 1) r.canon_fallbacks);
    case "canonicalization stats add up" (fun () ->
        let prog = mig 3 in
        let stats = Symmetry.make_stats () in
        let sts = sample_async prog 200 in
        let canon = fast ~stats prog in
        List.iter (fun st -> ignore (canon st)) sts;
        checki "calls" (List.length sts) (Symmetry.calls stats);
        checkb "perms >= calls" true
          (Symmetry.perms_tried stats >= Symmetry.calls stats);
        checkb "time measured" true (Symmetry.canon_seconds stats >= 0.);
        let tied = ref 0 in
        Symmetry.iter_tie_groups stats (fun ~size ~count ->
            checkb "tie sizes >= 2" true (size >= 2);
            tied := !tied + count);
        checkb "tied calls counted" true
          ((!tied > 0) = (Symmetry.tied_calls stats > 0)));
    case "canonicalization reads the clock only for timing stats" (fun () ->
        let prog = mig 3 in
        let sts = sample_async prog 200 in
        let run stats =
          let canon = fast ~stats prog in
          List.iter (fun st -> ignore (canon st)) sts
        in
        let plain = Symmetry.make_stats ()
        and timed = Symmetry.make_stats ~timing:true () in
        run plain;
        run timed;
        checki "same calls" (Symmetry.calls timed) (Symmetry.calls plain);
        checki "same perms"
          (Symmetry.perms_tried timed)
          (Symmetry.perms_tried plain);
        checkb "untimed: no time" true (Symmetry.canon_seconds plain = 0.);
        checkb "timed: time measured" true (Symmetry.canon_seconds timed > 0.);
        (* [Api.check_entry] makes untimed stats of its own; its fallbacks
           still reach the verdict (brute beyond max_fact: every call) *)
        let cfg =
          {
            Ccr_serve.Api.default with
            Ccr_serve.Api.spec = Ccr_serve.Api.Named "migratory";
            level = `Rv;
            n = 7;
            symmetry = `Brute;
          }
        in
        let e = Result.get_ok (Ccr_serve.Api.resolve cfg.Ccr_serve.Api.spec) in
        match Ccr_serve.Api.check_entry e cfg with
        | Error msg -> Alcotest.failf "check refused: %s" msg
        | Ok (v, _) ->
          checki "a fallback per canonicalization"
            (v.Ccr_serve.Api.v_transitions + 1)
            v.Ccr_serve.Api.v_canon_fallbacks);
    case
      "table canonical: batch and fresh-table keys agree, every \
       protocol, n=2,3" (fun () ->
        (* [Table.canonical] finds a successor of its own [succ] batch by
           [==] and reads its memos; each key must equal the one a fresh
           table gives, which interns the successor and fills its memos
           from scratch, and the one a table on another domain gives *)
        let shared = ref 0 in
        List.iter
          (fun n ->
            List.iter
              (fun (name, prog) ->
                let sts = Array.of_list (sample_async prog 20_000) in
                let t = Table.create prog k2 in
                let batch =
                  Array.map
                    (fun st ->
                      let key = Table.encode t st in
                      let parent = Table.decode t key in
                      List.map
                        (fun (_, (s : Async.state)) ->
                          if s.r.(0) == parent.r.(0) then incr shared;
                          Table.canonical t s)
                        (Table.succ t parent))
                    sts
                in
                let other =
                  Domain.join
                    (Domain.spawn (fun () ->
                         let t = Table.create prog k2 in
                         Array.map
                           (fun st ->
                             List.map
                               (fun (_, s) -> Table.canonical t s)
                               (Async.successors prog k2 st))
                           sts))
                in
                Array.iteri
                  (fun i st ->
                    let fresh =
                      List.map
                        (fun (_, s) -> fast prog s)
                        (Async.successors prog k2 st)
                    in
                    if batch.(i) <> fresh || other.(i) <> fresh then
                      Alcotest.failf
                        "%s n=%d: batch, other-domain and fresh-table keys \
                         differ"
                        name n)
                  sts)
              (registry_progs n))
          [ 2; 3 ];
        checkb "successors share slots with their parent" true (!shared > 0));
    case
      "table canonical names the brute-force orbit, every protocol n=2,3, \
       invalidate and migratory n=4" (fun () ->
        (* on every successor of sampled states: the state the table key
           encodes has the same brute-force canonical key as the
           successor (the key is of the successor's orbit), and the two
           canonicalizers merge exactly the same successors *)
        let check n (name, prog) =
          let t = Table.create prog k2 in
          let stats = Symmetry.make_stats () in
          let to_brute = Hashtbl.create 64 and of_brute = Hashtbl.create 64 in
          List.iter
            (fun st ->
              List.iter
                (fun (_, s) ->
                  let key = Table.canonical ~stats t s in
                  let b = Symmetry.canonical_async prog s in
                  checks
                    (Fmt.str "%s n=%d orbit" name n)
                    b
                    (Symmetry.canonical_async prog (Async.decode prog key));
                  (match Hashtbl.find_opt to_brute key with
                  | None -> Hashtbl.add to_brute key b
                  | Some b' -> checks (name ^ " merge") b' b);
                  match Hashtbl.find_opt of_brute b with
                  | None -> Hashtbl.add of_brute b key
                  | Some k' -> checks (name ^ " split") k' key)
                (Table.succ t st))
            (sample_async prog (if n = 4 then 150 else 300));
          checki (name ^ " no fallback") 0 (Symmetry.fallbacks stats);
          Symmetry.tied_calls stats > 0
        in
        let tied =
          List.concat_map
            (fun n -> List.map (check n) (registry_progs n))
            [ 2; 3 ]
          @ List.map (check 4)
              (List.filter
                 (fun (name, _) -> name = "invalidate" || name = "migratory")
                 (registry_progs 4))
        in
        checkb "tie groups exercised" true (List.mem true tied));
    case "table canonical at seven remotes: migratory n=7" (fun () ->
        (* past brute force's default: keys must be orbit-invariant and
           name the state's orbit *)
        let prog = mig 7 in
        let t = Table.create prog k2 in
        let rng = Random.State.make [| 0x7 |] in
        List.iteri
          (fun i st ->
            let key = Table.canonical t st in
            for _ = 1 to 3 do
              checks "invariant" key
                (Table.canonical t
                   (Symmetry.permute_async prog (random_perm rng 7) st))
            done;
            if i mod 10 = 0 then
              checks "orbit"
                (Symmetry.canonical_async ~max_fact:7 prog st)
                (Symmetry.canonical_async ~max_fact:7 prog
                   (Async.decode prog key)))
          (sample_async prog 40));
    case "canonical keys are golden: invalidate and migratory async n=3"
      (fun () ->
        (* digest of the sorted canonical-key set of each quotient run,
           recorded before the incremental signatures: the keys are
           byte-identical, not just equally many *)
        List.iter
          (fun (name, states, want) ->
            let r = golden_run name 3 in
            checki (name ^ " states") states r.g_states;
            checki (name ^ " keys") states r.g_keys;
            checks (name ^ " digest") want r.g_digest)
          [ ("invalidate", 9263, "52fb619056804fdd9fc9d3ad36b69cab"); ("migratory", 375, "96c83e52a8870bdeb5867da0237b026e") ]);
    case "golden keys and tie caps: invalidate n=3,4, migratory n=5"
      (fun () ->
        (* recorded with the structured canonicalizer before the
           component table: key digest, fallbacks, tied calls and
           candidates tried, with the default tie cap and with small
           ones (a capped call keeps the signature-sorted order) *)
        List.iter
          (fun (name, n, max_perms, (states, fallbacks, tied, perms), want) ->
            let what = Fmt.str "%s n=%d cap %d" name n max_perms in
            let r = golden_run ~max_perms name n in
            checki (what ^ " states") states r.g_states;
            checki (what ^ " keys") states r.g_keys;
            checki (what ^ " fallbacks") fallbacks
              (Symmetry.fallbacks r.g_stats);
            checki (what ^ " tied") tied (Symmetry.tied_calls r.g_stats);
            checki (what ^ " perms") perms (Symmetry.perms_tried r.g_stats);
            checks (what ^ " digest") want r.g_digest)
          [
            ( "invalidate", 4, 5040, (77965, 0, 32379, 340297),
              "da6bd99e9168b2bb1dceef67effed8f0" );
            ( "invalidate", 4, 2, (77965, 766, 32379, 335701),
              "da6bd99e9168b2bb1dceef67effed8f0" );
            ( "invalidate", 3, 1, (9263, 752, 752, 26440),
              "52fb619056804fdd9fc9d3ad36b69cab" );
            ( "migratory", 5, 6, (2670, 90, 7765, 26054),
              "3fa6c582e56b2d366d40eb34bde7e7c1" );
          ]);
  ]

let suite = ("symmetry", tests)
