(* The visited-store zoo: collapse compression and the out-of-core disk
   store must be *exact* — byte-identical state and transition counts to
   the plain interned store — while resident memory drops.  These tests
   pin the codec round-trips, the splitter contracts the collapse store
   builds on, cross-store count agreement on every registry protocol,
   and the headline regression: migratory async n=5 completes under an
   8 MB cap that the plain store blows through. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Sym = Ccr_refine.Symmetry
module Rendezvous = Ccr_semantics.Rendezvous
module Fault = Ccr_faults.Fault
module Injected = Ccr_faults.Injected
module Registry = Ccr_protocols.Registry

(* ---- generators -------------------------------------------------------- *)

(* Short strings over a 4-letter alphabet: plenty of duplicate keys and
   duplicate components, which is what the stores must get right. *)
let keys_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (string_size ~gen:(char_range 'a' 'd') (int_range 1 24)))

let print_keys = QCheck2.Print.(list string)

(* Cut a key into 4 components at the quarter points (possibly empty for
   short keys): a fixed-arity splitter for arbitrary strings, as the
   per-position intern tables require. *)
let split3 key =
  let len = String.length key in
  Array.init 4 (fun i -> (i + 1) * len / 4)

(* Feed the same key sequence to [store] and to an exact reference;
   every [add] verdict and the final counts must agree. *)
let agrees_with_exact store keys =
  let exact = Vstore.exact () in
  List.for_all
    (fun k -> store.Vstore.add k = exact.Vstore.add k)
    keys
  && store.Vstore.count () = exact.Vstore.count ()

(* ---- splitter contract -------------------------------------------------- *)

(* Collect every distinct key an exploration encodes. *)
let reachable_keys sys =
  let seen = Hashtbl.create 256 in
  let encode st =
    let k = sys.Explore.encode st in
    Hashtbl.replace seen k ();
    k
  in
  ignore (Explore.run { sys with Explore.encode });
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let check_splitter what split ~arity keys =
  checkb (what ^ ": some keys collected") true (keys <> []);
  List.iter
    (fun key ->
      let bs = split key in
      checki (what ^ ": component arity") arity (Array.length bs);
      let prev = ref 0 in
      Array.iter
        (fun b ->
          checkb (what ^ ": boundaries strictly increase") true (b > !prev);
          prev := b)
        bs;
      checki (what ^ ": boundaries cover the key") (String.length key)
        bs.(Array.length bs - 1))
    keys

(* ---- cross-store agreement on real systems ------------------------------ *)

let stores_for prog =
  [
    ("collapse", Vstore.Collapse (Async.split_key prog));
    ("disk", Vstore.Disk);
  ]

let check_stores_equal name prog sys =
  let seq = Explore.run sys in
  assert_complete name seq;
  List.iter
    (fun (sname, kind) ->
      let r = Explore.run ~store:kind sys in
      checki (Fmt.str "%s: states (%s)" name sname) seq.states r.states;
      checki
        (Fmt.str "%s: transitions (%s)" name sname)
        seq.transitions r.transitions;
      checkb
        (Fmt.str "%s: complete (%s)" name sname)
        true
        (outcome_complete r.outcome);
      List.iter
        (fun jobs ->
          let p = Explore.run ~jobs ~store:kind sys in
          checki
            (Fmt.str "%s: states (%s, j=%d)" name sname jobs)
            seq.states p.states;
          checki
            (Fmt.str "%s: transitions (%s, j=%d)" name sname jobs)
            seq.transitions p.transitions)
        [ 2; 4 ])
    (stores_for prog)

(* ---- key codecs ---------------------------------------------------------- *)

(* Up to [cap] reachable states of [sys], in BFS order. *)
let reachable_states ?(cap = 20_000) sys =
  let seen = Hashtbl.create 1024 and out = ref [] and count = ref 0 in
  let q = Queue.create () in
  let visit st =
    let k = sys.Explore.encode st in
    if !count < cap && not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      incr count;
      out := st :: !out;
      Queue.add st q
    end
  in
  visit sys.Explore.init;
  while not (Queue.is_empty q) do
    List.iter (fun (_, st) -> visit st) (sys.Explore.succ (Queue.pop q))
  done;
  List.rev !out

(* [decode] on a key nobody encoded either refuses it with an
   [Invalid_argument] naming [who] and a byte offset, or returns the state
   that encodes back to exactly that key — never another exception. *)
let refuses_or_inverts what who sys key =
  match sys.Explore.decode key with
  | st ->
    if sys.Explore.encode st <> key then
      Alcotest.failf "%s: %S decodes to a state encoding otherwise" what key;
    false
  | exception Invalid_argument msg ->
    if
      not
        (contains_sub ~sub:(who ^ ": ") msg
        && contains_sub ~sub:" at byte " msg)
    then Alcotest.failf "%s: refusal %S does not name %s and a byte offset"
        what msg who;
    true

(* The codec contract on every reachable state of [sys] (up to the cap):
   [encode (decode (encode s)) = encode s] and [decode (encode s) = s];
   and on a sample of keys, every strict prefix is refused (when
   [prefixes_refused]: the layout has no open-ended tail) and every
   single-byte corruption is refused or decodes to its own key. *)
let check_codec ?(prefixes_refused = true) what who sys =
  let states = reachable_states sys in
  checkb (what ^ ": states collected") true (states <> []);
  List.iteri
    (fun i st ->
      let key = sys.Explore.encode st in
      let st' = sys.Explore.decode key in
      if sys.Explore.encode st' <> key then
        Alcotest.failf "%s: encode (decode k) <> k for %S" what key;
      if st' <> st then
        Alcotest.failf "%s: decode (encode s) <> s for %S" what key;
      if i mod 97 = 0 then begin
        for len = 0 to String.length key - 1 do
          let refused =
            refuses_or_inverts (what ^ " prefix") who sys (String.sub key 0 len)
          in
          if prefixes_refused && not refused then
            Alcotest.failf "%s: a %d-byte prefix of a %d-byte key decoded"
              what len (String.length key)
        done;
        String.iteri
          (fun j c ->
            List.iter
              (fun mask ->
                let b = Bytes.of_string key in
                Bytes.set b j (Char.chr (Char.code c lxor mask));
                ignore
                  (refuses_or_inverts (what ^ " corruption") who sys
                     (Bytes.to_string b)))
              [ 0x01; 0x80; 0xff ])
          key;
        ignore
          (refuses_or_inverts (what ^ " trailing byte") who sys (key ^ "\000"))
      end)
    states

let registry_progs n =
  List.map
    (fun (e : Registry.t) -> (e, e.Registry.instantiate ~reqrep:true ~n))
    Registry.all

let drop1_dup1 = { Fault.none with Fault.drop = 1; dup = 1 }

let injected_system mode prog =
  let cfg = Async.{ k = 2 } in
  Explore.
    {
      init = Injected.initial drop1_dup1 prog cfg;
      succ = Injected.successors mode drop1_dup1 prog cfg;
      encode = Injected.encode;
      decode = Injected.decode prog;
      canon = None;
    }

(* ---- the tests ---------------------------------------------------------- *)

let tests =
  [
    case "intern: ids are dense, get inverts id, unknowns raise" (fun () ->
        let t = Vstore.Intern.create () in
        let words = [ "alpha"; "beta"; "alpha"; ""; "gamma"; "beta" ] in
        let ids = List.map (Vstore.Intern.id t) words in
        checki "ids" 0 (List.nth ids 0);
        checki "ids" 1 (List.nth ids 1);
        checki "re-intern returns the first id" 0 (List.nth ids 2);
        checki "empty component interns" 2 (List.nth ids 3);
        checki "count" 4 (Vstore.Intern.count t);
        List.iter2
          (fun w id -> checks "get inverts id" w (Vstore.Intern.get t id))
          words ids;
        match Vstore.Intern.get t 99 with
        | exception Invalid_argument _ -> ()
        | s -> Alcotest.failf "unknown id returned %S" s);
    qcase ~count:200 ~print:print_keys
      "collapse add/count agree with the exact store on random keys"
      keys_gen
      (fun keys ->
        agrees_with_exact (Vstore.collapse ~split:split3 ()) keys);
    qcase ~count:200 ~print:print_keys
      "disk store with a tiny spill buffer agrees with the exact store"
      keys_gen
      (fun keys ->
        (* tail_cap=16 forces nearly every key through the file and the
           read-back comparison path *)
        agrees_with_exact (Vstore.disk ~tail_cap:16 ()) keys);
    qcase ~count:200 ~print:print_keys
      "collapse shards partition like one exact store"
      keys_gen
      (fun keys ->
        let shards = Array.init 4 (fun _ -> Vstore.collapse ~split:split3 ()) in
        let exact = Vstore.exact () in
        List.for_all
          (fun k ->
            let s = shards.(Hashtbl.hash k land 3) in
            s.Vstore.add k = exact.Vstore.add k)
          keys
        && Array.fold_left (fun a s -> a + s.Vstore.count ()) 0 shards
           = exact.Vstore.count ());
    case "async split_key parses every reachable key" (fun () ->
        let prog = compile ~n:2 ping_system in
        let keys = reachable_keys (async_system prog) in
        check_splitter "ping async" (Async.split_key prog) ~arity:(1 + (3 * 2))
          keys;
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let keys = reachable_keys (async_system prog) in
        check_splitter "migratory async"
          (Async.split_key prog)
          ~arity:(1 + (3 * 3))
          keys);
    case "rendezvous split_key parses every reachable key" (fun () ->
        let prog = compile ~n:3 ping_system in
        let keys = reachable_keys (rv_system prog) in
        check_splitter "ping rv" (Rendezvous.split_key prog) ~arity:(1 + 3)
          keys);
    case "faults split_key parses every reachable key" (fun () ->
        let prog = compile ~n:2 ping_system in
        let cfg = Async.{ k = 2 } in
        let budget = { Fault.none with Fault.drop = 1 } in
        let sys =
          Explore.
            {
              init = Injected.initial budget prog cfg;
              succ = Injected.successors Injected.Hardened budget prog cfg;
              encode = Injected.encode;
              decode = Injected.decode prog;
              canon = None;
            }
        in
        let keys = reachable_keys sys in
        check_splitter "ping faults"
          (Injected.split_key prog)
          ~arity:(1 + (3 * 2) + 1)
          keys);
    case "codec: async and rendezvous keys round-trip, every protocol, n=2,3"
      (fun () ->
        List.iter
          (fun n ->
            List.iter
              (fun ((e : Registry.t), prog) ->
                let what = Fmt.str "%s n=%d" e.Registry.name n in
                check_codec (what ^ " async") "Async.decode"
                  (async_system prog);
                if e.Registry.system <> None then
                  check_codec (what ^ " rv") "Rendezvous.decode"
                    (rv_system prog))
              (registry_progs n))
          [ 2; 3 ]);
    case "codec: fault-injected keys round-trip (drop=1,dup=1; pause=1)"
      (fun () ->
        List.iter
          (fun ((e : Registry.t), prog) ->
            let what = e.Registry.name ^ " n=2" in
            (* a wedged state's key ends in its open-ended message, so a
               prefix of it may be another wedged state's key *)
            check_codec ~prefixes_refused:false (what ^ " vanilla")
              "Injected.decode"
              (injected_system Injected.Vanilla prog);
            check_codec ~prefixes_refused:false (what ^ " hardened")
              "Injected.decode"
              (injected_system Injected.Hardened prog);
            if e.Registry.system <> None then begin
              let pause1 = { Fault.none with Fault.pause = 1 } in
              check_codec (what ^ " rv pause=1") "Injected.rv_decode"
                Explore.
                  {
                    init = Injected.rv_initial pause1 prog;
                    succ = Injected.rv_successors prog;
                    encode = Injected.rv_encode;
                    decode = Injected.rv_decode prog;
                    canon = None;
                  }
            end)
          (registry_progs 2));
    case "codec: canonical keys decode to their orbit representative"
      (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let sys = async_system prog in
        List.iter
          (fun st ->
            let ck = Sym.canonical_async prog st in
            if Async.encode (Async.decode prog ck) <> ck then
              Alcotest.failf "canonical key %S does not round-trip" ck)
          (reachable_states ~cap:2_000 sys));
    qcase ~count:500
      ~print:QCheck2.Print.string
      "codec: garbage keys are refused or decode to themselves"
      QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
      (fun key ->
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        ignore
          (refuses_or_inverts "garbage" "Async.decode" (async_system prog) key);
        ignore
          (refuses_or_inverts "garbage" "Rendezvous.decode" (rv_system prog)
             key);
        ignore
          (refuses_or_inverts "garbage" "Injected.decode"
             (injected_system Injected.Hardened prog)
             key);
        true);
    case "codec: refusals name the decoder and the byte offset" (fun () ->
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let key = Async.encode (Async.initial prog Async.{ k = 2 }) in
        let refusal k =
          match Async.decode prog k with
          | _ -> Alcotest.failf "%S decoded" k
          | exception Invalid_argument msg -> msg
        in
        checks "empty key" "Async.decode: truncated key at byte 0" (refusal "");
        checks "trailing byte"
          (Fmt.str "Async.decode: trailing bytes at byte %d"
             (String.length key))
          (refusal (key ^ "x"));
        checks "non-canonical integer"
          "Async.decode: non-canonical integer at byte 0"
          (refusal
             ("\xf8\000\000\000\000"
             ^ String.sub key 1 (String.length key - 1))));
    case "every registry protocol: stores agree at async n=2" (fun () ->
        List.iter
          (fun (e : Registry.t) ->
            let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
            check_stores_equal (e.Registry.name ^ " async n=2") prog
              (async_system prog))
          Registry.all);
    case "stores compose with symmetry reduction" (fun () ->
        (* canonical keys are valid encode layouts, so the splitter
           parses them and the quotient counts match across stores *)
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let quotient kind =
          let stats = Sym.make_stats () in
          Explore.run ~store:kind
            {
              (async_system prog) with
              Explore.canon =
                Some
                  Explore.
                    {
                      canon_key = Sym.canonical_async_fast ~stats prog;
                      canon_fresh = None;
                      canon_fallbacks = (fun () -> Sym.fallbacks stats);
                    };
            }
        in
        let m = quotient Vstore.Mem in
        assert_complete "migratory quotient" m;
        List.iter
          (fun (sname, kind) ->
            let r = quotient kind in
            checki (Fmt.str "quotient states (%s)" sname) m.states r.states;
            checki
              (Fmt.str "quotient transitions (%s)" sname)
              m.transitions r.transitions)
          (stores_for prog));
    case "collapse resident memory beats raw on a real run" (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let r =
          Explore.run
            ~store:(Vstore.Collapse (Async.split_key prog))
            (async_system prog)
        in
        assert_complete "migratory n=3 collapse" r;
        checkb "raw accounted" true (r.raw_bytes > 0);
        checkb "compressed below raw" true (r.mem_bytes < r.raw_bytes));
    case "prov: mem and disk backends record and replay identically"
      (fun () ->
        (* tail_cap=32 forces the disk backend through its spill +
           read-back path on even this small a chain *)
        let mem = Vstore.Prov.create () in
        let disk = Vstore.Prov.create ~kind:Vstore.Prov.P_disk ~tail_cap:32 () in
        let entries =
          (* (parent, ord) per id; id 0 is the root *)
          [| (0, -1); (0, 0); (0, 1); (1, 0); (2, 3); (4, 2); (4, 0) |]
        in
        Array.iteri
          (fun id (parent, ord) ->
            Vstore.Prov.record mem ~id ~parent ~ord;
            Vstore.Prov.record disk ~id ~parent ~ord)
          entries;
        List.iter
          (fun (name, p) ->
            checki (name ^ ": count") (Array.length entries)
              (Vstore.Prov.count p);
            checki (name ^ ": bytes") (8 * Array.length entries)
              (Vstore.Prov.bytes p);
            checkb (name ^ ": mem accounted") true
              (Vstore.Prov.mem_bytes p > 0);
            Array.iteri
              (fun id e ->
                checkb
                  (Fmt.str "%s: entry %d" name id)
                  true
                  (Vstore.Prov.entry p id = e))
              entries;
            (* 0 -ord:1-> 2 -ord:3-> 4 -ord:2-> 5 *)
            checkb (name ^ ": chain to 5") true
              (Vstore.Prov.chain p 5 = [ 1; 3; 2 ]);
            checkb (name ^ ": chain to root") true
              (Vstore.Prov.chain p 0 = []))
          [ ("mem", mem); ("disk", disk) ]);
    case "prov: malformed records are rejected" (fun () ->
        let expect_invalid what f =
          match f () with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "%s: accepted" what
        in
        let p = Vstore.Prov.create () in
        Vstore.Prov.record p ~id:0 ~parent:0 ~ord:(-1);
        expect_invalid "out-of-order id" (fun () ->
            Vstore.Prov.record p ~id:2 ~parent:0 ~ord:0);
        expect_invalid "parent not preceding child" (fun () ->
            Vstore.Prov.record p ~id:1 ~parent:1 ~ord:0);
        expect_invalid "ordinal too small" (fun () ->
            Vstore.Prov.record p ~id:1 ~parent:0 ~ord:(-2));
        expect_invalid "ordinal too large" (fun () ->
            Vstore.Prov.record p ~id:1 ~parent:0 ~ord:65535);
        Vstore.Prov.record p ~id:1 ~parent:0 ~ord:65534;
        checki "good records kept" 2 (Vstore.Prov.count p));
    case "prov replay equals the legacy trace (both backends)" (fun () ->
        let prog = compile ~n:2 ping_system in
        let sys = async_system prog in
        let g = Ccr_modelcheck.Graph.build sys in
        let states = g.Ccr_modelcheck.Graph.states in
        let target = Async.encode states.(Array.length states - 1) in
        let invariants = [ ("not-last", fun st -> Async.encode st <> target) ] in
        let legacy = Explore.run ~trace:true ~invariants sys in
        let sig_of r =
          match r.Explore.trace with
          | None -> []
          | Some path ->
            List.map
              (fun (l, st) ->
                (Option.map (Fmt.str "%a" Async.pp_label) l, Async.encode st))
              path
        in
        checkb "legacy violates" true
          (match legacy.Explore.outcome with
          | Explore.Violation _ -> true
          | _ -> false);
        List.iter
          (fun kind ->
            let prov = Vstore.Prov.create ~kind ~tail_cap:64 () in
            let r = Explore.run ~prov ~trace:true ~invariants sys in
            checkb
              (Vstore.Prov.pkind_name kind ^ ": trace matches legacy")
              true
              (sig_of r = sig_of legacy))
          [ Vstore.Prov.P_mem; Vstore.Prov.P_disk ]);
    slow_case "memory cliff: migratory n=5 completes at 8 MB with collapse"
      (fun () ->
        let prog = compile ~n:5 (Ccr_protocols.Migratory.system ()) in
        let sys = async_system prog in
        let cap = 8 * 1024 * 1024 in
        let mem = Explore.run ~max_mem_bytes:cap sys in
        (match mem.Explore.outcome with
        | Explore.Limit Explore.L_memory -> ()
        | o ->
          Alcotest.failf "plain store expected to hit the cap, got %a"
            (Explore.pp_outcome (Async.pp_state prog))
            o);
        let col =
          Explore.run ~max_mem_bytes:cap
            ~store:(Vstore.Collapse (Async.split_key prog))
            sys
        in
        assert_complete "migratory n=5 collapse @8MB" col;
        checkb "cliff was real: plain stopped short" true
          (mem.Explore.states < col.Explore.states);
        checkb "under the cap" true (col.Explore.mem_bytes <= cap));
    case "splice: parent-spliced keys are byte-identical, every protocol, n=2,3"
      (fun () ->
        (* [Async.encode] copies the components a successor shares with
           the parent [decode] just read; the key must equal the full
           encoding ([encode_perm] under the identity never splices),
           also when an unrelated decode in between forces misses *)
        let shared = ref 0 in
        List.iter
          (fun n ->
            let id = Array.init n Fun.id in
            let full st = Async.encode_perm ~p:id ~inv:id st in
            List.iter
              (fun ((e : Registry.t), prog) ->
                let sys = async_system prog in
                let keys =
                  Array.of_list (List.map full (reachable_states sys))
                in
                let m = Array.length keys in
                Array.iteri
                  (fun i key ->
                    let parent = Async.decode prog key in
                    let succs = sys.Explore.succ parent in
                    let spliced =
                      List.map (fun (_, st) -> Async.encode st) succs
                    in
                    ignore (Async.decode prog keys.((i + (m / 2) + 1) mod m));
                    List.iter2
                      (fun (_, (st : Async.state)) key ->
                        let want = full st in
                        if key <> want then
                          Alcotest.failf "%s n=%d: spliced key %S, full %S"
                            e.Registry.name n key want;
                        if Async.encode st <> want then
                          Alcotest.failf "%s n=%d: key after a miss differs"
                            e.Registry.name n;
                        if st.h == parent.h || st.r.(0) == parent.r.(0) then
                          incr shared)
                      succs spliced)
                  keys)
              (registry_progs n))
          [ 2; 3 ];
        checkb "successors share components with their parent" true
          (!shared > 0));
  ]

let suite = ("store", tests)
