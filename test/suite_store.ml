(* The visited stores: the out-of-core disk store must be *exact* —
   byte-identical state and transition counts to the plain interned store
   — while resident memory drops.  These tests pin the codec round-trips,
   cross-store count agreement on every registry protocol, and the
   headline regression: migratory async n=5 completes under an 8 MB cap
   that the plain store blows through. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Sym = Ccr_refine.Symmetry
module Table = Ccr_refine.Table
module Fault = Ccr_faults.Fault
module Injected = Ccr_faults.Injected
module Registry = Ccr_protocols.Registry

(* ---- generators -------------------------------------------------------- *)

(* Short strings over a 4-letter alphabet: plenty of duplicate keys,
   which is what the stores must get right. *)
let keys_gen =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (string_size ~gen:(char_range 'a' 'd') (int_range 1 24)))

let print_keys = QCheck2.Print.(list string)

(* Feed the same key sequence to [store] and to an exact reference;
   every [add] verdict and the final counts must agree. *)
let agrees_with_exact store keys =
  let exact = Vstore.exact () in
  List.for_all
    (fun k -> store.Vstore.add k = exact.Vstore.add k)
    keys
  && store.Vstore.count () = exact.Vstore.count ()

(* Keys of every length class the stores frame differently: empty, one
   and two varint length bytes either side of 128, the 255/256 and
   4095/4096 boundaries (4095 and up read their length from the record),
   and longer.  Short keys over a 3-letter alphabet repeat often. *)
let mixed_key_gen =
  QCheck2.Gen.(
    let* len =
      frequency
        [
          (2, pure 0); (30, int_range 1 12); (1, oneofl [ 127; 128 ]);
          (1, oneofl [ 255; 256 ]); (1, oneofl [ 4095; 4096 ]);
          (1, int_range 4097 9000);
        ]
    in
    string_size ~gen:(char_range 'a' 'c') (pure len))

let print_lengths keys =
  String.concat "," (List.map (fun k -> string_of_int (String.length k)) keys)

(* Distinct keys in first-occurrence order. *)
let first_occurrences keys =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun k ->
      (not (Hashtbl.mem seen k))
      && begin
           Hashtbl.add seen k ();
           true
         end)
    keys

let stored (s : Vstore.t) =
  let out = ref [] in
  s.Vstore.iter_keys (fun k -> out := k :: !out);
  List.rev !out

(* Feed [keys] to a mem and a disk store, both starting at 16 slots (so
   every resize happens) and the disk's tail spilling every 64 bytes:
   equal [add] answers, equal counts, and both iterate the distinct keys
   in insertion order.  Feeding the keys again finds every one. *)
let mem_equals_disk keys =
  let mem = Vstore.make ~init_slots:16 Vstore.Mem
  and disk = Vstore.disk ~init_slots:16 ~tail_cap:64 () in
  let distinct = first_occurrences keys in
  List.for_all (fun k -> mem.Vstore.add k = disk.Vstore.add k) keys
  && mem.Vstore.count () = List.length distinct
  && disk.Vstore.count () = List.length distinct
  && stored mem = distinct
  && stored disk = distinct
  && List.for_all (fun k -> not (mem.Vstore.add k || disk.Vstore.add k)) keys

(* ---- cross-store agreement on real systems ------------------------------ *)

let check_stores_equal name sys =
  let seq = Explore.run sys in
  assert_complete name seq;
  let r = Explore.run ~store:Vstore.Disk sys in
  checki (name ^ ": states (disk)") seq.states r.states;
  checki (name ^ ": transitions (disk)") seq.transitions r.transitions;
  checkb (name ^ ": complete (disk)") true (outcome_complete r.outcome);
  List.iter
    (fun jobs ->
      let p = Explore.run ~jobs ~store:Vstore.Disk sys in
      checki (Fmt.str "%s: states (disk, j=%d)" name jobs) seq.states p.states;
      checki
        (Fmt.str "%s: transitions (disk, j=%d)" name jobs)
        seq.transitions p.transitions)
    [ 2; 4 ]

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
      key_io = None;
    }

(* ---- the tests ---------------------------------------------------------- *)

let tests =
  [
    qcase ~count:200 ~print:print_keys
      "disk store with a tiny spill buffer agrees with the exact store"
      keys_gen
      (fun keys ->
        (* tail_cap=16 forces nearly every key through the file and the
           read-back comparison path *)
        agrees_with_exact (Vstore.disk ~tail_cap:16 ()) keys);
    qcase ~count:100 ~print:print_lengths
      "mem and disk stores agree: answers, counts, insertion order"
      QCheck2.Gen.(list_size (int_range 0 300) mixed_key_gen)
      mem_equals_disk;
    case "mem and disk stores agree on keys straddling RAM chunks" (fun () ->
        (* about 2 MB of keys: the mem store's chunks (256 KiB, the first
           grown to it by copy) are crossed several times, mostly by
           records that straddle the boundary *)
        let rng = Random.State.make [| 7 |] in
        let key () =
          String.init (Random.State.int rng 9000) (fun _ ->
              Char.chr (97 + Random.State.int rng 3))
        in
        let keys = List.init 450 (fun _ -> key ()) in
        checkb "straddling stream" true (mem_equals_disk (keys @ keys)));
    case "the index doubles when an insert fills it to 7/8" (fun () ->
        (* 9-byte keys are 10-byte log records; 16 slots hold 13 keys,
           and the 14th (14/16 = 7/8) doubles them.  [base] is the log's
           resident size while empty: 0 for RAM chunks, the read buffer
           for the file. *)
        let key i = Printf.sprintf "k%08d" i in
        let slots_for n =
          let rec go s = if 8 * n >= 7 * s then go (2 * s) else s in
          go 16
        in
        checki "16 slots at 13 keys" 16 (slots_for 13);
        checki "32 slots after the 14th key" 32 (slots_for 14);
        List.iter
          (fun (name, (s : Vstore.t)) ->
            let base = s.Vstore.mem_bytes () - (8 * 16) in
            let keys = List.init 200 key in
            List.iteri
              (fun i k ->
                checkb (Fmt.str "%s: key %d fresh" name i) true
                  (s.Vstore.add k);
                checki
                  (Fmt.str "%s: mem_bytes at %d keys" name (i + 1))
                  ((8 * slots_for (i + 1)) + base + (10 * (i + 1)))
                  (s.Vstore.mem_bytes ()))
              keys;
            checkb (name ^ ": every key found after the resizes") true
              (List.for_all (fun k -> not (s.Vstore.add k)) keys);
            checki (name ^ ": count") 200 (s.Vstore.count ());
            checkb (name ^ ": insertion order") true (stored s = keys))
          [
            ("mem", Vstore.make ~init_slots:16 Vstore.Mem);
            ("disk", Vstore.disk ~init_slots:16 ());
          ]);
    case "mem and disk checkpoints of one run are byte-identical" (fun () ->
        let prog = compile ~n:3 (Ccr_protocols.Migratory.system ()) in
        let sys = async_system prog in
        let manifest = [ ("spec_hash", Ccr_obs.Journal.Str "test") ] in
        let file jobs store =
          with_temp_dir "ccr-test-store" @@ fun dir ->
          let ckpt =
            Explore.
              {
                ck_resume = None;
                ck_save =
                  Ccr_modelcheck.Ckpt.saver ~dir ~manifest ~prov:None ();
              }
          in
          let r = Explore.run ~jobs ~store ~max_states:300 ~ckpt sys in
          checkb "capped" true
            (r.Explore.outcome = Explore.Limit Explore.L_states);
          let l = Result.get_ok (Ccr_modelcheck.Ckpt.load ~dir) in
          let keys = ref [] in
          l.Ccr_modelcheck.Ckpt.l_keys (fun k -> keys := k :: !keys);
          ( List.rev !keys,
            In_channel.with_open_bin (Ccr_modelcheck.Ckpt.file dir)
              In_channel.input_all )
        in
        List.iter
          (fun jobs ->
            let mem_keys, mem_file = file jobs Vstore.Mem
            and disk_keys, disk_file = file jobs Vstore.Disk in
            checkb (Fmt.str "j=%d: visited sections equal" jobs) true
              (mem_keys = disk_keys);
            checkb (Fmt.str "j=%d: files byte-identical" jobs) true
              (String.equal mem_file disk_file))
          [ 1; 2 ]);
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
                    key_io = None;
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
            check_stores_equal (e.Registry.name ^ " async n=2")
              (async_system prog))
          Registry.all);
    case "stores compose with symmetry reduction" (fun () ->
        (* the quotient counts match across stores *)
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
                      canon_key =
                        Ccr_refine.Table.canonical ~stats
                          (Ccr_refine.Table.create prog Async.{ k = 2 });
                      canon_fresh = None;
                      canon_fallbacks = (fun () -> Sym.fallbacks stats);
                    };
            }
        in
        let m = quotient Vstore.Mem in
        assert_complete "migratory quotient" m;
        let r = quotient Vstore.Disk in
        checki "quotient states (disk)" m.states r.states;
        checki "quotient transitions (disk)" m.transitions r.transitions);
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
    slow_case "memory cliff: migratory n=5 completes at 8 MB with disk"
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
        let disk = Explore.run ~max_mem_bytes:cap ~store:Vstore.Disk sys in
        assert_complete "migratory n=5 disk @8MB" disk;
        checkb "cliff was real: plain stopped short" true
          (mem.Explore.states < disk.Explore.states);
        checkb "under the cap" true (disk.Explore.mem_bytes <= cap));
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
    case "table: succ, encode and decode agree with Async, every protocol, n=2,3"
      (fun () ->
        (* the component table against the interpreter on every reachable
           state: the same labels and states in the same order, the same
           meter calls, keys that export to the [Async.encode] bytes and
           are equal exactly when those are, and decodings that re-encode
           to the same bytes *)
        let cfg = Async.{ k = 2 } in
        List.iter
          (fun n ->
            List.iter
              (fun ((e : Registry.t), prog) ->
                let states = reachable_states (async_system prog) in
                let what = Fmt.str "%s n=%d" e.Registry.name n in
                let t = Table.create prog cfg in
                let keys = Hashtbl.create 1024 in
                List.iter
                  (fun (st : Async.state) ->
                    let full = Async.encode st in
                    let key = Table.import t full in
                    (match Hashtbl.find_opt keys key with
                    | Some f when f <> full ->
                      Alcotest.failf "%s: one table key for two states"
                        what
                    | _ -> Hashtbl.replace keys key full);
                    let parent = Table.decode t key in
                    if Async.encode parent <> full then
                      Alcotest.failf "%s: decode does not invert encode"
                        what;
                    let log = ref [] in
                    let meter =
                      {
                        Async.m_sent = (fun w -> log := `S w :: !log);
                        m_buf = (fun b -> log := `B b :: !log);
                      }
                    in
                    let want = Async.successors ~meter prog cfg st in
                    let want_log = !log in
                    log := [];
                    let got = Table.succ ~meter t parent in
                    if !log <> want_log then
                      Alcotest.failf "%s: meter calls differ" what;
                    if List.length got <> List.length want then
                      Alcotest.failf "%s: %d successors, want %d" what
                        (List.length got) (List.length want);
                    List.iter2
                      (fun (l, s) (l', s') ->
                        if l <> l' then
                          Alcotest.failf "%s: label %a, want %a" what
                            Async.pp_label l Async.pp_label l';
                        let bytes = Async.encode s' in
                        if Async.encode s <> bytes then
                          Alcotest.failf "%s: successor %a differs" what
                            Async.pp_label l;
                        if Table.export t (Table.encode t s) <> bytes then
                          Alcotest.failf "%s: key of %a exports otherwise"
                            what Async.pp_label l)
                      got want)
                  states;
                let fulls = Hashtbl.create 1024 in
                Hashtbl.iter (fun _ f -> Hashtbl.replace fulls f ()) keys;
                checki (what ^ ": keys are injective") (Hashtbl.length keys)
                  (Hashtbl.length fulls))
              (registry_progs n))
          [ 2; 3 ]);
    case "table: counterexample traces equal the interpreter's, n=2,3"
      (fun () ->
        (* a violation at the last state the interpreter's BFS reaches:
           the same stop, counts and replayed trace through a table, at
           one and two shards *)
        let cfg = Async.{ k = 2 } in
        List.iter
          (fun n ->
            List.iter
              (fun ((e : Registry.t), prog) ->
                let sys = async_system prog in
                let states = reachable_states ~cap:max_int sys in
                let target = Async.encode (List.nth states (List.length states - 1)) in
                let invariants =
                  [ ("not-last", fun st -> Async.encode st <> target) ]
                in
                let sig_of (r : (Async.state, Async.label) Explore.stats) =
                  ( r.Explore.states,
                    r.Explore.transitions,
                    Option.map
                      (List.map (fun (l, st) ->
                           ( Option.map (Fmt.str "%a" Async.pp_label) l,
                             Async.encode st )))
                      r.Explore.trace )
                in
                let want = sig_of (Explore.run ~trace:true ~invariants sys) in
                List.iter
                  (fun jobs ->
                    let t = Table.create prog cfg in
                    let r =
                      Explore.run ~jobs ~trace:true ~invariants
                        {
                          sys with
                          Explore.succ = Table.succ t;
                          encode = Table.encode t;
                          decode = Table.decode t;
                        }
                    in
                    checkb
                      (Fmt.str "%s n=%d j=%d: same stop and trace"
                         e.Registry.name n jobs)
                      true
                      (sig_of r = want))
                  [ 1; 2 ])
              (registry_progs n))
          [ 2; 3 ]);
    case "table: every store and shard count gives the same counts via Api"
      (fun () ->
        let module Api = Ccr_serve.Api in
        List.iter
          (fun (symmetry, states, transitions) ->
            List.iter
              (fun (store, jobs) ->
                let cfg =
                  {
                    Api.default with
                    Api.spec = Api.Named "invalidate";
                    n = 3;
                    symmetry;
                    store;
                    jobs;
                  }
                in
                let what =
                  Fmt.str "%s %s j=%d" (Api.symmetry_name cfg)
                    (Api.store_name cfg) jobs
                in
                match Api.check cfg with
                | Ok (v, _) ->
                  checki (what ^ ": states") states v.Api.v_states;
                  checki (what ^ ": transitions") transitions
                    v.Api.v_transitions
                | Error msg -> Alcotest.failf "%s: %s" what msg)
              [ (`Mem, 1); (`Disk, 1); (`Mem, 2); (`Disk, 2) ])
          [ (`Auto, 9263, 27191); (`Off, 18207, 53352) ]);
    case "table: decode refuses truncated keys and unknown ids" (fun () ->
        let cfg = Async.{ k = 2 } in
        List.iter
          (fun ((e : Registry.t), prog) ->
            let t = Table.create prog cfg in
            let table =
              Explore.
                {
                  init = Async.initial prog cfg;
                  succ = Table.succ t;
                  encode = Table.encode t;
                  decode = Table.decode t;
                  canon = None;
                  key_io = None;
                }
            in
            let what = e.Registry.name ^ " n=2" in
            check_codec (what ^ " table") "Table.decode" table)
          (registry_progs 2);
        let prog = compile ~n:2 (Ccr_protocols.Migratory.system ()) in
        let t = Table.create prog cfg in
        let key = Table.encode t (Async.initial prog cfg) in
        let refusal k =
          match Table.decode t k with
          | _ -> Alcotest.failf "%S decoded" k
          | exception Invalid_argument msg -> msg
        in
        checks "empty key" "Table.decode: truncated key at byte 0" (refusal "");
        checks "cut key"
          (Fmt.str "Table.decode: truncated key at byte %d"
             (String.length key - 1))
          (refusal (String.sub key 0 (String.length key - 1)));
        checks "unknown id" "Table.decode: unknown home id 9 at byte 0"
          (refusal ("\009" ^ String.sub key 1 (String.length key - 1)));
        checks "overlong id" "Table.decode: overlong id at byte 0"
          (refusal ("\128\000" ^ String.sub key 1 (String.length key - 1)));
        checks "trailing byte"
          (Fmt.str "Table.decode: trailing bytes at byte %d"
             (String.length key))
          (refusal (key ^ "\000")));
  ]

let suite = ("store", tests)
