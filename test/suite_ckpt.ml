(* Crash-safe checkpoint/resume (DESIGN.md §6h).

   The contract: every checkpoint is a level boundary; one loaded back
   and resumed reproduces the uninterrupted run's states, transitions
   and outcome exactly, at every partition.  A cap stop checkpoints the
   boundary that completes the stop's level.  Damaged files (truncation
   at every byte, corruption, a frontier key the decoder refuses) and
   checkpoints of another format version are refused with a message,
   never a crash; manifest mismatches are refused before any state is
   trusted. *)

open Test_util
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Ckpt = Ccr_modelcheck.Ckpt
module J = Ccr_obs.Journal
module Api = Ccr_serve.Api
module Registry = Ccr_protocols.Registry
module Async = Ccr_refine.Async
module Table = Ccr_refine.Table
module Sym = Ccr_refine.Symmetry

(* counter_system / bits_system come from Test_util. *)

(* Scratch checkpoint directories are scoped: removed when the case
   body returns, pass or fail. *)
let in_dir f = with_temp_dir "ccr-test-ckpt" f

let manifest = [ ("spec_hash", J.Str "test") ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let ckpt_to dir =
  Explore.
    { ck_resume = None; ck_save = Ckpt.saver ~dir ~manifest ~prov:None () }

let load_ok dir =
  match Ckpt.load ~dir with
  | Ok l -> l
  | Error msg -> Alcotest.failf "checkpoint refused: %s" msg

(* The checkpoint of a cap stop is the boundary completing the stop's
   level: its depth, at least its states, every entry at that depth. *)
let check_boundary name (first : (_, _) Explore.stats) (l : Ckpt.loaded) =
  checki (name ^ ": boundary depth") first.Explore.max_depth l.Ckpt.l_depth;
  checkb (name ^ ": boundary holds the stop") true
    (l.Ckpt.l_states >= first.Explore.states);
  checkb (name ^ ": a level to resume") true
    (Array.length l.Ckpt.l_frontier > 0
    && Array.length l.Ckpt.l_frontier <= l.Ckpt.l_states)

(* Interrupt [run] at [cap] states with a checkpoint, then resume with
   [run] again and require the uninterrupted pin. *)
let check_resume name ?store run sys =
  let seq = Explore.run ?store sys in
  let caps = [ 1; seq.Explore.states / 3; seq.Explore.states / 2 ] in
  List.iter
    (fun cap ->
      let cap = max 1 cap in
      in_dir @@ fun dir ->
      let first = run ~max_states:cap ~ckpt:(ckpt_to dir) in
      checkb
        (Fmt.str "%s cap=%d: first leg capped" name cap)
        true
        (first.Explore.outcome = Explore.Limit Explore.L_states);
      let l = load_ok dir in
      check_boundary (Fmt.str "%s cap=%d" name cap) first l;
      let r = run ~max_states:max_int ~ckpt:(Ckpt.resume l) in
      checki (Fmt.str "%s cap=%d: states" name cap) seq.Explore.states
        r.Explore.states;
      checki
        (Fmt.str "%s cap=%d: transitions" name cap)
        seq.Explore.transitions r.Explore.transitions;
      checki
        (Fmt.str "%s cap=%d: max_depth" name cap)
        seq.Explore.max_depth r.Explore.max_depth;
      checkb
        (Fmt.str "%s cap=%d: complete" name cap)
        true
        (r.Explore.outcome = Explore.Complete))
    caps

(* With [CCR_CRASH_AT] set to [value] for the duration of [f]; the
   runtime cannot unset a variable, and the empty string means unset. *)
let with_crash_at value f =
  Unix.putenv "CCR_CRASH_AT" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "CCR_CRASH_AT" "") f

(* The manifest [ccr check --checkpoint] writes for [cfg] (the guarded
   fields plus the run's identity and engine shape), with [extra] keys. *)
let cli_manifest (e : Registry.t) cfg extra =
  [
    ("spec_hash", J.Str (Api.spec_hash e cfg));
    ("protocol", J.Str e.Registry.name);
    ("level", J.Str (Api.level_name cfg));
    ("n", J.Int cfg.Api.n);
    ("k", J.Int cfg.Api.k);
    ("generic", J.Bool cfg.Api.generic);
    ("symmetry", J.Str (Api.symmetry_name cfg));
    ("faults", J.Str (Api.faults_name cfg));
    ("harden", J.Bool cfg.Api.harden);
    ("run_id", J.Str "0123456789ab");
    ("resumes", J.Int 0);
    ("store", J.Str (Api.store_name cfg));
    ("max_states", J.Int cfg.Api.max_states);
  ]
  @ extra

(* The payload of section [name] of a checkpoint file: a header line,
   then per section a ["name length crc"] line, the payload and a
   newline. *)
let section file name =
  let rec go pos =
    let eol = String.index_from file pos '\n' in
    match String.split_on_char ' ' (String.sub file pos (eol - pos)) with
    | [ n; len; _ ] ->
      let len = int_of_string len in
      if n = name then String.sub file (eol + 1) len else go (eol + len + 2)
    | _ -> Alcotest.failf "no %s section" name
  in
  go (String.index file '\n' + 1)

(* [file] with section [name]'s payload replaced by [payload], its
   length and CRC recomputed so that only the payload differs. *)
let replace_section file name payload =
  let rec go pos =
    let eol = String.index_from file pos '\n' in
    match String.split_on_char ' ' (String.sub file pos (eol - pos)) with
    | [ n; len; _ ] when n = name ->
      let rest = eol + 1 + int_of_string len in
      String.concat ""
        [
          String.sub file 0 pos;
          Fmt.str "%s %d %08x\n" name (String.length payload)
            (Ckpt.crc32 payload);
          payload;
          String.sub file rest (String.length file - rest);
        ]
    | [ _; len; _ ] -> go (eol + int_of_string len + 2)
    | _ -> Alcotest.failf "no %s section" name
  in
  go (String.index file '\n' + 1)

(* The keys of a key section: each a varint length, then its bytes. *)
let keys_of payload =
  let rec varint pos shift acc =
    let c = Char.code payload.[pos] in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then (acc, pos + 1) else varint (pos + 1) (shift + 7) acc
  in
  let rec go pos acc =
    if pos >= String.length payload then List.rev acc
    else
      let len, data = varint pos 0 0 in
      go (data + len) (String.sub payload data len :: acc)
  in
  go 0 []

let key_section keys =
  String.concat ""
    (List.map
       (fun k ->
         let b = Buffer.create 8 in
         let rec put i =
           if i < 0x80 then Buffer.add_char b (Char.chr i)
           else begin
             Buffer.add_char b (Char.chr (0x80 lor (i land 0x7f)));
             put (i lsr 7)
           end
         in
         put (String.length k);
         Buffer.contents b ^ k)
       keys)

(* invalidate async n=3 under symmetry, the CLI default: uninterrupted,
   9263 states and 27191 transitions *)
let inv3 = { Api.default with Api.spec = Api.Named "invalidate"; n = 3 }

let check_inv3 explorer =
  let e = Result.get_ok (Api.resolve inv3.Api.spec) in
  match Api.check_entry ~explorer e inv3 with
  | Ok (v, _) -> v
  | Error msg -> Alcotest.failf "check refused: %s" msg

(* The level-[depth] boundary of [sys], found by a BFS over structured
   states: each frontier key is exported from the [encode]d concrete
   state [succ] produced, never from a key the driver kept. *)
let save_structured ~dir ~depth (sys : (_, _) Explore.system) =
  let export =
    match sys.Explore.key_io with
    | Some io -> io.Explore.export
    | None -> Fun.id
  in
  let key =
    match sys.Explore.canon with
    | None -> fun st -> export (sys.Explore.encode st)
    | Some c -> c.Explore.canon_key
  in
  let seen = Hashtbl.create 4096 and keys = ref [] in
  let fresh st =
    let k = key st in
    (not (Hashtbl.mem seen k))
    && begin
         Hashtbl.add seen k ();
         keys := k :: !keys;
         true
       end
  in
  ignore (fresh sys.Explore.init);
  let transitions = ref 0 in
  let rec level d frontier =
    if d = depth then frontier
    else
      level (d + 1)
        (List.concat_map
           (fun st ->
             let succs = sys.Explore.succ st in
             transitions := !transitions + List.length succs;
             List.filter_map
               (fun (_, st') -> if fresh st' then Some st' else None)
               succs)
           frontier)
  in
  let frontier = Array.of_list (level 0 [ sys.Explore.init ]) in
  let states = Hashtbl.length seen in
  ignore
    (Ckpt.save ~dir ~manifest ~prov:None
       Explore.
         {
           v_states = states;
           v_transitions = !transitions;
           v_depth = depth;
           v_final = false;
           v_frontier =
             lazy
               (Array.map (fun st -> export (sys.Explore.encode st)) frontier);
           v_iter_keys = (fun f -> List.iter f (List.rev !keys));
         })

let tests =
  [
    case "a checkpoint of another format version is refused with both versions"
      (fun () ->
        let sys = counter_system ~limit:60 in
        in_dir @@ fun dir ->
        ignore (Explore.run ~max_states:15 ~ckpt:(ckpt_to dir) sys);
        let file =
          In_channel.with_open_bin (Ckpt.file dir) In_channel.input_all
        in
        let body = String.sub file 10 (String.length file - 10) in
        checks "v2 header" (Fmt.str "CCRCKPT v%d" Ckpt.version)
          (String.sub file 0 10);
        List.iter
          (fun v ->
            (* v1 marshalled its frontier; the header is refused first *)
            Out_channel.with_open_bin (Ckpt.file dir) (fun oc ->
                output_string oc (Fmt.str "CCRCKPT v%d" v ^ body));
            match Ckpt.load ~dir with
            | Ok _ -> Alcotest.failf "a v%d checkpoint loaded" v
            | Error msg ->
              checkb "names the directory" true (contains msg dir);
              checkb "names the file's version" true
                (contains msg (Fmt.str "format v%d," v));
              checkb "names the reader's version" true
                (contains msg (Fmt.str "reads v%d" Ckpt.version));
              checkb "says to restart" true (contains msg "restart the check");
              checkb "one line" false (String.contains msg '\n'))
          [ 1; 3 ]);
    case "seq: resume matches the uninterrupted run (all stores)" (fun () ->
        let sys = counter_system ~limit:400 in
        check_resume "counter mem"
          (fun ~max_states ~ckpt -> Explore.run ~max_states ~ckpt sys)
          sys;
        check_resume "counter disk" ~store:Vstore.Disk
          (fun ~max_states ~ckpt ->
            Explore.run ~store:Vstore.Disk ~max_states ~ckpt sys)
          sys);
    case "seq: every registry protocol resumes to its pin" (fun () ->
        List.iter
          (fun (e : Ccr_protocols.Registry.t) ->
            let prog = e.Ccr_protocols.Registry.instantiate ~reqrep:true ~n:2 in
            let sys = async_system prog in
            check_resume
              (e.Ccr_protocols.Registry.name ^ " async n=2")
              (fun ~max_states ~ckpt -> Explore.run ~max_states ~ckpt sys)
              sys)
          Ccr_protocols.Registry.all);
    case "seq: provenance rides the checkpoint" (fun () ->
        let sys = counter_system ~limit:100 in
        in_dir @@ fun dir ->
        let prov = Vstore.Prov.create () in
        ignore
          (Explore.run ~max_states:20 ~prov
             ~ckpt:
               Explore.
                 {
                   ck_resume = None;
                   ck_save = Ckpt.saver ~dir ~manifest ~prov:(Some prov) ();
                 }
             sys);
        let l = load_ok dir in
        checki "one slot per state" l.Ckpt.l_states
          (Array.length l.Ckpt.l_prov);
        (* replay provenance, resume, and require a valid counterexample *)
        let prov2 = Vstore.Prov.create () in
        Array.iteri
          (fun id (parent, ord) -> Vstore.Prov.record prov2 ~id ~parent ~ord)
          l.Ckpt.l_prov;
        let r =
          Explore.run ~prov:prov2 ~trace:true
            ~invariants:[ ("small", fun s -> s < 90) ]
            ~ckpt:(Ckpt.resume l) sys
        in
        (match r.Explore.outcome with
        | Explore.Violation { state; _ } -> checkb "violates" true (state >= 90)
        | _ -> Alcotest.fail "expected violation");
        match r.Explore.trace with
        | Some path ->
          checkb "trace ends at the violation" true
            (snd (List.nth path (List.length path - 1)) >= 90)
        | None -> Alcotest.fail "expected a trace");
    case "save is atomic and refuses every truncation" (fun () ->
        let sys = counter_system ~limit:60 in
        in_dir @@ fun dir ->
        ignore (Explore.run ~max_states:15 ~ckpt:(ckpt_to dir) sys);
        let ic = open_in_bin (Ckpt.file dir) in
        let n = in_channel_length ic in
        let bytes = really_input_string ic n in
        close_in ic;
        checkb "small enough to truncate exhaustively" true (n < 200_000);
        in_dir @@ fun dir2 ->
        ignore (Explore.run ~max_states:15 ~ckpt:(ckpt_to dir2) sys);
        let torn = ref 0 in
        for len = 0 to n - 1 do
          let oc = open_out_bin (Ckpt.file dir2) in
          output_string oc (String.sub bytes 0 len);
          close_out oc;
          match Ckpt.load ~dir:dir2 with
          | Error _ -> incr torn
          | Ok _ ->
            Alcotest.failf "truncation to %d bytes loaded successfully" len
        done;
        checki "every prefix refused" n !torn;
        (* flipping one payload byte must trip a CRC *)
        let b = Bytes.of_string bytes in
        Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 1));
        let oc = open_out_bin (Ckpt.file dir2) in
        output_bytes oc b;
        close_out oc;
        match Ckpt.load ~dir:dir2 with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "corrupted checkpoint loaded successfully");
    case "manifest mismatch is refused field by field" (fun () ->
        let found =
          [
            ("spec_hash", J.Str "aaa");
            ("protocol", J.Str "invalidate");
            ("n", J.Int 3);
          ]
        in
        checkb "same manifest resumes" true
          (Ckpt.mismatch ~expected:found ~found = None);
        (match
           Ckpt.mismatch
             ~expected:
               [
                 ("spec_hash", J.Str "bbb");
                 ("protocol", J.Str "invalidate");
                 ("n", J.Int 4);
               ]
             ~found
         with
        | None -> Alcotest.fail "expected a mismatch"
        | Some diff ->
          checkb "names spec_hash" true (contains diff "spec_hash");
          checkb "names n" true (contains diff "n:"));
        (* caps and engine shape are not guarded *)
        checkb "jobs may change" true
          (Ckpt.mismatch
             ~expected:(("jobs", J.Int 4) :: found)
             ~found:(("jobs", J.Int 1) :: found)
          = None));
    case "--checkpoint-every parses counts and periods" (fun () ->
        (match Ckpt.parse_every "50000" with
        | Ok (Ckpt.E_states 50000) -> ()
        | _ -> Alcotest.fail "state count form");
        (match Ckpt.parse_every "30s" with
        | Ok (Ckpt.E_secs s) -> checkb "30s" true (s = 30.0)
        | _ -> Alcotest.fail "seconds form");
        match Ckpt.parse_every "nope" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage accepted");
    case "par (j=4): boundary checkpoint resumes to the pin" (fun () ->
        let sys = bits_system 12 in
        let seq = Explore.run sys in
        in_dir @@ fun dir ->
        let first =
          Explore.run ~jobs:4 ~max_states:(seq.Explore.states / 2)
            ~ckpt:(ckpt_to dir) sys
        in
        checkb "first leg capped" true
          (first.Explore.outcome = Explore.Limit Explore.L_states);
        let l = load_ok dir in
        check_boundary "j=4" first l;
        let r = Explore.run ~jobs:4 ~ckpt:(Ckpt.resume l) sys in
        checki "states" seq.Explore.states r.Explore.states;
        checki "transitions" seq.Explore.transitions r.Explore.transitions;
        checki "max_depth" seq.Explore.max_depth r.Explore.max_depth;
        (* cross-engine: a boundary checkpoint resumes sequentially too *)
        let rs = Explore.run ~ckpt:(Ckpt.resume (load_ok dir)) sys in
        checki "states (seq resume)" seq.Explore.states rs.Explore.states);
    case "CCR_CRASH_AT accepts level=L and nothing else" (fun () ->
        with_crash_at "" (fun () ->
            checkb "empty: no crash" true (Ckpt.crash_at () = Ok None));
        with_crash_at "level=14" (fun () ->
            checkb "level=14" true (Ckpt.crash_at () = Ok (Some 14)));
        List.iter
          (fun value ->
            with_crash_at value @@ fun () ->
            (match Ckpt.crash_at () with
            | Ok _ -> Alcotest.failf "CCR_CRASH_AT=%s accepted" value
            | Error msg ->
              checkb (value ^ ": names the variable") true
                (contains msg "CCR_CRASH_AT");
              checkb (value ^ ": one line") false (String.contains msg '\n'));
            (* the saver refuses it too, before any exploration *)
            match Ckpt.saver ~dir:"unused" ~manifest ~prov:None () with
            | (_ : Explore.ckpt_view -> unit) ->
              Alcotest.failf "saver accepted CCR_CRASH_AT=%s" value
            | exception Invalid_argument _ -> ())
          [
            (* the retired multi-process form: would now kill this process *)
            "worker=1,level=10";
            "level=abc";
            "level=";
            "level=-3";
            "depth=3";
            "level=3,depth=4";
          ]);
    case "a checkpoint from a --workers run resumes at j=1 and j=2" (fun () ->
        (* invalidate async n=3 under symmetry, uninterrupted: 9263
           states, 27191 transitions *)
        let cfg =
          { Api.default with Api.spec = Api.Named "invalidate"; n = 3 }
        in
        let e = Result.get_ok (Api.resolve cfg.Api.spec) in
        let check_with explorer =
          match Api.check_entry ~explorer e cfg with
          | Ok (v, _) -> v
          | Error msg -> Alcotest.failf "check refused: %s" msg
        in
        in_dir @@ fun dir ->
        (* the manifest [--workers 2 -j 2 --checkpoint DIR] wrote before
           the multi-process engine was removed *)
        let written =
          cli_manifest e cfg [ ("jobs", J.Int 2); ("workers", J.Int 2) ]
        in
        let first =
          check_with
            {
              Api.explore =
                (fun ~check_deadlock ~split:_ ~invariants sys ->
                  Explore.run ~max_states:4000 ~check_deadlock ~invariants
                    ~ckpt:
                      {
                        Explore.ck_resume = None;
                        ck_save =
                          Ckpt.saver ~dir ~manifest:written ~prov:None ();
                      }
                    sys);
            }
        in
        checks "first leg capped" "limit-states" first.Api.v_outcome;
        let found = (load_ok dir).Ckpt.l_manifest in
        checkb "the manifest carries workers" true
          (List.mem_assoc "workers" found);
        checkb "manifest accepted" true
          (Ckpt.mismatch
             ~expected:(cli_manifest e cfg [ ("jobs", J.Int 1) ])
             ~found
          = None);
        List.iter
          (fun jobs ->
            let v =
              check_with
                {
                  Api.explore =
                    (fun ~check_deadlock ~split:_ ~invariants sys ->
                      (* the frontier keys are this system's: the
                         manifest passed the guard above *)
                      Explore.run ~jobs ~check_deadlock ~invariants
                        ~ckpt:(Ckpt.resume (load_ok dir))
                        sys);
                }
            in
            checks (Fmt.str "j=%d: outcome" jobs) "complete" v.Api.v_outcome;
            checki (Fmt.str "j=%d: states" jobs) 9263 v.Api.v_states;
            checki (Fmt.str "j=%d: transitions" jobs) 27191 v.Api.v_transitions)
          [ 1; 2 ]);
    case "a checkpoint with a structured frontier resumes at j=1 and j=2"
      (fun () ->
        in_dir @@ fun dir ->
        ignore
          (check_inv3
             {
               Api.explore =
                 (fun ~check_deadlock ~split:_ ~invariants sys ->
                   save_structured ~dir ~depth:8 sys;
                   Explore.run ~max_states:1 ~check_deadlock ~invariants sys);
             });
        checki "boundary depth" 8 (load_ok dir).Ckpt.l_depth;
        List.iter
          (fun jobs ->
            let v =
              check_inv3
                {
                  Api.explore =
                    (fun ~check_deadlock ~split:_ ~invariants sys ->
                      Explore.run ~jobs ~check_deadlock ~invariants
                        ~ckpt:(Ckpt.resume (load_ok dir))
                        sys);
                }
            in
            checks (Fmt.str "j=%d: outcome" jobs) "complete" v.Api.v_outcome;
            checki (Fmt.str "j=%d: states" jobs) 9263 v.Api.v_states;
            checki (Fmt.str "j=%d: transitions" jobs) 27191 v.Api.v_transitions)
          [ 1; 2 ]);
    case "checkpoint frontiers are byte-identical at j=1 and j=2" (fun () ->
        (* the visited section lists each shard's keys in turn, so only
           its key set is shard-independent *)
        let written jobs =
          in_dir @@ fun dir ->
          ignore
            (check_inv3
               {
                 Api.explore =
                   (fun ~check_deadlock ~split:_ ~invariants sys ->
                     Explore.run ~jobs ~max_states:4000 ~check_deadlock
                       ~invariants ~ckpt:(ckpt_to dir) sys);
               });
          let file =
            In_channel.with_open_bin (Ckpt.file dir) In_channel.input_all
          in
          let keys = ref [] in
          (load_ok dir).Ckpt.l_keys (fun k -> keys := k :: !keys);
          ( section file "manifest",
            section file "frontier",
            List.sort compare !keys )
        in
        let m1, f1, k1 = written 1 and m2, f2, k2 = written 2 in
        checks "manifest" m1 m2;
        checkb "frontier bytes" true (String.equal f1 f2);
        checkb "visited keys" true (k1 = k2));
    case "full-key and component-table checkpoints resume each other"
      (fun () ->
        (* invalidate async n=3, with symmetry (9263 states, 27191
           transitions) and without (18207, 53352): a checkpoint written
           through [Async]'s full keys resumes under a component table at
           j=1 and j=2, and the reverse; a table writes its visited
           section as exactly the full keys *)
        let prog =
          (Result.get_ok (Api.resolve inv3.Api.spec)).Registry.instantiate
            ~reqrep:true ~n:3
        in
        let cfg = Async.{ k = 2 } in
        let canon sym =
          if sym then
            Some
              Explore.
                {
                  canon_key = Ccr_refine.Table.canonical (Ccr_refine.Table.create prog cfg);
                  canon_fresh = None;
                  canon_fallbacks = (fun () -> 0);
                }
          else None
        in
        let full sym =
          Explore.
            {
              init = Async.initial prog cfg;
              succ = Async.successors prog cfg;
              encode = Async.encode;
              decode = Async.decode prog;
              canon = canon sym;
              key_io = None;
            }
        in
        let table sym =
          let t = Table.create prog cfg in
          Explore.
            {
              init = Async.initial prog cfg;
              succ = Table.succ t;
              encode = Table.encode t;
              decode = Table.decode t;
              canon = canon sym;
              key_io =
                Some { export = Table.export t; import = Table.import t };
            }
        in
        let written sys =
          in_dir @@ fun dir ->
          ignore (Explore.run ~max_states:4000 ~ckpt:(ckpt_to dir) sys);
          let keys = ref [] in
          (load_ok dir).Ckpt.l_keys (fun k -> keys := k :: !keys);
          List.sort compare !keys
        in
        List.iter
          (fun (sym, states, transitions) ->
            checkb
              (Fmt.str "sym=%b: the visited section holds the full keys" sym)
              true
              (written (table sym) = written (full sym));
            List.iter
              (fun (what, writer, reader) ->
                in_dir @@ fun dir ->
                ignore
                  (Explore.run ~max_states:4000 ~ckpt:(ckpt_to dir)
                     (writer sym));
                List.iter
                  (fun jobs ->
                    let r =
                      Explore.run ~jobs ~ckpt:(Ckpt.resume (load_ok dir))
                        (reader sym)
                    in
                    let name = Fmt.str "sym=%b %s j=%d" sym what jobs in
                    checkb (name ^ ": complete") true
                      (r.Explore.outcome = Explore.Complete);
                    checki (name ^ ": states") states r.Explore.states;
                    checki (name ^ ": transitions") transitions
                      r.Explore.transitions)
                  [ 1; 2 ])
              [ ("full -> table", full, table); ("table -> full", table, full) ])
          [ (true, 9263, 27191); (false, 18207, 53352) ]);
    case "two identical j=2 checks write byte-identical checkpoints"
      (fun () ->
        let e = Result.get_ok (Api.resolve inv3.Api.spec) in
        List.iter
          (fun symmetry ->
            let cfg = { inv3 with Api.jobs = 2; symmetry } in
            let file () =
              in_dir @@ fun dir ->
              let explorer =
                {
                  Api.explore =
                    (fun ~check_deadlock ~split:_ ~invariants sys ->
                      Explore.run ~jobs:2 ~max_states:4000 ~check_deadlock
                        ~invariants
                        ~ckpt:
                          Explore.
                            {
                              ck_resume = None;
                              ck_save =
                                Ckpt.saver ~dir
                                  ~manifest:(cli_manifest e cfg [])
                                  ~prov:None ();
                            }
                        sys);
                }
              in
              ignore (Api.check_entry ~explorer e cfg);
              In_channel.with_open_bin (Ckpt.file dir) In_channel.input_all
            in
            checkb
              (Fmt.str "symmetry %s" (Api.symmetry_name cfg))
              true
              (String.equal (file ()) (file ())))
          [ `Auto; `Off ]);
    case
      "a frontier key the decoder refuses stops the resume, naming the \
       checkpoint; so does a visited key"
      (fun () ->
        (* [ccr check --resume]'s path: a session over the checkpoint and
           the default explorer; an [Error] is its exit 1.  Without
           symmetry the table run imports both sections' keys, so a
           damaged key is refused in either. *)
        let cfg = { inv3 with Api.symmetry = `Off } in
        let e = Result.get_ok (Api.resolve cfg.Api.spec) in
        List.iter
          (fun name ->
            in_dir @@ fun dir ->
            let check ~resume =
              match Api.session ~resume ~dir e cfg with
              | Error msg -> Error msg
              | Ok s ->
                Api.check_entry
                  ~explorer:(Api.default_explorer ~ckpt:s.Api.s_ckpt cfg)
                  e cfg
            in
            (match check ~resume:false with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "check refused: %s" msg);
            let file =
              In_channel.with_open_bin (Ckpt.file dir) In_channel.input_all
            in
            let keys = keys_of (section file name) in
            checkb (name ^ ": keys to damage") true (keys <> []);
            (* one trailing byte on the first key; its length, the
               section's length and its CRC follow, so only the key is
               wrong *)
            let damaged = (List.hd keys ^ "\x00") :: List.tl keys in
            Out_channel.with_open_bin (Ckpt.file dir) (fun oc ->
                output_string oc
                  (replace_section file name (key_section damaged)));
            match check ~resume:true with
            | Ok (v, _) ->
              Alcotest.failf "resumed to %d states over a damaged %s key"
                v.Api.v_states name
            | Error msg ->
              checkb (name ^ ": the strict decoder's refusal") true
                (contains msg "decode: " && contains msg "at byte");
              checkb (name ^ ": names the checkpoint and the key") true
                (contains msg
                   (Fmt.str "checkpoint %s refused: %s key 0: " (Ckpt.file dir)
                      name));
              checkb (name ^ ": says how to go on") true
                (contains msg "restart the check without --resume");
              checkb (name ^ ": one line") false (String.contains msg '\n'))
          [ "frontier"; "visited" ]);
  ]

let suite = ("ckpt", tests)
