(* The run journal: the JSON codec (render + parse round-trips), the
   JSONL event buffer, and the load-bearing determinism property — a
   journal fed by the engines' [on_level] hook and the provenance-derived
   trace is byte-identical at every [-j] setting, including runs that end
   in a violation. *)

open Test_util
module J = Ccr_obs.Journal
module Explore = Ccr_modelcheck.Explore
module Graph = Ccr_modelcheck.Graph
module Prov = Ccr_modelcheck.Vstore.Prov
module Async = Ccr_refine.Async
module Registry = Ccr_protocols.Registry

let counter_system ~limit =
  Explore.
    {
      init = 0;
      succ =
        (fun s ->
          if s >= limit then []
          else [ ("inc", s + 1); ("double", min limit (2 * s + 1)) ]);
      encode = string_of_int;
      decode = int_of_string;
      canon = None;
      key_io = None;
    }

(* ---- codec -------------------------------------------------------------- *)

let codec_tests =
  [
    case "render: compact, caller field order" (fun () ->
        checks "object"
          {|{"b":1,"a":[true,null,"x"]}|}
          (J.to_string
             (J.Obj
                [ ("b", J.Int 1); ("a", J.List [ J.Bool true; J.Null; J.Str "x" ]) ])));
    case "render: string escapes" (fun () ->
        checks "escapes" {|"a\"b\\c\nd\u0001"|}
          (J.to_string (J.Str "a\"b\\c\nd\001")));
    case "render: floats" (fun () ->
        checks "finite" "1.5" (J.to_string (J.Float 1.5));
        checks "nan is null" "null" (J.to_string (J.Float Float.nan)));
    case "parse: round-trips rendered values" (fun () ->
        List.iter
          (fun v ->
            match J.parse (J.to_string v) with
            | Some v' -> checks "round-trip" (J.to_string v) (J.to_string v')
            | None -> Alcotest.failf "failed to parse %s" (J.to_string v))
          [
            J.Null; J.Bool false; J.Int (-42); J.Float 2.5;
            J.Str "he\"llo\n\\world";
            J.List [ J.Int 1; J.List []; J.Obj [] ];
            J.Obj [ ("k", J.Str "v"); ("l", J.List [ J.Bool true ]) ];
          ]);
    case "parse: whitespace, exponents, unicode" (fun () ->
        (match J.parse "  { \"a\" : 1e3 , \"b\" : [ 1 , 2 ] }  " with
        | Some v ->
          checkb "1e3 is float" true (J.get_float (J.find v "a") = Some 1000.);
          checkb "list" true
            (J.get_list (J.find v "b") = Some [ J.Int 1; J.Int 2 ])
        | None -> Alcotest.fail "parse failed");
        match J.parse {|"éA"|} with
        | Some (J.Str s) -> checks "utf-8" "\xc3\xa9A" s
        | _ -> Alcotest.fail "unicode escape failed");
    case "parse: rejects malformed input" (fun () ->
        List.iter
          (fun s -> checkb ("rejects " ^ s) true (J.parse s = None))
          [ "{"; "[1,]"; "\"open"; "tru"; "1 2"; "{\"a\":}"; "" ]);
    case "accessors tolerate shape mismatches" (fun () ->
        let v = J.Obj [ ("i", J.Int 3); ("f", J.Float 4.0); ("s", J.Str "x") ] in
        checkb "int" true (J.get_int (J.find v "i") = Some 3);
        checkb "integral float as int" true (J.get_int (J.find v "f") = Some 4);
        checkb "str not int" true (J.get_int (J.find v "s") = None);
        checkb "missing" true (J.find v "zzz" = None);
        checkb "find on non-object" true (J.find (J.Int 1) "k" = None));
  ]

(* ---- the buffer ---------------------------------------------------------- *)

let buffer_tests =
  [
    case "events carry the schema version and kind" (fun () ->
        let j = J.create () in
        J.event j "config" [ ("n", J.Int 2) ];
        J.event j "end" [];
        checki "count" 2 (J.count j);
        let lines =
          String.split_on_char '\n' (J.contents j)
          |> List.filter (fun l -> l <> "")
        in
        checki "two lines" 2 (List.length lines);
        List.iter
          (fun l ->
            match J.parse l with
            | Some v ->
              checkb "versioned" true
                (J.get_int (J.find v "v") = Some J.schema_version);
              checkb "kinded" true (J.get_str (J.find v "ev") <> None)
            | None -> Alcotest.fail "journal line does not parse")
          lines;
        checki "bytes tracks contents" (String.length (J.contents j))
          (J.bytes j));
    case "append_to_file accumulates line blocks" (fun () ->
        let path = Filename.temp_file "ccr_journal" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let j1 = J.create () in
            J.event j1 "config" [];
            J.append_to_file j1 path;
            let j2 = J.create () in
            J.event j2 "config" [];
            J.event j2 "end" [];
            J.append_to_file j2 path;
            let ic = open_in path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            checks "both blocks, in order"
              (J.contents j1 ^ J.contents j2)
              s));
  ]

(* ---- engine determinism --------------------------------------------------- *)

(* A journal fed by [on_level], as bin/ccr wires it. *)
let journal_of_run run =
  let j = J.create () in
  let on_level ~depth ~states =
    J.event j "level" [ ("depth", J.Int depth); ("states", J.Int states) ]
  in
  let r = run ~on_level in
  (J.contents j, r)

let trace_sig pp_label encode (r : (_, _) Explore.stats) =
  match r.Explore.trace with
  | None -> []
  | Some path ->
    List.map
      (fun (l, st) -> (Option.map (Fmt.str "%a" pp_label) l, encode st))
      path

(* Every registry protocol at n=2, async level, with an artificial
   invariant that rejects the last state sequential BFS discovers — so
   every engine must find a violation deep in the space and rebuild the
   same counterexample. *)
let registry_violation_cases jobs_list =
  List.iter
    (fun (e : Registry.t) ->
      let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
      let cfg = Async.{ k = 2 } in
      let sys =
        Explore.
          {
            init = Async.initial prog cfg;
            succ = Async.successors prog cfg;
            encode = Async.encode;
            decode = Async.decode prog;
            canon = None;
            key_io = None;
          }
      in
      let g = Graph.build sys in
      let target = Async.encode g.Graph.states.(Array.length g.Graph.states - 1) in
      let invariants =
        [ ("not-last", fun st -> Async.encode st <> target) ]
      in
      let legacy = Explore.run ~trace:true ~invariants sys in
      let legacy_sig = trace_sig Async.pp_label Async.encode legacy in
      checkb
        (Fmt.str "%s: legacy run violates" e.Registry.name)
        true
        (match legacy.Explore.outcome with
        | Explore.Violation _ -> true
        | _ -> false);
      List.iter
        (fun jobs ->
          let prov = Prov.create () in
          let r = Explore.run ~jobs ~prov ~trace:true ~invariants sys in
          checkb
            (Fmt.str "%s: prov trace matches legacy (j=%d)" e.Registry.name
               jobs)
            true
            (trace_sig Async.pp_label Async.encode r = legacy_sig))
        jobs_list)
    Registry.all

let engine_tests =
  [
    case "journal is byte-identical across -j (complete run)" (fun () ->
        let sys = counter_system ~limit:400 in
        let seq, rs =
          journal_of_run (fun ~on_level -> Explore.run ~on_level sys)
        in
        assert_complete "seq" rs;
        checkb "seq journal non-empty" true (String.length seq > 0);
        List.iter
          (fun jobs ->
            let par, rp =
              journal_of_run (fun ~on_level ->
                  Explore.run ~jobs ~on_level sys)
            in
            assert_complete (Fmt.str "par j=%d" jobs) rp;
            checks (Fmt.str "identical at j=%d" jobs) seq par)
          [ 2; 4 ]);
    case "journal is byte-identical across -j (violation, prov)" (fun () ->
        let invariants = [ ("small", fun s -> s < 210) ] in
        let sys = counter_system ~limit:400 in
        let run_with engine =
          let prov = Prov.create () in
          journal_of_run (fun ~on_level ->
              engine ~prov ~on_level ~invariants sys)
        in
        let seq, rs =
          run_with (fun ~prov ~on_level ~invariants sys ->
              Explore.run ~prov ~on_level ~invariants ~trace:true sys)
        in
        let seq_sig = trace_sig Fmt.string string_of_int rs in
        checkb "violates" true
          (match rs.Explore.outcome with
          | Explore.Violation _ -> true
          | _ -> false);
        List.iter
          (fun jobs ->
            let par, rp =
              run_with (fun ~prov ~on_level ~invariants sys ->
                  Explore.run ~jobs ~prov ~on_level ~invariants
                    ~trace:true sys)
            in
            checks (Fmt.str "identical at j=%d" jobs) seq par;
            checkb
              (Fmt.str "same trace at j=%d" jobs)
              true
              (trace_sig Fmt.string string_of_int rp = seq_sig))
          [ 2; 4 ]);
    slow_case
      "registry: prov counterexamples match the legacy fallback (-j 1/4)"
      (fun () -> registry_violation_cases [ 0; 1; 4 ]);
    case "violation at discovery wins over a same-level deadlock"
      (fun () ->
        (* state 3 deadlocks; state 4 violates.  Invariants are checked
           when a state is {e discovered} (while expanding 0), deadlock
           only when a state is {e expanded} (next level) — so the
           sequential order is the violation, and every engine must agree
           on it. *)
        let sys =
          Explore.
            {
              init = 0;
              succ =
                (fun s ->
                  if s = 0 then [ ("a", 3); ("b", 4) ]
                  else if s = 3 then []
                  else [ ("c", s + 10) ]);
              encode = string_of_int;
              decode = int_of_string;
              canon = None;
              key_io = None;
            }
        in
        let invariants = [ ("not4", fun s -> s <> 4) ] in
        let expect engine name =
          let prov = Prov.create () in
          let r =
            engine ~prov ~check_deadlock:true ~trace:true ~invariants sys
          in
          match r.Explore.outcome with
          | Explore.Violation { invariant; state } ->
            checks (name ^ ": invariant") "not4" invariant;
            checki (name ^ ": state") 4 state;
            checkb (name ^ ": trace 0->4") true
              (trace_sig Fmt.string string_of_int r
              = [ (None, "0"); (Some "b", "4") ])
          | o ->
            Alcotest.failf "%s: expected violation, got %a" name
              (Explore.pp_outcome Fmt.int) o
        in
        expect
          (fun ~prov ~check_deadlock ~trace ~invariants sys ->
            Explore.run ~prov ~check_deadlock ~trace ~invariants sys)
          "seq";
        expect
          (fun ~prov ~check_deadlock ~trace ~invariants sys ->
            Explore.run ~jobs:4 ~prov ~check_deadlock ~trace ~invariants
              sys)
          "par")
  ]

let tests = codec_tests @ buffer_tests @ engine_tests
let suite = ("journal", tests)
