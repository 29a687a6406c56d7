(* The differential fuzzer's own tests: the splittable PRNG is pinned
   bit-for-bit, generated specs are valid and their codecs round-trip,
   the shrinker is a deterministic local-minimum search, the driver's
   battery passes on fixed seeds, and every committed repro in
   [test/corpus/] still parses and replays through the oracles. *)

open Ccr_fuzz
open Test_util

let seeds lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let spec_at family seed = Gen.generate ~family (Rng.make seed)

let over_specs family lo hi f =
  List.iter (fun s -> f s (spec_at family s)) (seeds lo hi)

(* ---- PRNG ---------------------------------------------------------------- *)

let rng_tests =
  [
    case "splitmix64 stream is pinned bit-for-bit" (fun () ->
        (* regression anchors: corpus seeds must survive compiler and
           stdlib upgrades, so the stream is part of the contract *)
        let r = Rng.make 42 in
        List.iter
          (fun expect ->
            check Alcotest.int64 "bits64" expect (Rng.bits64 r))
          [
            0x989b3f130a063869L;
            0x290db4bf2570ded7L;
            0x2a990be63a01b2d5L;
            0x0c4b6b24ef01890eL;
          ];
        let s = Rng.split (Rng.make 42) in
        check Alcotest.int64 "split stream" 0x5599b3e06d073327L
          (Rng.bits64 s));
    case "same seed, same stream" (fun () ->
        let a = Rng.make 7 and b = Rng.make 7 in
        for _ = 1 to 100 do
          check Alcotest.int64 "draw" (Rng.bits64 a) (Rng.bits64 b)
        done);
    case "split decorrelates from the parent" (fun () ->
        let a = Rng.make 7 in
        let child = Rng.split a in
        let differs = ref false in
        for _ = 1 to 16 do
          if Rng.bits64 a <> Rng.bits64 child then differs := true
        done;
        checkb "streams diverge" true !differs);
    case "int stays within bound and non-negative" (fun () ->
        let r = Rng.make 1 in
        for bound = 1 to 50 do
          for _ = 1 to 20 do
            let v = Rng.int r bound in
            if v < 0 || v >= bound then
              Alcotest.failf "Rng.int %d returned %d" bound v
          done
        done);
  ]

(* ---- generator and codecs ------------------------------------------------ *)

let gen_tests =
  [
    case "generated specs are valid (both families)" (fun () ->
        List.iter
          (fun family ->
            over_specs family 0 199 (fun seed spec ->
                if not (Gen.valid spec) then
                  Alcotest.failf "seed %d: invalid spec %a" seed Gen.pp spec))
          [ Gen.Legacy; Gen.General ]);
    case "generation is deterministic in the seed" (fun () ->
        over_specs Gen.General 0 99 (fun seed spec ->
            checkb "same seed, same spec" true
              (spec = spec_at Gen.General seed)));
    case "spec string codec round-trips" (fun () ->
        List.iter
          (fun family ->
            over_specs family 0 199 (fun seed spec ->
                match Gen.spec_of_string (Gen.spec_to_string spec) with
                | Ok spec' when spec' = spec -> ()
                | Ok spec' ->
                  Alcotest.failf "seed %d: %a reparsed as %a" seed Gen.pp
                    spec Gen.pp spec'
                | Error e ->
                  Alcotest.failf "seed %d: %S did not parse: %s" seed
                    (Gen.spec_to_string spec) e))
          [ Gen.Legacy; Gen.General ]);
    case ".ccr print/parse round-trip preserves the system" (fun () ->
        (* satellite of the roundtrip oracle: generated system →
           pretty-print → Parse yields an identical Ir.system *)
        over_specs Gen.General 0 99 (fun seed spec ->
            let sys = Gen.build spec in
            let sys' = Ccr_core.Parse.system (Ccr_core.Parse.to_string sys) in
            if sys <> sys' then
              Alcotest.failf "seed %d: round-trip changed the system for %a"
                seed Gen.pp spec));
    case "repro files round-trip" (fun () ->
        over_specs Gen.General 0 49 (fun seed spec ->
            let ccr =
              Gen.to_ccr ~seed ~oracle:"eq1" ~detail:"synthetic" spec
            in
            match Gen.of_ccr ccr with
            | Ok (seed', oracle, spec')
              when seed' = seed && oracle = "eq1" && spec' = spec ->
              ()
            | Ok _ -> Alcotest.failf "seed %d: header fields changed" seed
            | Error e -> Alcotest.failf "seed %d: of_ccr failed: %s" seed e);
        (* the body itself must stay parseable *)
        let spec = spec_at Gen.General 3 in
        let ccr = Gen.to_ccr ~seed:3 ~oracle:"eq1" ~detail:"d" spec in
        checkb "body parses" true
          (Ccr_core.Parse.system ccr = Gen.build spec));
  ]

(* ---- shrinker ------------------------------------------------------------ *)

let shrink_tests =
  let fails_if pred s = if pred s then Some (Oracle.Eq1, "synthetic") else None in
  [
    case "candidates strictly decrease the size measure" (fun () ->
        over_specs Gen.General 0 99 (fun seed spec ->
            List.iter
              (fun c ->
                if not (Gen.valid c) then
                  Alcotest.failf "seed %d: invalid candidate %a" seed Gen.pp c;
                if Gen.size c >= Gen.size spec then
                  Alcotest.failf "seed %d: candidate %a does not shrink %a"
                    seed Gen.pp c Gen.pp spec)
              (Shrink.candidates spec)));
    case "minimize reaches a local minimum" (fun () ->
        (* synthetic failure: any spec with >= 2 transactions *)
        let pred (s : Gen.spec) = List.length s.Gen.txns >= 2 in
        let fails = fails_if pred in
        over_specs Gen.General 0 49 (fun seed spec ->
            if pred spec then begin
              let shrunk, (o, _) = Shrink.minimize ~fails spec in
              checkb "still fails" true (pred shrunk);
              checkb "oracle name" true (o = Oracle.Eq1);
              List.iter
                (fun c ->
                  if pred c then
                    Alcotest.failf
                      "seed %d: not a local minimum, %a still fails" seed
                      Gen.pp c)
                (Shrink.candidates shrunk)
            end));
    case "minimize is deterministic" (fun () ->
        let fails = fails_if (fun (s : Gen.spec) -> s.Gen.n >= 2) in
        over_specs Gen.General 0 49 (fun _ spec ->
            if spec.Gen.n >= 2 then
              let a, _ = Shrink.minimize ~fails spec in
              let b, _ = Shrink.minimize ~fails spec in
              checkb "same minimum" true (a = b)));
    case "minimize rejects passing specs" (fun () ->
        let spec = spec_at Gen.General 0 in
        match Shrink.minimize ~fails:(fun _ -> None) spec with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ---- oracles and driver -------------------------------------------------- *)

let driver_tests =
  [
    slow_case "battery passes on fixed general-family seeds" (fun () ->
        over_specs Gen.General 0 9 (fun seed spec ->
            match
              Oracle.failures (Oracle.run_battery ~max_states:3_000 spec)
            with
            | [] -> ()
            | (o, detail) :: _ ->
              Alcotest.failf "seed %d: %s failed on %a: %s" seed
                (Oracle.name_to_string o) Gen.pp spec detail));
    case "the serve oracle leaves no cache directory behind" (fun () ->
        let spec = spec_at Gen.General 3 in
        (match
           Oracle.failures
             (Oracle.run_battery ~only:[ Oracle.Serve ] ~max_states:500 spec)
         with
        | [] -> ()
        | (_, detail) :: _ -> Alcotest.failf "serve oracle failed: %s" detail);
        let dir = Oracle.serve_dir () in
        checkb "cache directory while the daemon runs" true
          (Sys.file_exists dir && Sys.readdir dir <> [||]);
        Oracle.stop_serve ();
        checkb "no cache directory after stop" false (Sys.file_exists dir);
        (* a later round starts afresh, and stops clean again *)
        checkb "restarts" true
          (Oracle.failures
             (Oracle.run_battery ~only:[ Oracle.Serve ] ~max_states:500 spec)
          = []);
        Oracle.stop_serve ();
        checkb "no cache directory after the second stop" false
          (Sys.file_exists dir));
    slow_case "driver run is deterministic and failure-free" (fun () ->
        let run () =
          Driver.run ~legacy_matrix:true ~seed:10 ~count:6 ~max_states:2_000
            ()
        in
        let a = run () in
        let b = run () in
        checki "no failures" 0 (List.length a.Driver.failures);
        List.iter
          (fun (o, c) ->
            checki ("pass " ^ Oracle.name_to_string o) 6 c;
            ignore o)
          a.Driver.passes;
        checkb "coverage populated" true
          (Array.exists (fun c -> c > 0) a.Driver.coverage);
        checkb "coverage deterministic" true
          (a.Driver.coverage = b.Driver.coverage);
        checkb "legacy baseline deterministic" true
          (a.Driver.legacy_coverage = b.Driver.legacy_coverage));
  ]

(* ---- committed repro corpus ---------------------------------------------- *)

let corpus_dir = "corpus"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ccr")
    |> List.sort compare
    |> List.map (Filename.concat corpus_dir)
  else []

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus_tests =
  [
    slow_case "every committed repro parses and replays the battery"
      (fun () ->
        List.iter
          (fun path ->
            let contents = read_file path in
            match Gen.of_ccr contents with
            | Error e -> Alcotest.failf "%s: bad repro header: %s" path e
            | Ok (_seed, oracle, spec) ->
              (match Oracle.name_of_string oracle with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: %s" path e);
              (* the body must be the spec's own system *)
              checkb (path ^ ": body matches spec") true
                (Ccr_core.Parse.system contents = Gen.build spec);
              (* replay: the battery must run to completion; we log but do
                 not require the original verdict, so fixed bugs keep
                 their repro as a regression input *)
              let results = Oracle.run_battery ~max_states:5_000 spec in
              checki (path ^ ": battery ran all oracles")
                (List.length Oracle.all) (List.length results))
          (corpus_files ()))
  ]

let suite =
  ("fuzz", rng_tests @ gen_tests @ shrink_tests @ driver_tests @ corpus_tests)
