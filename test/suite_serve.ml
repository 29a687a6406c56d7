(* Black-box conformance harness for the [ccr serve] daemon.

   Every case drives a REAL daemon — forked by [Test_util.with_forked_daemon],
   listening on an ephemeral loopback port — through its HTTP API only: the
   same bytes [ccr client] or curl would exchange.  The contract under test
   (DESIGN.md §6i): job lifecycle and error codes, content-addressed cache
   hits that skip exploration entirely yet return byte-identical verdicts,
   bounded-queue 429 backpressure, per-job budgets reporting caps rather
   than failing, linearizable job ids under concurrent submission, and
   daemon verdicts byte-matching the in-process [Api.check] across the
   whole protocol registry.

   Fork discipline: this suite forks, so it is registered before any
   domain-spawning suite (see test_main.ml). *)

open Test_util
module Api = Ccr_serve.Api
module Http = Ccr_serve.Http
module J = Ccr_obs.Journal
module Registry = Ccr_protocols.Registry

(* ---- tiny HTTP/JSON client helpers ------------------------------------- *)

let req ~port ?body meth path =
  match Http.request ~port ~meth ~path ?body () with
  | Ok (status, body) -> (status, body)
  | Error msg -> Alcotest.failf "HTTP %s %s: %s" meth path msg

let parse body =
  match J.parse body with
  | Some v -> v
  | None -> Alcotest.failf "unparsable JSON: %s" body

let jstr v field =
  match J.get_str (J.find v field) with
  | Some s -> s
  | None -> Alcotest.failf "missing field %S in %s" field (J.to_string v)

let jbool v field =
  match J.find v field with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "missing bool %S in %s" field (J.to_string v)

let jint v field =
  match J.get_int (J.find v field) with
  | Some i -> i
  | None -> Alcotest.failf "missing int %S in %s" field (J.to_string v)

let verdict_of job =
  match J.find job "verdict" with
  | Some v -> v
  | None -> Alcotest.failf "job has no verdict: %s" (J.to_string job)

let submit ~port cfg =
  let status, body =
    req ~port ~body:(J.to_string (Api.config_to_json cfg)) "POST" "/jobs"
  in
  (status, parse body)

let rec wait_done ~port ?(attempts = 600) id =
  let _, body = req ~port "GET" ("/jobs/" ^ id) in
  let v = parse body in
  match jstr v "status" with
  | "done" -> v
  | "failed" -> Alcotest.failf "job %s failed: %s" id (J.to_string v)
  | _ ->
    if attempts = 0 then Alcotest.failf "job %s never finished" id
    else begin
      Unix.sleepf 0.05;
      wait_done ~port ~attempts:(attempts - 1) id
    end

(* "name value" lines of the OpenMetrics text format *)
let metric ~port name =
  let _, body = req ~port "GET" "/metrics" in
  let prefix = name ^ " " in
  let np = String.length prefix in
  match
    List.find_map
      (fun line ->
        if String.length line > np && String.sub line 0 np = prefix then
          float_of_string_opt (String.sub line np (String.length line - np))
        else None)
      (String.split_on_char '\n' body)
  with
  | Some f -> f
  | None -> Alcotest.failf "metric %s absent from /metrics" name

(* ---- the jobs ----------------------------------------------------------- *)

(* 604 states: enough to be a real exploration, quick enough to poll *)
let invalidate_cfg =
  { Api.default with Api.spec = Api.Named "invalidate"; level = `Async; n = 2 }

(* 10 states: the fast job for submission storms *)
let lock_rv_cfg =
  { Api.default with Api.spec = Api.Named "lock"; level = `Rv; n = 2 }

(* ~2.5 s of exploration: keeps the worker busy while a burst piles up *)
let slow_cfg =
  {
    Api.default with
    Api.spec = Api.Named "invalidate";
    level = `Async;
    n = 4;
    symmetry = `Off;
    max_states = 400_000;
  }

let tests =
  [
    case "lifecycle: submit, poll, verdict" (fun () ->
        with_forked_daemon @@ fun ~port ->
        let status, j = submit ~port invalidate_cfg in
        checki "fresh job is accepted with 202" 202 status;
        checks "ids are sequential from j1" "j1" (jstr j "id");
        checkb "not a cache hit" false (jbool j "cached");
        checkb "starts queued or running" true
          (List.mem (jstr j "status") [ "queued"; "running" ]);
        let j = wait_done ~port "j1" in
        let v = verdict_of j in
        checks "protocol" "invalidate" (jstr v "protocol");
        checks "level" "async" (jstr v "level");
        checks "explored" "complete" (jstr v "explored");
        checkb "ok" true (jbool v "ok");
        checki "states" 604 (jint v "states");
        checki "transitions" 1201 (jint v "transitions"));
    case "protocol errors: 404, 405, 400, and the root banner" (fun () ->
        with_forked_daemon @@ fun ~port ->
        let status, body = req ~port "GET" "/jobs/j99" in
        checki "unknown job is 404" 404 status;
        checks "unknown job message" "unknown job" (jstr (parse body) "error");
        let status, _ = req ~port "DELETE" "/jobs/j99" in
        checki "wrong method is 405" 405 status;
        let status, _ = req ~port "GET" "/nope" in
        checki "unknown endpoint is 404" 404 status;
        let status, body = req ~port ~body:"{nope" "POST" "/jobs" in
        checki "malformed JSON is 400" 400 status;
        checkb "malformed JSON names the problem" true
          (String.length (jstr (parse body) "error") > 0);
        let status, body =
          submit ~port { Api.default with Api.spec = Api.Named "nosuch" }
        in
        checki "unknown protocol is 400" 400 status;
        checkb "unknown protocol is named" true
          (contains_sub ~sub:"unknown protocol" (jstr body "error"));
        let status, _ = submit ~port { invalidate_cfg with Api.n = 99 } in
        checki "out-of-range n is 400" 400 status;
        let status, body = req ~port "GET" "/" in
        checki "root is 200" 200 status;
        checks "root names the service" "ccr-serve"
          (jstr (parse body) "service"));
    case "cache: a warm hit skips exploration, verdict byte-identical"
      (fun () ->
        with_temp_dir "ccr-test-serve-cache" @@ fun cache_dir ->
        with_forked_daemon ~cache_dir @@ fun ~port ->
        let status, _ = submit ~port invalidate_cfg in
        checki "cold submit queues" 202 status;
        let cold = wait_done ~port "j1" in
        let explored = metric ~port "serve_states_explored_total" in
        let status, warm = submit ~port invalidate_cfg in
        checki "warm submit answers immediately" 200 status;
        checks "warm job is already done" "done" (jstr warm "status");
        checkb "marked as a cache hit" true (jbool warm "cached");
        checks "verdicts byte-identical"
          (J.to_string (verdict_of cold))
          (J.to_string (verdict_of warm));
        checkb "zero states explored by the hit" true
          (metric ~port "serve_states_explored_total" = explored);
        checkb "one hit, one miss" true
          (metric ~port "serve_cache_hits_total" = 1.0
          && metric ~port "serve_cache_misses_total" = 1.0));
    case "cache: results survive a daemon restart" (fun () ->
        with_temp_dir "ccr-test-serve-cache" @@ fun cache_dir ->
        let cold =
          with_forked_daemon ~cache_dir @@ fun ~port ->
          ignore (submit ~port invalidate_cfg);
          J.to_string (verdict_of (wait_done ~port "j1"))
        in
        with_forked_daemon ~cache_dir @@ fun ~port ->
        let status, warm = submit ~port invalidate_cfg in
        checki "fresh daemon answers from disk" 200 status;
        checkb "cached" true (jbool warm "cached");
        checks "verdict unchanged across restart" cold
          (J.to_string (verdict_of warm)));
    case "backpressure: a full queue answers 429" (fun () ->
        with_forked_daemon ~workers:1 ~queue_cap:1 @@ fun ~port ->
        (* one slow job occupies the worker, one fills the queue; the
           rest of the burst must bounce with 429.  Daemon teardown
           interrupts the running exploration, so no long wait. *)
        let codes =
          List.init 4 (fun _ -> fst (submit ~port slow_cfg))
        in
        checkb "at least one accepted" true (List.mem 202 codes);
        checkb "at least one rejected" true (List.mem 429 codes);
        checkb "nothing but 202/429 in the burst" true
          (List.for_all (fun c -> c = 202 || c = 429) codes);
        checkb "rejections counted" true
          (metric ~port "serve_rejected_queue_full_total" >= 1.0));
    case "budget: an exceeded cap reports limit-states, not an error"
      (fun () ->
        with_forked_daemon @@ fun ~port ->
        let status, _ =
          submit ~port { invalidate_cfg with Api.max_states = 10 }
        in
        checki "capped job is accepted" 202 status;
        let j = wait_done ~port "j1" in
        let v = verdict_of j in
        checks "done, not failed" "done" (jstr j "status");
        checks "explored tag" "limit-states" (jstr v "explored");
        checkb "not ok" false (jbool v "ok");
        checki "stopped at the cap" 10 (jint v "states"));
    case "budget: the service clamps per-job max_states" (fun () ->
        with_forked_daemon ~max_states_cap:10 @@ fun ~port ->
        let status, _ =
          submit ~port { invalidate_cfg with Api.max_states = 1_000_000 }
        in
        checki "accepted" 202 status;
        let v = verdict_of (wait_done ~port "j1") in
        checks "service cap applies" "limit-states" (jstr v "explored");
        checki "states" 10 (jint v "states"));
    slow_case "concurrency: 4 threads, ids linearize to j1..j12" (fun () ->
        with_forked_daemon ~workers:2 @@ fun ~port ->
        let lock = Mutex.create () in
        let ids = ref [] in
        let worker () =
          for _ = 1 to 3 do
            let status, j = submit ~port lock_rv_cfg in
            if status <> 202 && status <> 200 then
              Alcotest.failf "submit answered %d" status;
            let id = jstr j "id" in
            Mutex.lock lock;
            ids := id :: !ids;
            Mutex.unlock lock
          done
        in
        let threads = List.init 4 (fun _ -> Thread.create worker ()) in
        List.iter Thread.join threads;
        let ids = List.sort_uniq compare !ids in
        checki "12 distinct ids" 12 (List.length ids);
        let expected =
          List.sort_uniq compare (List.init 12 (fun i -> Fmt.str "j%d" (i + 1)))
        in
        checkb "exactly j1..j12, no gaps" true (ids = expected);
        List.iter
          (fun id ->
            let v = verdict_of (wait_done ~port id) in
            checkb (id ^ " ok") true (jbool v "ok");
            checki (id ^ " states") 10 (jint v "states"))
          (List.init 12 (fun i -> Fmt.str "j%d" (i + 1))));
    case "events: the stream is the schema-v1 journal, warm equals cold"
      (fun () ->
        with_temp_dir "ccr-test-serve-cache" @@ fun cache_dir ->
        with_forked_daemon ~cache_dir @@ fun ~port ->
        let events id =
          ignore (wait_done ~port id);
          let status, body = req ~port "GET" ("/jobs/" ^ id ^ "/events") in
          checki (id ^ " events status") 200 status;
          List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
        in
        ignore (submit ~port invalidate_cfg);
        let cold = events "j1" in
        checkb "stream is non-trivial" true (List.length cold >= 2);
        List.iter
          (fun line ->
            let v = parse line in
            checki "schema v1" 1 (jint v "v");
            checkb "has an event kind" true (jstr v "ev" <> ""))
          cold;
        checks "first event" "config" (jstr (parse (List.hd cold)) "ev");
        let last = List.nth cold (List.length cold - 1) in
        checks "last event" "end" (jstr (parse last) "ev");
        checks "end outcome" "complete" (jstr (parse last) "outcome");
        ignore (submit ~port invalidate_cfg);
        let warm = events "j2" in
        checks "replayed journal byte-identical"
          (String.concat "\n" cold) (String.concat "\n" warm));
    case "inline: a .ccr body checks like a registry protocol" (fun () ->
        with_forked_daemon @@ fun ~port ->
        let src = Ccr_core.Parse.to_string ping_system in
        let cfg =
          { Api.default with Api.spec = Api.Inline src; level = `Async; n = 2 }
        in
        let status, _ = submit ~port cfg in
        checki "inline spec accepted" 202 status;
        let v = verdict_of (wait_done ~port "j1") in
        checks "protocol name from the source" "ping" (jstr v "protocol");
        checkb "ok" true (jbool v "ok");
        (* pin against the in-process entry point *)
        match Api.check cfg with
        | Error msg -> Alcotest.failf "in-process check failed: %s" msg
        | Ok (direct, _) ->
          checks "matches in-process verdict"
            (J.to_string (Api.verdict_to_json direct))
            (J.to_string v));
    slow_case "registry: daemon verdicts byte-match in-process verdicts"
      (fun () ->
        with_forked_daemon @@ fun ~port ->
        let seq = ref 0 in
        List.iter
          (fun (e : Registry.t) ->
            List.iter
              (fun level ->
                let cfg =
                  {
                    Api.default with
                    Api.spec = Api.Named e.Registry.name;
                    level;
                    n = 2;
                  }
                in
                let direct =
                  match Api.check cfg with
                  | Ok (v, _) -> J.to_string (Api.verdict_to_json v)
                  | Error msg ->
                    Alcotest.failf "%s: in-process check failed: %s"
                      e.Registry.name msg
                in
                let status, j = submit ~port cfg in
                checkb
                  (Fmt.str "%s %s: accepted" e.Registry.name
                     (Api.level_name cfg))
                  true
                  (status = 202 || status = 200);
                incr seq;
                let id = jstr j "id" in
                checks "sequential id" (Fmt.str "j%d" !seq) id;
                let v = verdict_of (wait_done ~port id) in
                checks
                  (Fmt.str "%s %s: byte-match" e.Registry.name
                     (Api.level_name cfg))
                  direct (J.to_string v))
              [ `Rv; `Async ])
          Registry.all);
    case "metrics: OpenMetrics framing ends with # EOF" (fun () ->
        with_forked_daemon @@ fun ~port ->
        let _, body = req ~port "GET" "/metrics" in
        checkb "requests counted" true
          (contains_sub ~sub:"serve_requests_total" body);
        checkb "submissions exported" true
          (contains_sub ~sub:"serve_jobs_submitted_total" body);
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
        in
        checks "EOF-framed" "# EOF" (List.nth lines (List.length lines - 1)));
    case "fd pressure: the daemon accepts on descriptors above FD_SETSIZE"
      (fun () ->
        (* select(2)'s fd_set tops out at 1024 descriptors; an accept loop
           built on [Unix.select] goes silently deaf when the listen socket
           lands above that.  Pin the select-free loop: hoist the daemon's
           fds past 1024 and demand a live round trip.  In-process (threads
           only), so this forks nothing. *)
        let ballast =
          Array.init 1100 (fun _ ->
              Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
        in
        Fun.protect
          ~finally:(fun () ->
            Array.iter (fun fd -> try Unix.close fd with _ -> ()) ballast)
          (fun () ->
            let t = Ccr_serve.Daemon.start ~port:0 () in
            Fun.protect
              ~finally:(fun () -> Ccr_serve.Daemon.stop t)
              (fun () ->
                let port = Ccr_serve.Daemon.port t in
                let status, body = req ~port "GET" "/" in
                checki "high-fd round trip" 200 status;
                checkb "service banner" true
                  (contains_sub ~sub:"ccr-serve" body))));
    case "cache key: entries without IR differ by name" (fun () ->
        (* [migratory-hand] has no IR, so its marshalled [system] is
           [None] — the same bytes as any other IR-less entry *)
        let hand =
          match Registry.find "migratory-hand" with
          | Some e -> e
          | None -> Alcotest.fail "no migratory-hand entry"
        in
        let other = { hand with Registry.name = "other" } in
        let cfg = { Api.default with Api.spec = Api.Named "migratory-hand" } in
        checkb "spec hashes differ" true
          (Api.spec_hash hand cfg <> Api.spec_hash other cfg);
        checkb "cache keys differ" true
          (Api.cache_key hand cfg <> Api.cache_key other cfg));
    case "cache key: an entry from another checker version is recomputed"
      (fun () ->
        let entry =
          match Registry.find "invalidate" with
          | Some e -> e
          | None -> Alcotest.fail "no invalidate entry"
        in
        let current = Api.cache_key entry invalidate_cfg in
        (* the key as the checker before [checker_version] formed it *)
        let stale =
          Digest.to_hex
            (Digest.string
               (String.concat "\x00"
                  [
                    Api.spec_hash entry invalidate_cfg;
                    string_of_int invalidate_cfg.Api.max_states;
                    Api.store_name invalidate_cfg;
                  ]))
        in
        checkb "the version is part of the key" true (current <> stale);
        with_temp_dir "ccr-test-serve-cache" @@ fun fresh_dir ->
        let cold =
          with_forked_daemon ~cache_dir:fresh_dir @@ fun ~port ->
          ignore (submit ~port invalidate_cfg);
          verdict_of (wait_done ~port "j1")
        in
        let e =
          match Ccr_serve.Cache.find (Ccr_serve.Cache.create ~dir:fresh_dir ()) current
          with
          | Some e -> e
          | None -> Alcotest.fail "the cold verdict was not cached"
        in
        (* the same entry, as an older checker would have stored it and
           with a verdict the current one never gives *)
        with_temp_dir "ccr-test-serve-cache" @@ fun stale_dir ->
        Ccr_serve.Cache.store
          (Ccr_serve.Cache.create ~dir:stale_dir ())
          {
            e with
            Ccr_serve.Cache.e_key = stale;
            e_verdict = { e.Ccr_serve.Cache.e_verdict with Api.v_states = 1 };
          };
        with_forked_daemon ~cache_dir:stale_dir @@ fun ~port ->
        let status, job = submit ~port invalidate_cfg in
        checki "a stale entry is a miss: the job queues" 202 status;
        checkb "not marked cached" false (jbool job "cached");
        checks "the verdict is recomputed" (J.to_string cold)
          (J.to_string (verdict_of (wait_done ~port "j1")));
        checkb "no hit, one miss" true
          (metric ~port "serve_cache_hits_total" = 0.0
          && metric ~port "serve_cache_misses_total" = 1.0));
  ]

let suite = ("serve", tests)
