(* The ccr serve daemon: thread-per-connection HTTP front end, a bounded
   FIFO queue drained by worker threads, and the content-addressed result
   cache.  Everything protocol-semantic happens in Api; this file is only
   scheduling, framing and bookkeeping. *)

module M = Ccr_obs.Metrics
module J = Ccr_obs.Journal
module Registry = Ccr_protocols.Registry

type status = Queued | Running | Done | Failed of string

type job = {
  jb_id : string;
  jb_key : string;
  jb_config : Api.config;
  jb_config_json : J.value;
  jb_entry : Registry.t;
  jb_lock : Mutex.t;
  jb_cond : Condition.t;
  mutable jb_status : status;
  mutable jb_cached : bool;
  mutable jb_verdict : Api.verdict option;
  mutable jb_rev_events : string list;  (** journal lines, newest first *)
  mutable jb_n_events : int;
}

type t = {
  sock : Unix.file_descr;
  d_port : int;
  queue : job Queue.t;
  queue_cap : int;
  qlock : Mutex.t;
  qcond : Condition.t;
  jobs : (string, job) Hashtbl.t;
  jlock : Mutex.t;
  cache : Cache.t option;
  max_states_cap : int;
  reg : M.t;
  stopping : bool Atomic.t;
  engine : Mutex.t;  (** serializes explorations: see daemon.mli *)
  mutable threads : Thread.t list;  (** accept loop + workers *)
  mutable seq : int;
  mutable done_count : int;
  conn_count : int Atomic.t;
}

let port t = t.d_port
let metrics t = t.reg
let jobs_done t = t.done_count

(* ---- job plumbing -------------------------------------------------------- *)

let event_line ev fields =
  J.to_string
    (J.Obj ((("v", J.Int J.schema_version) :: ("ev", J.Str ev) :: fields)))

let push_event j line =
  Mutex.lock j.jb_lock;
  j.jb_rev_events <- line :: j.jb_rev_events;
  j.jb_n_events <- j.jb_n_events + 1;
  Condition.broadcast j.jb_cond;
  Mutex.unlock j.jb_lock

let set_status j st =
  Mutex.lock j.jb_lock;
  j.jb_status <- st;
  Condition.broadcast j.jb_cond;
  Mutex.unlock j.jb_lock

let status_name j =
  match j.jb_status with
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

let job_json j =
  let base =
    [
      ("id", J.Str j.jb_id);
      ("status", J.Str (status_name j));
      ("cached", J.Bool j.jb_cached);
    ]
  in
  let extra =
    match (j.jb_status, j.jb_verdict) with
    | Done, Some v -> [ ("verdict", Api.verdict_to_json v) ]
    | Failed msg, _ -> [ ("error", J.Str msg) ]
    | _ -> []
  in
  J.to_string (J.Obj (base @ extra))

(* Run one queued job: emit the same journal events the CLI would, explore
   under the engine lock, cache deterministic verdicts. *)
let run_job t j =
  set_status j Running;
  let cfg = j.jb_config in
  push_event j
    (event_line "config"
       (Api.journal_config ~protocol:j.jb_entry.Registry.name cfg));
  (match Api.fault_spec cfg with
  | Ok (Some spec) ->
    push_event j
      (event_line "faults"
         [ ("budget", J.Str (Fmt.str "%a" Ccr_faults.Fault.pp spec)) ])
  | _ -> ());
  let on_level ~depth ~states =
    push_event j
      (event_line "level" [ ("depth", J.Int depth); ("states", J.Int states) ])
  in
  let explorer =
    Api.default_explorer ~on_level
      ~interrupt:(fun () -> Atomic.get t.stopping)
      cfg
  in
  let result =
    Mutex.lock t.engine;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.engine)
      (fun () -> Api.check_entry ~explorer j.jb_entry cfg)
  in
  match result with
  | Ok (v, _meta) ->
    List.iter
      (fun (ev, fields) -> push_event j (event_line ev fields))
      (Api.journal_events v);
    push_event j (event_line "end" (Api.journal_end v));
    M.add (M.counter t.reg "serve.states_explored") v.Api.v_states;
    Mutex.lock j.jb_lock;
    j.jb_verdict <- Some v;
    Mutex.unlock j.jb_lock;
    (match t.cache with
    | Some cache when Api.cacheable v ->
      Mutex.lock j.jb_lock;
      let journal = List.rev j.jb_rev_events in
      Mutex.unlock j.jb_lock;
      Cache.store cache
        {
          Cache.e_key = j.jb_key;
          e_config = j.jb_config_json;
          e_verdict = v;
          e_journal = journal;
        }
    | _ -> ());
    M.incr (M.counter t.reg "serve.jobs_done");
    t.done_count <- t.done_count + 1;
    set_status j Done
  | Error msg ->
    push_event j
      (event_line "end"
         [ ("outcome", J.Str "error"); ("reason", J.Str msg) ]);
    M.incr (M.counter t.reg "serve.jobs_failed");
    set_status j (Failed msg)

let worker t =
  let rec loop () =
    Mutex.lock t.qlock;
    let rec wait () =
      if Atomic.get t.stopping then None
      else if Queue.is_empty t.queue then begin
        Condition.wait t.qcond t.qlock;
        wait ()
      end
      else Some (Queue.pop t.queue)
    in
    let job = wait () in
    M.set (M.gauge t.reg "serve.queue_depth")
      (float_of_int (Queue.length t.queue));
    Mutex.unlock t.qlock;
    match job with
    | None -> ()
    | Some j ->
      (try run_job t j
       with exn -> set_status j (Failed (Api.refusal exn)));
      loop ()
  in
  loop ()

(* ---- request handling ---------------------------------------------------- *)

let find_job t id =
  Mutex.lock t.jlock;
  let j = Hashtbl.find_opt t.jobs id in
  Mutex.unlock t.jlock;
  j

let bad t fd msg =
  M.incr (M.counter t.reg "serve.bad_requests");
  Http.respond ~status:400
    ~body:(J.to_string (J.Obj [ ("error", J.Str msg) ]))
    fd

let submit t fd body =
  M.incr (M.counter t.reg "serve.jobs_submitted");
  match J.parse body with
  | None -> bad t fd "body is not valid JSON"
  | Some json -> (
    match Api.config_of_json json with
    | Error msg -> bad t fd msg
    | Ok cfg -> (
      match Api.resolve cfg.Api.spec with
      | Error msg -> bad t fd msg
      | Ok entry ->
        if cfg.Api.n < 1 || cfg.Api.n > 16 then bad t fd "n out of range [1,16]"
        else if cfg.Api.k < 2 || cfg.Api.k > 64 then
          bad t fd "k out of range [2,64]"
        else begin
          (* The daemon owns execution strategy: jobs always explore
             sequentially (deterministic traces, fork/domain-free), and
             per-job budgets are clamped to the service cap. *)
          let cfg =
            {
              cfg with
              Api.jobs = 1;
              max_states = min cfg.Api.max_states t.max_states_cap;
            }
          in
          let key = Api.cache_key entry cfg in
          let fresh_id () =
            Mutex.lock t.jlock;
            t.seq <- t.seq + 1;
            let id = "j" ^ string_of_int t.seq in
            Mutex.unlock t.jlock;
            id
          in
          let make_job ~id ~cached ~status ~verdict ~events =
            let rev = List.rev events in
            {
              jb_id = id;
              jb_key = key;
              jb_config = cfg;
              jb_config_json = Api.config_to_json cfg;
              jb_entry = entry;
              jb_lock = Mutex.create ();
              jb_cond = Condition.create ();
              jb_status = status;
              jb_cached = cached;
              jb_verdict = verdict;
              jb_rev_events = rev;
              jb_n_events = List.length rev;
            }
          in
          let cached_entry =
            match t.cache with
            | None -> None
            | Some cache ->
              Cache.find
                ~on_damaged:(fun _ ->
                  M.incr (M.counter t.reg "serve.cache_damaged"))
                cache key
          in
          match cached_entry with
          | Some e ->
            M.incr (M.counter t.reg "serve.cache_hits");
            let id = fresh_id () in
            let j =
              make_job ~id ~cached:true ~status:Done
                ~verdict:(Some e.Cache.e_verdict) ~events:e.Cache.e_journal
            in
            Mutex.lock t.jlock;
            Hashtbl.replace t.jobs id j;
            Mutex.unlock t.jlock;
            Http.respond ~status:200 ~body:(job_json j) fd
          | None ->
            M.incr (M.counter t.reg "serve.cache_misses");
            Mutex.lock t.qlock;
            if Queue.length t.queue >= t.queue_cap then begin
              Mutex.unlock t.qlock;
              M.incr (M.counter t.reg "serve.rejected_queue_full");
              Http.respond ~status:429
                ~body:
                  (J.to_string
                     (J.Obj
                        [
                          ("error", J.Str "queue full");
                          ("queue_cap", J.Int t.queue_cap);
                        ]))
                fd
            end
            else begin
              let id = fresh_id () in
              let j =
                make_job ~id ~cached:false ~status:Queued ~verdict:None
                  ~events:[]
              in
              Mutex.lock t.jlock;
              Hashtbl.replace t.jobs id j;
              Mutex.unlock t.jlock;
              Queue.push j t.queue;
              M.set (M.gauge t.reg "serve.queue_depth")
                (float_of_int (Queue.length t.queue));
              Condition.signal t.qcond;
              Mutex.unlock t.qlock;
              Http.respond ~status:202 ~body:(job_json j) fd
            end
        end))

let stream_events t fd j =
  Http.start_chunked ~status:200 fd;
  let cursor = ref 0 in
  let finished = ref false in
  while not !finished do
    Mutex.lock j.jb_lock;
    let rec wait () =
      if
        j.jb_n_events > !cursor
        || (match j.jb_status with Done | Failed _ -> true | _ -> false)
        || Atomic.get t.stopping
      then ()
      else begin
        Condition.wait j.jb_cond j.jb_lock;
        wait ()
      end
    in
    wait ();
    let n = j.jb_n_events in
    let fresh =
      if n > !cursor then
        (* newest first in jb_rev_events; take the slice we have not
           streamed yet, oldest first *)
        List.filteri (fun i _ -> i < n - !cursor) j.jb_rev_events |> List.rev
      else []
    in
    let terminal =
      match j.jb_status with
      | Done | Failed _ -> n = !cursor + List.length fresh
      | _ -> Atomic.get t.stopping
    in
    Mutex.unlock j.jb_lock;
    (try
       List.iter (fun line -> Http.write_chunk fd (line ^ "\n")) fresh;
       cursor := !cursor + List.length fresh;
       if terminal then begin
         Http.end_chunked fd;
         finished := true
       end
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
       finished := true)
  done

let handle t fd =
  match Http.read_request fd with
  | Error `Eof -> ()
  | Error (`Bad msg) -> bad t fd msg
  | Ok req -> (
    M.incr (M.counter t.reg "serve.requests");
    let parts =
      List.filter (fun s -> s <> "") (String.split_on_char '/' req.Http.target)
    in
    match (req.Http.meth, parts) with
    | "POST", [ "jobs" ] -> submit t fd req.Http.body
    | "GET", [ "jobs"; id ] -> (
      match find_job t id with
      | None ->
        Http.respond ~status:404
          ~body:(J.to_string (J.Obj [ ("error", J.Str "unknown job") ]))
          fd
      | Some j ->
        Mutex.lock j.jb_lock;
        let body = job_json j in
        Mutex.unlock j.jb_lock;
        Http.respond ~status:200 ~body fd)
    | "GET", [ "jobs"; id; "events" ] -> (
      match find_job t id with
      | None ->
        Http.respond ~status:404
          ~body:(J.to_string (J.Obj [ ("error", J.Str "unknown job") ]))
          fd
      | Some j -> stream_events t fd j)
    | "GET", [ "metrics" ] ->
      Http.respond ~status:200
        ~content_type:
          "application/openmetrics-text; version=1.0.0; charset=utf-8"
        ~body:(M.to_openmetrics (M.snapshot t.reg))
        fd
    | "GET", [] ->
      Http.respond ~status:200
        ~body:
          (J.to_string
             (J.Obj
                [
                  ("service", J.Str "ccr-serve");
                  ( "endpoints",
                    J.List
                      [
                        J.Str "POST /jobs";
                        J.Str "GET /jobs/ID";
                        J.Str "GET /jobs/ID/events";
                        J.Str "GET /metrics";
                      ] );
                ]))
        fd
    | _, ([ "jobs" ] | [ "jobs"; _ ] | [ "jobs"; _; "events" ] | [ "metrics" ])
      ->
      Http.respond ~status:405
        ~body:(J.to_string (J.Obj [ ("error", J.Str "method not allowed") ]))
        fd
    | _ ->
      Http.respond ~status:404
        ~body:(J.to_string (J.Obj [ ("error", J.Str "no such endpoint") ]))
        fd)

(* No [Unix.select] here: select(2)'s fd_set silently stops reporting
   readiness for descriptors >= FD_SETSIZE (1024), and a long-lived host
   process can hand the listen socket an arbitrarily high fd.  The listen
   socket carries SO_RCVTIMEO (set in [start]) instead, so a plain
   blocking [accept] wakes every 250 ms to check [stopping]. *)
let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.accept t.sock with
    | exception
        Unix.Unix_error
          ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EBADF
            | Unix.ETIMEDOUT ),
            _,
            _ ) ->
      ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | fd, _addr ->
      if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
      else begin
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0 with _ -> ());
        Atomic.incr t.conn_count;
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () ->
                   (try Unix.close fd with _ -> ());
                   Atomic.decr t.conn_count)
                 (fun () -> try handle t fd with _ -> ()))
             ())
      end
  done

(* ---- lifecycle ----------------------------------------------------------- *)

let start ?(port = 0) ?(workers = 1) ?(queue_cap = 64) ?cache_dir
    ?(max_states_cap = 10_000_000) () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  (* wakes the select-free accept loop periodically; see [accept_loop] *)
  (try Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.25 with _ -> ());
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      sock;
      d_port = actual_port;
      queue = Queue.create ();
      queue_cap;
      qlock = Mutex.create ();
      qcond = Condition.create ();
      jobs = Hashtbl.create 64;
      jlock = Mutex.create ();
      cache = Option.map (fun dir -> Cache.create ~dir ()) cache_dir;
      max_states_cap;
      reg = M.create ();
      stopping = Atomic.make false;
      engine = Mutex.create ();
      threads = [];
      seq = 0;
      done_count = 0;
      conn_count = Atomic.make 0;
    }
  in
  (* touch the serve counters so /metrics shows them as zeros from the
     first scrape *)
  List.iter
    (fun name -> ignore (M.counter t.reg name))
    [
      "serve.requests"; "serve.jobs_submitted"; "serve.jobs_done";
      "serve.jobs_failed"; "serve.cache_hits"; "serve.cache_misses";
      "serve.cache_damaged";
      "serve.rejected_queue_full"; "serve.bad_requests";
      "serve.states_explored";
    ];
  let ws = List.init (max 1 workers) (fun _ -> Thread.create (fun () -> worker t) ()) in
  let acc = Thread.create (fun () -> accept_loop t) () in
  t.threads <- acc :: ws;
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake the workers and every event stream *)
    Mutex.lock t.qlock;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qlock;
    Mutex.lock t.jlock;
    Hashtbl.iter
      (fun _ j ->
        Mutex.lock j.jb_lock;
        Condition.broadcast j.jb_cond;
        Mutex.unlock j.jb_lock)
      t.jobs;
    Mutex.unlock t.jlock;
    List.iter Thread.join t.threads;
    (try Unix.close t.sock with _ -> ());
    (* connection handlers are detached; wait briefly for them to drain *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get t.conn_count > 0 && Unix.gettimeofday () < deadline do
      Thread.yield ()
    done
  end
