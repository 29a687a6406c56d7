(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the experiments DESIGN.md section 5 adds (rule
   coverage, Eq. 1, message efficiency, buffers/fairness, progress).

   Environment:
     CCR_BENCH_FAST=1    lower caps (quick smoke run)
     CCR_BENCH_MEM=MB    memory cap for Table 3 (default 64, as the paper)
     CCR_BENCH_JOBS=J    worker domains for the parallel-exploration section
                         (default: the recommended domain count)
     CCR_BENCH_JSON=path write machine-readable per-row results (JSON array)
                         to [path], e.g. BENCH_20260807.json

   See EXPERIMENTS.md for the recorded paper-vs-measured discussion. *)

open Ccr_core
open Ccr_protocols
module Explore = Ccr_modelcheck.Explore
module Async = Ccr_refine.Async
module Table = Ccr_refine.Table
module Sim = Ccr_simulate.Sim
module Sched = Ccr_simulate.Sched

let fast = Sys.getenv_opt "CCR_BENCH_FAST" = Some "1"

let mem_cap_mb =
  match Sys.getenv_opt "CCR_BENCH_MEM" with
  | Some s -> ( try int_of_string s with _ -> 64)
  | None -> if fast then 8 else 64

let time_cap = if fast then 5.0 else 120.0

let bench_jobs =
  match Sys.getenv_opt "CCR_BENCH_JOBS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> max 2 (Domain.recommended_domain_count ())

let bench_json = Sys.getenv_opt "CCR_BENCH_JSON"

let section title = Fmt.pr "@.=== %s ===@.@." title

(* ---- machine-readable results ------------------------------------------ *)

let json_rows : string list ref = ref []

let outcome_tag = function
  | Explore.Complete -> "complete"
  | Explore.Limit Explore.L_states -> "limit-states"
  | Explore.Limit Explore.L_memory -> "limit-memory"
  | Explore.Limit Explore.L_time -> "limit-time"
  | Explore.Limit Explore.L_interrupt -> "limit-interrupt"
  | Explore.Violation _ -> "violation"
  | Explore.Deadlock _ -> "deadlock"

(* Protocol names are normalized to lowercase so the same workload keys
   identically whichever section emitted it (table3 used to say
   "Migratory" where the parallel section said "migratory"). *)
let record_row ?metrics ?store ?journal_bytes ?provenance_bytes
    ?checkpoint_bytes ?resumes ~protocol ~n ~level ~jobs
    (r : (_, _) Explore.stats) =
  if bench_json <> None then
    json_rows :=
      Fmt.str
        {|  {"protocol": %S, "n": %d, "level": %S, "states": %d, "transitions": %d, "time_s": %.6f, "mem_bytes": %d, "outcome": %S, "jobs": %d%s%s%s%s%s%s}|}
        (String.lowercase_ascii protocol)
        n level r.states r.transitions r.time_s r.mem_bytes
        (outcome_tag r.outcome) jobs
        (match store with
        | None -> ""
        | Some s ->
          Fmt.str {|, "store": %S, "raw_bytes": %d|} s r.raw_bytes)
        (match journal_bytes with
        | None -> ""
        | Some b -> Fmt.str {|, "journal_bytes": %d|} b)
        (match provenance_bytes with
        | None -> ""
        | Some b -> Fmt.str {|, "provenance_bytes": %d|} b)
        (match checkpoint_bytes with
        | None -> ""
        | Some b -> Fmt.str {|, "checkpoint_bytes": %d|} b)
        (match resumes with
        | None -> ""
        | Some c -> Fmt.str {|, "resumes": %d|} c)
        (match metrics with
        | None -> ""
        | Some j -> Fmt.str {|, "metrics": %s|} j)
      :: !json_rows

let record_sim_row ~protocol ~variant ~n ~metrics (m : Sim.metrics) =
  if bench_json <> None then
    json_rows :=
      Fmt.str
        {|  {"protocol": %S, "variant": %S, "n": %d, "level": "sim", "steps": %d, "rendezvous": %d, "msgs_per_rdv": %.4f, "metrics": %s}|}
        (String.lowercase_ascii protocol)
        variant n m.Sim.steps m.Sim.rendezvous
        (if m.Sim.rendezvous = 0 then 0.0 else Sim.per_rendezvous m)
        metrics
      :: !json_rows

let write_json () =
  match bench_json with
  | None -> ()
  | Some path -> (
    let rows = List.rev !json_rows in
    match open_out path with
    | exception Sys_error msg ->
      Fmt.epr "@.CCR_BENCH_JSON: cannot write %s (%s); results above stand@."
        path msg
    | oc ->
      output_string oc "[\n";
      output_string oc (String.concat ",\n" rows);
      output_string oc "\n]\n";
      close_out oc;
      Fmt.pr "@.wrote %d benchmark rows to %s@." (List.length rows) path)

(* ---- Table 3 ----------------------------------------------------------- *)

let run_rv prog =
  Explore.run ~max_mem_bytes:(mem_cap_mb * 1024 * 1024) ~max_time_s:time_cap
    Explore.
      {
        init = Ccr_semantics.Rendezvous.initial prog;
        succ = Ccr_semantics.Rendezvous.successors prog;
        encode = Ccr_semantics.Rendezvous.encode;
        decode = Ccr_semantics.Rendezvous.decode prog;
        canon = None;
        key_io = None;
      }

let run_async ?(k = 2) prog =
  let cfg = Async.{ k } in
  Explore.run ~max_mem_bytes:(mem_cap_mb * 1024 * 1024) ~max_time_s:time_cap
    Explore.
      {
        init = Async.initial prog cfg;
        succ = Async.successors prog cfg;
        encode = Async.encode;
        decode = Async.decode prog;
        canon = None;
        key_io = None;
      }

(* Like {!run_async} but with a metrics registry metered through the
   successor relation; returns the stats plus the registry's JSON
   snapshot, to be embedded in the row. *)
let run_async_metered ?(k = 2) prog =
  let module M = Ccr_obs.Metrics in
  let cfg = Async.{ k } in
  let reg = M.create () in
  let req = M.counter reg "msg.req"
  and ack = M.counter reg "msg.ack"
  and nack = M.counter reg "msg.nack"
  and data = M.counter reg "msg.data" in
  let occ = M.histogram reg "home_buffer_occupancy" in
  let meter =
    Async.
      {
        m_sent =
          (fun w ->
            match w with
            | Ccr_refine.Wire.Req m ->
              M.incr req;
              if m.Ccr_refine.Wire.m_payload <> [] then M.incr data
            | Ccr_refine.Wire.Ack -> M.incr ack
            | Ccr_refine.Wire.Nack -> M.incr nack);
        m_buf = (fun o -> M.observe occ o);
      }
  in
  let r =
    Explore.run ~max_mem_bytes:(mem_cap_mb * 1024 * 1024) ~max_time_s:time_cap
      Explore.
        {
          init = Async.initial prog cfg;
          succ = Async.successors ~meter prog cfg;
          encode = Async.encode;
          decode = Async.decode prog;
          canon = None;
          key_io = None;
        }
  in
  M.set
    (M.gauge reg "states_per_sec")
    (if r.Explore.time_s > 0. then
       float_of_int r.Explore.states /. r.Explore.time_s
     else 0.);
  (r, M.to_json (M.snapshot reg))

let cell (r : (_, _) Explore.stats) =
  match r.outcome with
  | Explore.Complete -> Fmt.str "%d/%.2f" r.states r.time_s
  | Explore.Limit _ -> Fmt.str "Unfinished (%d+/%.1fs)" r.states r.time_s
  | Explore.Violation _ -> "INVARIANT VIOLATED"
  | Explore.Deadlock _ -> "DEADLOCK"

let table3 () =
  section
    (Fmt.str
       "Table 3: states visited / time (s) for reachability analysis, %d MB \
        cap"
       mem_cap_mb);
  Fmt.pr "%-12s %-3s %-28s %-28s %-24s@." "Protocol" "N" "Asynchronous"
    "Rendezvous" "Paper (async | rdv)";
  let row name sys ~paper_async ~paper_rv n =
    let prog = Link.compile ~n sys in
    let rv = run_rv prog in
    let asy, asy_metrics = run_async_metered prog in
    record_row ~protocol:name ~n ~level:"rendezvous" ~jobs:1 rv;
    record_row ~metrics:asy_metrics ~protocol:name ~n ~level:"async" ~jobs:1
      asy;
    Fmt.pr "%-12s %-3d %-28s %-28s %-24s@." name n (cell asy) (cell rv)
      (Fmt.str "%s | %s" paper_async paper_rv)
  in
  let mig = Migratory.system () in
  row "Migratory" mig 2 ~paper_async:"23163/2.84" ~paper_rv:"54/0.1";
  row "Migratory" mig 4 ~paper_async:"Unfinished" ~paper_rv:"235/0.4";
  row "Migratory" mig
    (if fast then 5 else 8)
    ~paper_async:"Unfinished" ~paper_rv:"965/0.5";
  let inv = Invalidate.system in
  row "Invalidate" inv 2 ~paper_async:"193389/19.23" ~paper_rv:"546/0.6";
  row "Invalidate" inv
    (if fast then 3 else 4)
    ~paper_async:"Unfinished" ~paper_rv:"18686/2.3";
  row "Invalidate" inv
    (if fast then 4 else 6)
    ~paper_async:"Unfinished" ~paper_rv:"228334/18.4";
  Fmt.pr
    "@.(Absolute counts differ from SPIN's — different state encodings — \
     but the shape matches: the rendezvous column stays small while the \
     asynchronous column explodes and hits the cap.)@."

let table3_64 () =
  section "Table 3 follow-up: rendezvous migratory at large N (§5 claim)";
  List.iter
    (fun n ->
      let prog = Link.compile ~n (Migratory.system ()) in
      let r = run_rv prog in
      Fmt.pr "  N = %-3d : %s (mem ~ %.1f MB)@." n (cell r)
        (float_of_int r.mem_bytes /. 1048576.))
    (if fast then [ 16; 32 ] else [ 16; 32; 64 ]);
  Fmt.pr
    "@.(The paper model-checked the rendezvous migratory protocol for 64 \
     nodes in 32 MB while the asynchronous version exhausted 64 MB at two \
     nodes.)@."

(* ---- storage: the out-of-core store ------------------------------------- *)

let storage () =
  let module Vstore = Ccr_modelcheck.Vstore in
  section
    "Storage: the out-of-core store vs the Table 3 memory cliff";
  let sys_of prog =
    Explore.
      {
        init = Async.initial prog Async.{ k = 2 };
        succ = Async.successors prog Async.{ k = 2 };
        encode = Async.encode;
        decode = Async.decode prog;
        canon = None;
        key_io = None;
      }
  in
  Fmt.pr "%-26s %9s %10s %8s %9s %9s %7s %s@." "workload" "states" "trans"
    "time(s)" "resident" "raw" "ratio" "outcome";
  let row ~protocol ~n ~store:(sname, kind) ?cap_mb ?max_time prog =
    let sys = sys_of prog in
    let max_mem_bytes = Option.map (fun mb -> mb * 1024 * 1024) cap_mb in
    let max_time_s = Option.value max_time ~default:time_cap in
    let r = Explore.run ~store:kind ?max_mem_bytes ~max_time_s sys in
    record_row ~protocol ~n ~level:"async" ~jobs:1 ~store:sname r;
    let name =
      Fmt.str "%s n=%d %s%s" protocol n sname
        (match cap_mb with Some mb -> Fmt.str " @%dMB" mb | None -> "")
    in
    Fmt.pr "%-26s %9d %10d %8.2f %7.1fMB %7.1fMB %6.1fx %s@." name r.states
      r.transitions r.time_s
      (float_of_int r.mem_bytes /. 1048576.)
      (float_of_int r.raw_bytes /. 1048576.)
      (float_of_int r.raw_bytes /. float_of_int (max 1 r.mem_bytes))
      (outcome_tag r.outcome);
    r
  in
  (* The cliff itself: migratory n=5 under an 8 MB cap.  The plain store
     blows through it; disk completes with room to spare. *)
  let mig n = Link.compile ~n (Migratory.system ()) in
  let m5 = mig 5 in
  let mem5 =
    row ~protocol:"migratory" ~n:5 ~store:("mem", Vstore.Mem) ~cap_mb:8 m5
  in
  let disk5 =
    row ~protocol:"migratory" ~n:5 ~store:("disk", Vstore.Disk) ~cap_mb:8 m5
  in
  (* Out-of-core headline: one size past the cliff, uncapped wall-clock,
     still a few tens of MB resident. *)
  let m6 = mig 6 in
  ignore
    (row ~protocol:"migratory" ~n:6 ~store:("disk", Vstore.Disk)
       ~max_time:(max time_cap 60.0) m6);
  Fmt.pr
    "@.(The plain store stopped at %d states; disk finished all %d in the \
     same 8 MB — the Table 3 'Unfinished' wall is a storage artifact, not a \
     state-count one.)@."
    mem5.Explore.states disk5.Explore.states

(* ---- parallel exploration ----------------------------------------------- *)

let parallel () =
  section
    (Fmt.str
       "Parallel exploration: sequential vs %d domains on the Table 3 \
        asynchronous workloads (available cores: %d)"
       bench_jobs
       (Domain.recommended_domain_count ()));
  Fmt.pr "%-22s %10s %12s %10s %10s %8s %8s@." "workload" "states" "trans"
    "seq (s)" "par (s)" "speedup" "equal";
  let row protocol n prog =
    let name = Fmt.str "%s n=%d" protocol n in
    let sys =
      Explore.
        {
          init = Async.initial prog Async.{ k = 2 };
          succ = Async.successors prog Async.{ k = 2 };
          encode = Async.encode;
          decode = Async.decode prog;
          canon = None;
          key_io = None;
        }
    in
    let mem = mem_cap_mb * 1024 * 1024 in
    let seq = Explore.run ~max_mem_bytes:mem ~max_time_s:time_cap sys in
    let par =
      Explore.run ~jobs:bench_jobs ~max_mem_bytes:mem ~max_time_s:time_cap sys
    in
    record_row ~protocol ~n ~level:"async" ~jobs:1 seq;
    record_row ~protocol ~n ~level:"async" ~jobs:bench_jobs par;
    let equal = seq.states = par.states && seq.transitions = par.transitions in
    Fmt.pr "%-22s %10d %12d %10.3f %10.3f %7.2fx %8s@." name seq.states
      seq.transitions seq.time_s par.time_s
      (seq.time_s /. max 1e-9 par.time_s)
      (if equal then "yes" else "NO");
    if not equal then
      Fmt.pr "  MISMATCH: par %d states / %d transitions@." par.states
        par.transitions
  in
  let mig = Migratory.system () in
  row "migratory" 2 (Link.compile ~n:2 mig);
  let mig_big = if fast then 3 else 4 in
  row "migratory" mig_big (Link.compile ~n:mig_big mig);
  row "invalidate" 2 (Link.compile ~n:2 Invalidate.system);
  if not fast then row "invalidate" 3 (Link.compile ~n:3 Invalidate.system);
  Fmt.pr
    "@.(Counts must agree exactly with the sequential engine — that is the \
     determinism contract of Explore.run.  Wall-clock speedup depends \
     on the cores the container actually grants; on a single-core host the \
     parallel engine degrades to roughly sequential speed plus \
     synchronization overhead.)@."

(* ---- Figures ----------------------------------------------------------- *)

let figures () =
  section "Figure 1: communication-state shapes (examples of §2.4)";
  let open Dsl in
  let example_home =
    process "fig1a_home" ~vars:[ ("i", Value.Drid); ("j", Value.Drid) ]
      ~init:"s"
      [
        state "s"
          [
            recv_any "i" "m1" [] ~goto:"s";
            send_to (v "i") "m2" [] ~goto:"s";
            recv_any "j" "m3" [] ~goto:"s";
          ];
      ]
  in
  let example_active =
    process "fig1b_remote" ~vars:[] ~init:"s"
      [ state "s" [ send_home "m" [] ~goto:"s" ] ]
  in
  let example_passive =
    process "fig1c_remote" ~vars:[] ~init:"s"
      [
        state "s"
          [
            recv_home "m1" [] ~goto:"s";
            recv_home "m2" [] ~goto:"s";
            tau "tau" ~goto:"s";
          ];
      ]
  in
  Fmt.pr "%a@.%a@.%a@." Ccr_viz.Ascii.pp_process example_home
    Ccr_viz.Ascii.pp_process example_active Ccr_viz.Ascii.pp_process
    example_passive;
  let mig = Migratory.system () in
  section "Figures 2-3: rendezvous migratory protocol";
  Fmt.pr "%a@." Ccr_viz.Ascii.pp_system mig;
  section "Figures 4-5: refined (asynchronous) migratory protocol";
  let prog = Link.compile ~n:2 mig in
  Fmt.pr "%a@.%a@." Ccr_viz.Ascii.pp_automaton
    (Ccr_refine.Compile.home_automaton prog)
    Ccr_viz.Ascii.pp_automaton
    (Ccr_refine.Compile.remote_automaton prog);
  Fmt.pr
    "(request/reply pairs applied: %a — req/gr and inv/ID need two messages, \
     LR keeps its ack: exactly the dotted-edge discussion of §5)@."
    Fmt.(list ~sep:comma Reqrep.pp_pair)
    prog.pairs

(* ---- Tables 1-2 rule coverage ------------------------------------------ *)

let rule_coverage () =
  section "Tables 1-2: refinement-rule coverage over reachable executions";
  let coverage prog k =
    let cfg = Async.{ k } in
    let fired = Hashtbl.create 32 in
    let seen = Hashtbl.create 1024 in
    let q = Queue.create () in
    let push st =
      let key = Async.encode st in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Queue.push st q
      end
    in
    push (Async.initial prog cfg);
    while not (Queue.is_empty q) do
      let st = Queue.pop q in
      List.iter
        (fun ((l : Async.label), st') ->
          Hashtbl.replace fired l.rule ();
          push st')
        (Async.successors prog cfg st)
    done;
    fired
  in
  let tables =
    [
      ("mig n=3 k=2", coverage (Link.compile ~n:3 (Migratory.system ())) 2);
      ( "mig n=3 generic",
        coverage (Link.compile ~reqrep:false ~n:3 (Migratory.system ())) 2 );
      ("inv n=2 k=2", coverage (Link.compile ~n:2 Invalidate.system) 2);
      ("inv n=3 k=4", coverage (Link.compile ~n:3 Invalidate.system) 4);
    ]
  in
  Fmt.pr "%-18s" "rule";
  List.iter (fun (n, _) -> Fmt.pr " %-16s" n) tables;
  Fmt.pr "@.";
  List.iter
    (fun rule ->
      Fmt.pr "%-18s" (Async.rule_name rule);
      List.iter
        (fun (_, tbl) ->
          Fmt.pr " %-16s" (if Hashtbl.mem tbl rule then "fired" else "-"))
        tables;
      Fmt.pr "@.")
    Async.all_rules;
  Fmt.pr
    "@.(H-T2 needs an explicit nack of a home request: these protocols' \
     remotes always either match it or cross it with their own request \
     (implicit nack, H-T3).  H-T5 needs a satisfying foreign request at \
     exactly two free slots; the unit tests exercise both rows directly.)@."

(* ---- Eq. 1 -------------------------------------------------------------- *)

let eq1 () =
  section "Eq. 1 (§4): stuttering simulation of the rendezvous protocol";
  let check name prog =
    let v =
      Ccr_refine.Absmap.check_eq1
        ~max_states:(if fast then 20_000 else 200_000)
        prog Async.{ k = 2 }
    in
    Fmt.pr "  %-34s %a@." name Ccr_refine.Absmap.pp_verdict v
  in
  check "migratory n=2" (Link.compile ~n:2 (Migratory.system ()));
  check "migratory n=3" (Link.compile ~n:3 (Migratory.system ()));
  check "migratory n=2 (generic)"
    (Link.compile ~reqrep:false ~n:2 (Migratory.system ()));
  check "migratory n=2 (data)"
    (Link.compile ~n:2 (Migratory.system ~with_data:true ()));
  check "invalidate n=2" (Link.compile ~n:2 Invalidate.system);
  check "invalidate n=2 (generic)"
    (Link.compile ~reqrep:false ~n:2 Invalidate.system);
  check "lock n=3" (Link.compile ~n:3 Lock_server.system)

(* ---- message efficiency -------------------------------------------------- *)

let message_efficiency () =
  section
    "Message efficiency: request/ack/nack per completed rendezvous (§1's \
     quality measure; quantifies the §5 comparison the paper left open)";
  let steps = if fast then 20_000 else 200_000 in
  Fmt.pr "%-34s %8s %8s %8s %8s %10s %9s@." "protocol" "req" "ack" "nack"
    "rendezv" "msgs/rdv" "latency";
  let row ~protocol ~variant ~n display prog =
    let module M = Ccr_obs.Metrics in
    let reg = M.create () in
    let m = Sim.run ~metrics:reg ~steps prog Async.{ k = 2 } Sched.uniform in
    record_sim_row ~protocol ~variant ~n
      ~metrics:(M.to_json (M.snapshot reg))
      m;
    Fmt.pr "%-34s %8d %8d %8d %8d %10.2f %9.1f@." display m.Sim.reqs
      m.Sim.acks m.Sim.nacks m.Sim.rendezvous (Sim.per_rendezvous m)
      (Sim.mean_latency m)
  in
  List.iter
    (fun n ->
      row ~protocol:"migratory" ~variant:"refined" ~n
        (Fmt.str "migratory n=%d refined" n)
        (Link.compile ~n (Migratory.system ()));
      row ~protocol:"migratory" ~variant:"generic" ~n
        (Fmt.str "migratory n=%d generic (no 3.3)" n)
        (Link.compile ~reqrep:false ~n (Migratory.system ()));
      row ~protocol:"migratory" ~variant:"hand" ~n
        (Fmt.str "migratory n=%d hand (unacked LR)" n)
        (Migratory_hand.prog ~n ()))
    [ 2; 4; 8 ];
  row ~protocol:"invalidate" ~variant:"refined" ~n:4
    "invalidate n=4 refined"
    (Link.compile ~n:4 Invalidate.system);
  row ~protocol:"invalidate" ~variant:"generic" ~n:4 "invalidate n=4 generic"
    (Link.compile ~reqrep:false ~n:4 Invalidate.system);
  Fmt.pr
    "@.(Refined ~2 msgs/rendezvous vs ~3.5-4 generic: the §3.3 optimization \
     halves traffic.  The hand design saves only the LR ack — 'we believe \
     the loss of efficiency due to the extra ack is small'.  Latency is \
     mean scheduler steps from a remote's first request to its own \
     completion, so it also prices contention: the generic scheme's extra \
     round trips lengthen every transaction, while the unacked-LR variant \
     recycles relinquishers faster and makes requesters queue behind more \
     traffic.  The revocation chain req->inv->ID->gr dominates the \
     contended cases — the hop the paper's §8 future work, direct \
     remote-to-remote transfers, would remove.)@."

(* ---- fault model --------------------------------------------------------- *)

let faults_bench () =
  section
    "Fault model: the refinement without its §2.2 channel assumption \
     (vanilla) vs the timeout/retransmit/dedup hardening";
  let module F = Ccr_faults.Fault in
  let module I = Ccr_faults.Injected in
  let module P = Ccr_faults.Plan in
  let spec s =
    match F.parse s with Ok sp -> sp | Error m -> failwith m
  in
  let cfg = Async.{ k = 2 } in
  let n = 2 in
  (* Checker: what the fault budget costs in states, and which mode keeps
     liveness.  Vanilla typically stays coherent (safety) yet lets one
     drop starve a remote forever; hardened restores quiescence. *)
  Fmt.pr "model checker, budget drop=1@@ack, n=%d:@." n;
  Fmt.pr "  %-12s %-9s %9s %12s %-10s %s@." "protocol" "mode" "states"
    "transitions" "outcome" "liveness";
  let check_one name invariants prog mode =
    let sp = spec "drop=1@ack" in
    let sys =
      Explore.
        {
          init = I.initial sp prog cfg;
          succ = I.successors mode sp prog cfg;
          encode = I.encode;
          decode = I.decode prog;
          canon = None;
          key_io = None;
        }
    in
    let invariants = I.no_wedge :: List.map I.lift_invariant invariants in
    let r =
      Explore.run ~max_states:500_000 ~check_deadlock:true ~invariants sys
    in
    let mode_tag = match mode with I.Vanilla -> "vanilla" | I.Hardened -> "hardened" in
    let liveness =
      match r.Explore.outcome with
      | Explore.Complete ->
        let g = Ccr_modelcheck.Graph.build ~max_states:500_000 sys in
        if g.Ccr_modelcheck.Graph.truncated then "(truncated)"
        else
          let starved =
            List.filter
              (fun i ->
                Ccr_modelcheck.Graph.violates_ag_ef g
                  ~progress:(fun l ->
                    match l with
                    | I.Step al -> I.completes al && al.Async.actor = i
                    | I.Fault _ -> false)
                <> [])
              (List.init n (fun i -> i))
          in
          if starved = [] then "live"
          else
            Fmt.str "remote %s starvable"
              (String.concat "," (List.map string_of_int starved))
      | _ -> "-"
    in
    record_row ~protocol:name ~n
      ~level:(Fmt.str "async-faults-%s" mode_tag)
      ~jobs:1 r;
    Fmt.pr "  %-12s %-9s %9d %12d %-10s %s@." name mode_tag r.Explore.states
      r.Explore.transitions
      (outcome_tag r.Explore.outcome)
      liveness
  in
  List.iter
    (fun (name, invs, prog) ->
      check_one name invs prog I.Vanilla;
      check_one name invs prog I.Hardened)
    [
      (let p = Link.compile ~n (Migratory.system ()) in
       ("migratory", Migratory.async_invariants p, p));
      (let p = Link.compile ~n Invalidate.system in
       ("invalidate", Invalidate.async_invariants p, p));
      (let p = Link.compile ~n Lock_server.system in
       ("lock", Lock_server.async_invariants p, p));
    ];
  (* Simulator: the message-overhead price of riding out faults on the
     hardened transport, against the same workload fault-free. *)
  let steps = if fast then 20_000 else 100_000 in
  let prog = Link.compile ~n (Migratory.system ()) in
  Fmt.pr "@.simulator overhead (migratory n=%d, %d steps, seed 7):@." n steps;
  Fmt.pr "  %-26s %10s %10s %9s %9s %9s@." "variant" "messages" "rendezv"
    "msgs/rdv" "retrans" "absorbed";
  let sim_row display variant faults =
    let module M = Ccr_obs.Metrics in
    let reg = M.create () in
    let m = Sim.run ~seed:7 ~metrics:reg ?faults ~steps prog cfg Sched.uniform in
    record_sim_row ~protocol:"migratory" ~variant ~n
      ~metrics:(M.to_json (M.snapshot reg))
      m;
    Fmt.pr "  %-26s %10d %10d %9.2f %9d %9d@." display (Sim.messages m)
      m.Sim.rendezvous (Sim.per_rendezvous m)
      m.Sim.faults.F.f_retransmits m.Sim.faults.F.f_absorbed;
    m
  in
  let base = sim_row "fault-free" "faults-none" None in
  let sp = spec "drop=2,dup=2,delay=2" in
  let hard =
    sim_row "hardened, drop/dup/delay=2" "faults-hardened"
      (Some (I.Hardened, P.random ~n ~seed:7 sp))
  in
  Fmt.pr
    "@.(Hardened overhead: %+.2f%% messages per rendezvous over the \
     fault-free run — the retransmits and re-acks that buy survival.  The \
     vanilla transport is not in this table: under the same plan it \
     deadlocks, which ccr sim reports with the blocked configuration and \
     exit 2.)@."
    (100.
    *. ((Sim.per_rendezvous hard /. Sim.per_rendezvous base) -. 1.))

(* ---- buffers and fairness ------------------------------------------------ *)

let buffers_fairness () =
  section "Buffers and fairness (§2.5, §6)";
  let steps = if fast then 20_000 else 100_000 in
  let n = 6 in
  let prog = Link.compile ~n (Migratory.system ()) in
  Fmt.pr "nack rate vs home buffer capacity k (migratory n=%d, uniform):@." n;
  Fmt.pr "  %-4s %8s %8s %10s %12s@." "k" "nacks" "retrans" "rendezv"
    "nacks/rdv";
  List.iter
    (fun k ->
      let m = Sim.run ~steps prog Async.{ k } Sched.uniform in
      Fmt.pr "  %-4d %8d %8d %10d %12.3f@." k m.Sim.nacks
        m.Sim.retransmissions m.Sim.rendezvous
        (float_of_int m.Sim.nacks /. float_of_int (max 1 m.Sim.rendezvous)))
    [ 2; 3; 4; 6 ];
  Fmt.pr
    "@.starvation (§6): an adversarial scheduler can deny r0 forever while \
     the others progress (weak fairness — §2.5 guarantees only that SOME \
     remote advances):@.";
  let prog3 = Link.compile ~n:3 (Migratory.system ()) in
  List.iter
    (fun (name, sched) ->
      let m = Sim.run ~steps prog3 Async.{ k = 2 } sched in
      Fmt.pr "  %-12s per-remote completions: %s@." name
        (String.concat " "
           (Array.to_list (Array.map string_of_int m.Sim.per_remote))))
    [ ("uniform", Sched.uniform); ("starve-r0", Sched.starve 0) ];
  Fmt.pr
    "@.§6's sizing rule: per-remote progress needs home buffering for every \
     outstanding request.  For 64 nodes x 8 outstanding transactions, the \
     home needs %d buffer slots (+1 ack buffer) = 513, as the paper \
     computes; with the k = 2 scheme it needs just 2 per line.@."
    (64 * 8)

(* ---- forward progress ----------------------------------------------------- *)

let progress () =
  section
    "Forward progress (§2.5): from every reachable asynchronous state a \
     rendezvous can still complete (AG EF), and no deadlock exists";
  let check name prog k =
    let cfg = Async.{ k } in
    let g =
      Ccr_modelcheck.Graph.build
        ~max_states:(if fast then 30_000 else 300_000)
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
    let progress_label (l : Async.label) =
      match l.rule with
      | Async.H_C1 | Async.H_C1_silent | Async.R_C3_ack | Async.R_C3_silent
      | Async.R_repl_recv | Async.H_T1_repl ->
        true
      | _ -> false
    in
    let deadlocks = Ccr_modelcheck.Graph.deadlocks g in
    let bad = Ccr_modelcheck.Graph.violates_ag_ef g ~progress:progress_label in
    Fmt.pr "  %-28s %7d states%s: %d deadlocks, %d states losing progress@."
      name
      (Array.length g.states)
      (if g.truncated then " (truncated)" else "")
      (List.length deadlocks) (List.length bad)
  in
  check "migratory n=2 k=2" (Link.compile ~n:2 (Migratory.system ())) 2;
  check "migratory n=3 k=2" (Link.compile ~n:3 (Migratory.system ())) 2;
  check "migratory n=2 (generic)"
    (Link.compile ~reqrep:false ~n:2 (Migratory.system ()))
    2;
  check "invalidate n=2 k=2" (Link.compile ~n:2 Invalidate.system) 2;
  check "lock n=3 k=2" (Link.compile ~n:3 Lock_server.system) 2

(* ---- extension: symmetry reduction ---------------------------------------- *)

let symmetry () =
  let module Sym = Ccr_refine.Symmetry in
  section
    "Extension (beyond the paper): symmetry reduction over remote \
     identities — fast canonicalization (signature sort + tie refinement)";
  (* Quotient runners: canonical key in the visited set, concrete states
     explored (the [canon] hook of [Explore]); fallbacks counted per run. *)
  let canon_of stats key =
    Some
      Explore.
        {
          canon_key = key;
          canon_fresh = None;
          canon_fallbacks = (fun () -> Sym.fallbacks stats);
        }
  in
  let rv_q ?(brute = false) prog =
    let stats = Sym.make_stats ~timing:true () in
    let key =
      if brute then Sym.canonical_rv ~stats prog
      else Sym.canonical_rv_fast ~stats prog
    in
    let r =
      Explore.run ~max_mem_bytes:(mem_cap_mb * 1024 * 1024)
        ~max_time_s:time_cap
        Explore.
          {
            init = Ccr_semantics.Rendezvous.initial prog;
            succ = Ccr_semantics.Rendezvous.successors prog;
            encode = Ccr_semantics.Rendezvous.encode;
            decode = Ccr_semantics.Rendezvous.decode prog;
            canon = canon_of stats key;
            key_io = None;
          }
    in
    (r, stats)
  in
  let as_q ?(brute = false) prog =
    let cfg = Async.{ k = 2 } in
    let stats = Sym.make_stats ~timing:true () in
    let sys =
      if brute then
        Explore.
          {
            init = Async.initial prog cfg;
            succ = Async.successors prog cfg;
            encode = Async.encode;
            decode = Async.decode prog;
            canon = canon_of stats (Sym.canonical_async ~stats prog);
            key_io = None;
          }
      else
        let t = Table.create prog cfg in
        Explore.
          {
            init = Async.initial prog cfg;
            succ = Table.succ t;
            encode = Table.encode t;
            decode = Table.decode t;
            canon = canon_of stats (Table.canonical ~stats t);
            key_io = None;
          }
    in
    let r =
      Explore.run ~max_mem_bytes:(mem_cap_mb * 1024 * 1024)
        ~max_time_s:time_cap sys
    in
    (r, stats)
  in
  let record ~protocol ~n ~level ((r : (_, _) Explore.stats), stats) =
    record_row ~protocol ~n ~level ~jobs:1
      ~metrics:
        (Fmt.str
           {|{"canon_calls": %d, "canon_fallbacks": %d, "canon_seconds": %.6f}|}
           (Sym.calls stats) (Sym.fallbacks stats) (Sym.canon_seconds stats))
      r;
    (r, stats)
  in
  let factor exact (q : (_, _) Explore.stats) =
    match (exact.Explore.outcome, q.Explore.outcome) with
    | Explore.Complete, Explore.Complete ->
      Fmt.str "%.1fx" (float_of_int exact.Explore.states /. float_of_int q.states)
    | _ -> "-"
  in
  (* Part 1 — the fast canonicalizer against the brute-force oracle, on
     sizes where n! re-encodes are still affordable.  "agree" asserts the
     two quotients have identical state counts (they provably induce the
     same partition; this is the bench re-checking it). *)
  Fmt.pr "%-22s %12s %14s %7s %14s %6s@." "system" "exact" "fast quotient"
    "factor" "brute oracle" "agree";
  let oracle name exact ((q, _) : _ * Sym.stats) (b, _) =
    Fmt.pr "%-22s %12s %14s %7s %14s %6s@." name (cell exact) (cell q)
      (factor exact q) (cell b)
      (if b.Explore.states = q.Explore.states then "yes" else "NO")
  in
  let mig = Migratory.system () in
  let inv = Invalidate.system in
  let oracle_rv name sys n =
    let prog = Link.compile ~n sys in
    let exact = run_rv prog in
    record_row ~protocol:name ~n ~level:"rendezvous" ~jobs:1 exact;
    let q = record ~protocol:name ~n ~level:"rendezvous-quotient" (rv_q prog) in
    oracle
      (Fmt.str "%s rdv n=%d" name n)
      exact q (rv_q ~brute:true prog)
  and oracle_as name sys n =
    let prog = Link.compile ~n sys in
    let exact = run_async prog in
    record_row ~protocol:name ~n ~level:"async" ~jobs:1 exact;
    let q = record ~protocol:name ~n ~level:"async-quotient" (as_q prog) in
    oracle
      (Fmt.str "%s async n=%d" name n)
      exact q (as_q ~brute:true prog)
  in
  List.iter
    (fun n -> oracle_rv "migratory" mig n)
    (if fast then [ 3; 4 ] else [ 3; 4; 5 ]);
  List.iter (fun n -> oracle_rv "invalidate" inv n) (if fast then [ 3 ] else [ 3; 4 ]);
  List.iter
    (fun n -> oracle_as "migratory" mig n)
    (if fast then [ 2; 3 ] else [ 2; 3; 4 ]);
  List.iter (fun n -> oracle_as "invalidate" inv n) (if fast then [ 3 ] else [ 3; 4 ]);
  (* Part 2 — past the old n! cliff.  The brute canonicalizer was unusable
     beyond max_fact = 6 remotes; signature sorting makes n = 7+ routine.
     Exact exploration of the async systems is shown hitting the resource
     cap where it does — the quotient completes.  A non-zero fb column
     means that many states fell back to a non-canonical key (partial
     reduction, counts a sound upper bound). *)
  Fmt.pr "@.%-22s %22s %14s %7s %4s %7s@." "system" "exact" "fast quotient"
    "factor" "fb" "canon%";
  let cliff name exact (q, qs) =
    Fmt.pr "%-22s %22s %14s %7s %4d %6.0f%%@." name (cell exact) (cell q)
      (factor exact q) (Sym.fallbacks qs)
      (if q.Explore.time_s > 0. then
         100. *. Sym.canon_seconds qs /. q.Explore.time_s
       else 0.)
  in
  let cliff_rv n =
    let prog = Link.compile ~n mig in
    cliff
      (Fmt.str "migratory rdv n=%d" n)
      (run_rv prog)
      (record ~protocol:"migratory" ~n ~level:"rendezvous-quotient" (rv_q prog))
  and cliff_as n =
    let prog = Link.compile ~n mig in
    cliff
      (Fmt.str "migratory async n=%d" n)
      (run_async prog)
      (record ~protocol:"migratory" ~n ~level:"async-quotient" (as_q prog))
  in
  List.iter cliff_rv (if fast then [ 7 ] else [ 7; 8 ]);
  List.iter cliff_as (if fast then [ 6 ] else [ 6; 7 ]);
  Fmt.pr
    "@.(The factor approaches n! where remote identities are fully \
     interchangeable.  1997 SPIN had no symmetry reduction; with it, the \
     asynchronous protocols regain several remotes before the Table 3 \
     wall.)@."

(* ---- library breadth ------------------------------------------------------ *)

let breadth () =
  section
    "Protocol library: every shipped protocol, derived and verified the \
     same way (n = 2, k = 2)";
  Fmt.pr "%-16s %10s %10s %8s %8s %-30s@." "protocol" "rdv states"
    "async" "eq1" "inv" "request/reply pairs";
  List.iter
    (fun (e : Registry.t) ->
      let prog = e.Registry.instantiate ~reqrep:true ~n:2 in
      let rv =
        match e.Registry.system with
        | None -> "-"
        | Some _ -> string_of_int (run_rv prog).states
      in
      let asy =
        Explore.run ~check_deadlock:true
          ~invariants:(e.Registry.async_invariants prog)
          Explore.
            {
              init = Async.initial prog Async.{ k = 2 };
              succ = Async.successors prog Async.{ k = 2 };
              encode = Async.encode;
              decode = Async.decode prog;
              canon = None;
              key_io = None;
            }
      in
      let eq1 =
        if e.Registry.system = None then "n/a"
        else if
          (Ccr_refine.Absmap.check_eq1 ~max_states:300_000 prog
             Async.{ k = 2 })
            .ok
        then "OK"
        else "FAIL"
      in
      Fmt.pr "%-16s %10s %10d %8s %8s %-30s@." e.name rv asy.states eq1
        (match asy.outcome with
        | Explore.Complete -> "hold"
        | _ -> "FAIL")
        (String.concat ", "
           (List.map
              (fun (p : Reqrep.pair) -> p.req ^ "/" ^ p.repl)
              prog.pairs)))
    Registry.all

(* ---- journal / provenance overhead ---------------------------------------- *)

(* The observability layer's pitch is that recording provenance (8 bytes
   per state) and a run journal costs almost nothing next to the
   exploration itself: target < 3% wall-clock on invalidate async n=4.
   Best-of-3 on both sides to keep scheduler noise out of the ratio. *)
let journal_overhead () =
  section "Journal & provenance overhead (invalidate, async, n=4)";
  let module Prov = Ccr_modelcheck.Vstore.Prov in
  let module J = Ccr_obs.Journal in
  let prog = Link.compile ~n:4 Invalidate.system in
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
  let best f =
    let rec go best n =
      if n = 0 then best
      else
        let r = f () in
        go (if r.Explore.time_s < best.Explore.time_s then r else best)
          (n - 1)
    in
    go (f ()) 2
  in
  let plain = best (fun () -> Explore.run ~max_time_s:time_cap sys) in
  let jbytes = ref 0 and pbytes = ref 0 in
  let journaled =
    best (fun () ->
        let prov = Prov.create () in
        let j = J.create () in
        J.event j "config"
          [ ("cmd", J.Str "bench"); ("protocol", J.Str "invalidate") ];
        let on_level ~depth ~states =
          J.event j "level" [ ("depth", J.Int depth); ("states", J.Int states) ]
        in
        let r = Explore.run ~max_time_s:time_cap ~prov ~on_level sys in
        J.event j "end" [ ("states", J.Int r.Explore.states) ];
        jbytes := J.bytes j;
        pbytes := Prov.bytes prov;
        r)
  in
  let overhead =
    if plain.Explore.time_s > 0. then
      (journaled.Explore.time_s -. plain.Explore.time_s)
      /. plain.Explore.time_s *. 100.
    else 0.
  in
  Fmt.pr "  %-28s %10s %10s %10s@." "" "time" "journal" "provenance";
  Fmt.pr "  %-28s %9.3fs %10s %10s@." "plain exploration"
    plain.Explore.time_s "-" "-";
  Fmt.pr "  %-28s %9.3fs %9db %9db@." "journal + provenance"
    journaled.Explore.time_s !jbytes !pbytes;
  Fmt.pr "  journal overhead: %+.1f%% wall-clock (target < 3%%)@." overhead;
  record_row ~protocol:"invalidate" ~n:4 ~level:"async" ~jobs:1 plain;
  record_row ~protocol:"invalidate" ~n:4 ~level:"async" ~jobs:1
    ~journal_bytes:!jbytes ~provenance_bytes:!pbytes journaled

(* ---- checkpoint overhead (§6h) ------------------------------------------ *)

let checkpoint_overhead () =
  section "Checkpoint overhead (invalidate, async, n=4)";
  let module Ckpt = Ccr_modelcheck.Ckpt in
  let module Sym = Ccr_refine.Symmetry in
  let module J = Ccr_obs.Journal in
  let prog = Link.compile ~n:4 Invalidate.system in
  let cfg = Async.{ k = 2 } in
  let plain_sys =
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
  (* the CLI-shaped system: [ccr check] canonicalizes by default, so the
     acceptance configuration explores the symmetry quotient *)
  let sym_sys () =
    let stats = Sym.make_stats () in
    {
      plain_sys with
      Explore.canon =
        Some
          Explore.
            {
              canon_key = Table.canonical ~stats (Table.create prog cfg);
              canon_fresh = None;
              canon_fallbacks = (fun () -> Sym.fallbacks stats);
            };
    }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "ccr-bench-ckpt-%d" (Unix.getpid ()))
  in
  let cleanup () =
    (try Sys.remove (Ckpt.file dir) with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  let manifest = [ ("spec_hash", J.Str "bench") ] in
  let ck_bytes = ref 0 and writes = ref 0 in
  let ckpt_every every =
    ck_bytes := 0;
    writes := 0;
    Explore.
      {
        ck_resume = None;
        ck_save =
          Ckpt.saver ~dir ~manifest ~prov:None ~every:(Ckpt.E_states every)
            ~on_save:(fun ~bytes ~states:_ ~depth:_ ->
              ck_bytes := bytes;
              incr writes)
            ();
      }
  in
  (* interleave plain/checkpointed samples so clock drift and GC
     warm-up hit both sides equally, and keep the fastest of each —
     with the write counters of the kept checkpointed run, not of
     whichever ran last *)
  let paired ~samples fp fc =
    let tp = ref 0. and tc = ref 0. in
    let bp =
      ref
        (let r = fp () in
         tp := r.Explore.time_s;
         r)
    in
    let bc =
      ref
        (let r = fc () in
         tc := r.Explore.time_s;
         (r, !ck_bytes, !writes))
    in
    let take_p () =
      let p = fp () in
      tp := !tp +. p.Explore.time_s;
      if p.Explore.time_s < !bp.Explore.time_s then bp := p
    and take_c () =
      let c = fc () in
      tc := !tc +. c.Explore.time_s;
      let b, _, _ = !bc in
      if c.Explore.time_s < b.Explore.time_s then bc := (c, !ck_bytes, !writes)
    in
    for i = 2 to samples do
      (* alternate which side goes first so monotone drift (GC heap
         growth, frequency scaling) cannot favour one side *)
      if i land 1 = 0 then (
        take_c ();
        take_p ())
      else (
        take_p ();
        take_c ())
    done;
    let c, bytes, ws = !bc in
    ck_bytes := bytes;
    writes := ws;
    (* the table shows the fastest runs; the overhead ratio uses the
       summed interleaved samples — a paired mean is far less exposed to
       scheduler noise than a ratio of two single (best) observations *)
    (!bp, c, (!tc -. !tp) /. !tp *. 100.)
  in
  let row name plain ckptd =
    let overhead =
      if plain > 0. then (ckptd -. plain) /. plain *. 100. else 0.
    in
    Fmt.pr "  %-34s %9.3fs %9.3fs %+6.1f%% %9db %3d@." name plain ckptd
      overhead !ck_bytes !writes;
    overhead
  in
  Fmt.pr "  %-34s %10s %10s %7s %10s %3s@." "" "plain" "ckpt" "ovh" "bytes"
    "writes";
  (* Acceptance configuration: as [ccr check invalidate -n 4 --level
     async --checkpoint DIR --checkpoint-every 100000] — the quotient
     stays under the period, so no mid-run write ever falls due and a
     completed run skips the final one. *)
  let p_sym, c_sym, sym_ovh =
    paired ~samples:5
      (fun () -> Explore.run ~max_time_s:time_cap (sym_sys ()))
      (fun () ->
        Explore.run ~max_time_s:time_cap ~ckpt:(ckpt_every 100_000)
          (sym_sys ()))
  in
  ignore
    (row "symmetry quotient, every=100k" p_sym.Explore.time_s
       c_sym.Explore.time_s);
  Fmt.pr "  checkpoint overhead: %+.1f%% wall-clock (target < 3%%)@." sym_ovh;
  record_row ~protocol:"invalidate" ~n:4 ~level:"async" ~jobs:1
    ~checkpoint_bytes:!ck_bytes c_sym;
  (* Forced writes: the full (unquotiented) space crosses the period
     four times, so this prices the actual serialize+fsync path — the
     visited set dominates each write. *)
  let p_full, c_full, _ =
    paired ~samples:3
      (fun () -> Explore.run ~max_time_s:time_cap plain_sys)
      (fun () ->
        Explore.run ~max_time_s:time_cap ~ckpt:(ckpt_every 100_000)
          plain_sys)
  in
  let full_bytes = !ck_bytes and full_writes = !writes in
  ignore
    (row "full space, every=100k (stress)" p_full.Explore.time_s
       c_full.Explore.time_s);
  if full_writes > 0 then
    Fmt.pr "  per write: %.0f ms for %.1f MB of visited set@."
      ((c_full.Explore.time_s -. p_full.Explore.time_s)
      /. float_of_int full_writes *. 1000.)
      (float_of_int full_bytes /. 1048576.);
  record_row ~protocol:"invalidate" ~n:4 ~level:"async" ~jobs:1
    ~checkpoint_bytes:full_bytes c_full;
  (* One interrupted-then-resumed pass, for the resume-count row: cap
     the first leg halfway, reload, finish, and require the pin. *)
  let resumed =
    let cap = max 1 (p_full.Explore.states / 2) in
    ignore
      (Explore.run ~max_states:cap
         ~ckpt:
           Explore.
             {
               ck_resume = None;
               ck_save = Ckpt.saver ~dir ~manifest ~prov:None ();
             }
         plain_sys);
    match Ckpt.load ~dir with
    | Error msg -> failwith ("bench checkpoint refused: " ^ msg)
    | Ok l ->
      Explore.run ~max_time_s:time_cap ~ckpt:(Ckpt.resume l) plain_sys
  in
  cleanup ();
  Fmt.pr "  interrupted at half, resumed: %d states, %d transitions %s@."
    resumed.Explore.states resumed.Explore.transitions
    (if
       resumed.Explore.states = p_full.Explore.states
       && resumed.Explore.transitions = p_full.Explore.transitions
     then "(= uninterrupted)"
     else Fmt.str "(MISMATCH: plain %d, %d)" p_full.Explore.states
         p_full.Explore.transitions);
  record_row ~protocol:"invalidate" ~n:4 ~level:"async" ~jobs:1 ~resumes:1
    resumed

(* ---- Engine throughput (§6g) ------------------------------------------- *)

module Runtime = Ccr_runtime.Runtime
module Engine = Ccr_runtime.Engine

let record_throughput_row ~protocol ~n ~domains (s : Runtime.stats) =
  if bench_json <> None then
    json_rows :=
      Fmt.str
        {|  {"protocol": %S, "n": %d, "level": "throughput", "domains": %d, "messages": %d, "steps": %d, "rendezvous": %d, "time_s": %.6f, "msgs_per_sec": %.1f, "quiescent": %b}|}
        (String.lowercase_ascii protocol)
        n domains s.Runtime.messages s.Runtime.steps s.Runtime.rendezvous
        s.Runtime.wall_s
        (if s.Runtime.wall_s > 0.0 then
           float_of_int s.Runtime.messages /. s.Runtime.wall_s
         else 0.0)
        s.Runtime.quiescent
      :: !json_rows

(* Each protocol is driven to a fixed per-run message budget rather than
   a step count: a short calibration run measures the protocol's
   messages-per-cycle, then the cycle budget is sized so every row moves
   ~the same number of wire messages and msgs/sec is wall-clock
   normalized.  The -j 2 row shards the nodes over two domains. *)
let throughput () =
  section "Engine throughput: loop engine (msgs/sec)";
  let n = 4 in
  let cfg = Async.{ k = 2 } in
  let target_msgs = if fast then 40_000 else 400_000 in
  Fmt.pr "fixed message budget ~%d msgs/run, n=%d@.@." target_msgs n;
  Fmt.pr "  %-12s %-8s %9s %9s %10s %12s@." "protocol" "domains" "msgs" "rdv"
    "time" "msgs/sec";
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> ()
      | Some (e : Registry.t) ->
        let prog = e.Registry.instantiate ~reqrep:true ~n in
        let invariants = e.Registry.async_invariants prog in
        let cal =
          Engine.run ~seed:1 ~deadline_s:30.0 ~budget:32 ~invariants prog cfg
        in
        let per_cycle =
          float_of_int cal.Runtime.messages
          /. float_of_int (max 1 cal.Runtime.rendezvous)
        in
        let budget =
          max 8
            (int_of_float
               (float_of_int target_msgs /. (per_cycle *. float_of_int n)))
        in
        let report domains =
          let s =
            Engine.run ~seed:1 ~deadline_s:120.0 ~domains ~budget ~invariants
              prog cfg
          in
          let rate =
            if s.Runtime.wall_s > 0.0 then
              float_of_int s.Runtime.messages /. s.Runtime.wall_s
            else 0.0
          in
          let ok =
            s.Runtime.quiescent
            && s.Runtime.invariant_failures = []
            && s.Runtime.protocol_errors = []
          in
          Fmt.pr "  %-12s %-8d %9d %9d %8.3fs %12.0f%s@." name domains
            s.Runtime.messages s.Runtime.rendezvous s.Runtime.wall_s rate
            (if ok then "" else "  [NOT COHERENT]");
          record_throughput_row ~protocol:name ~n ~domains s
        in
        report 1;
        if not fast then report 2)
    [ "lock"; "invalidate"; "migratory"; "mesi" ]

(* ---- Bechamel micro-benchmarks ------------------------------------------- *)

let microbench () =
  section "Microbenchmarks (Bechamel): one kernel per experiment";
  let open Bechamel in
  let mig2 = Link.compile ~n:2 (Migratory.system ()) in
  let mig4 = Link.compile ~n:4 (Migratory.system ()) in
  let cfg2 = Async.{ k = 2 } in
  let rv_init = Ccr_semantics.Rendezvous.initial mig4 in
  let as_init = Async.initial mig4 cfg2 in
  let tests =
    Test.make_grouped ~name:"ccrefine"
      [
        (* Table 3 kernels *)
        Test.make ~name:"table3/rendezvous-successors"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Ccr_semantics.Rendezvous.successors mig4 rv_init)));
        Test.make ~name:"table3/async-successors"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Async.successors mig4 cfg2 as_init)));
        Test.make ~name:"table3/async-encode"
          (Staged.stage (fun () -> Sys.opaque_identity (Async.encode as_init)));
        Test.make ~name:"table3/reachability-mig-rv-n2"
          (Staged.stage (fun () -> Sys.opaque_identity (run_rv mig2)));
        (* figures *)
        Test.make ~name:"figures/compile-automata"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 ( Ccr_refine.Compile.home_automaton mig2,
                   Ccr_refine.Compile.remote_automaton mig2 )));
        (* Eq. 1 *)
        Test.make ~name:"eq1/abs"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Ccr_refine.Absmap.abs mig4 as_init)));
        (* message efficiency *)
        Test.make ~name:"msg/sim-1000-steps"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Sim.run ~steps:1000 mig2 cfg2 Sched.uniform)));
        (* refinement/link *)
        Test.make ~name:"link/compile-migratory-n4"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Link.compile ~n:4 (Migratory.system ()))));
      ]
  in
  let benchmark_cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if fast then 0.2 else 1.0))
      ~kde:None ()
  in
  let raw =
    Benchmark.all benchmark_cfg [ Toolkit.Instance.monotonic_clock ] tests
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "%-44s %14s %8s@." "kernel" "ns/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Fmt.str "%14.1f" e
        | _ -> Fmt.str "%14s" "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "%8.4f" r
        | None -> Fmt.str "%8s" "-"
      in
      Fmt.pr "%-44s %s %s@." name est r2)
    rows

let () =
  Fmt.pr "ccrefine benchmark harness (%s mode)@."
    (if fast then "fast" else "full");
  figures ();
  table3 ();
  table3_64 ();
  storage ();
  parallel ();
  rule_coverage ();
  eq1 ();
  message_efficiency ();
  faults_bench ();
  buffers_fairness ();
  progress ();
  symmetry ();
  breadth ();
  journal_overhead ();
  checkpoint_overhead ();
  throughput ();
  microbench ();
  write_json ();
  Fmt.pr "@.done.@."
