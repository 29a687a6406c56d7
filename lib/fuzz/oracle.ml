open Ccr_core
module Explore = Ccr_modelcheck.Explore
module Vstore = Ccr_modelcheck.Vstore
module Ckpt = Ccr_modelcheck.Ckpt
module Async = Ccr_refine.Async
module Absmap = Ccr_refine.Absmap
module Sym = Ccr_refine.Symmetry
module Rendezvous = Ccr_semantics.Rendezvous
module Fault = Ccr_faults.Fault
module Injected = Ccr_faults.Injected
module Engine = Ccr_runtime.Engine
module Runtime = Ccr_runtime.Runtime
module J = Ccr_obs.Journal
module Sapi = Ccr_serve.Api
module Sdaemon = Ccr_serve.Daemon
module Shttp = Ccr_serve.Http

type name =
  | Validate
  | Roundtrip
  | Rv
  | Async_explore
  | Eq1
  | Symmetry
  | Par
  | Faults
  | Store
  | Engine
  | Resume
  | Serve

let all =
  [
    Validate;
    Roundtrip;
    Rv;
    Async_explore;
    Eq1;
    Symmetry;
    Par;
    Faults;
    Store;
    Engine;
    Resume;
    Serve;
  ]

let name_to_string = function
  | Validate -> "validate"
  | Roundtrip -> "roundtrip"
  | Rv -> "rv-explore"
  | Async_explore -> "async-explore"
  | Eq1 -> "eq1"
  | Symmetry -> "symmetry"
  | Par -> "par"
  | Faults -> "faults"
  | Store -> "store"
  | Engine -> "engine"
  | Resume -> "resume"
  | Serve -> "serve"

let name_of_string s =
  match List.find_opt (fun o -> name_to_string o = s) all with
  | Some o -> Ok o
  | None ->
    Error
      (Fmt.str "unknown oracle %S (known: %s)" s
         (String.concat ", " (List.map name_to_string all)))

type outcome = Pass | Fail of string

type result = { oracle : name; outcome : outcome }

(* ---- rule coverage ------------------------------------------------------- *)

let n_rules = List.length Async.all_rules

let rule_index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i r -> Hashtbl.add tbl r i) Async.all_rules;
  fun r -> Hashtbl.find tbl r

(* ---- shared per-spec context --------------------------------------------- *)

(* The battery shares the compiled program and the (rule-counting)
   asynchronous exploration across oracles; lazies are materialized as
   results so a failing stage reports identically however often it is
   consulted. *)
type ctx = {
  spec : Gen.spec;
  max_states : int;
  prog : (Prog.t, exn) Result.t Lazy.t;
  async_stats :
    ((Async.state, Async.label) Explore.stats, exn) Result.t Lazy.t;
  async_codec : string option ref;
      (** the first key-codec break the shared exploration met *)
}

let capture f = try Ok (f ()) with e -> Error e

(* The key codec on every state an exploration generates:
   [decode (encode st) = st], and the decoded state encodes back to the
   same key.  The first break is kept in [bad]; the exploration runs on. *)
let codec_checked bad (sys : (_, _) Explore.system) =
  let check st =
    if !bad = None then begin
      let key = sys.Explore.encode st in
      match sys.Explore.decode key with
      | st' ->
        if st' <> st || sys.Explore.encode st' <> key then
          bad := Some (Fmt.str "decode does not invert encode on key %S" key)
      | exception Invalid_argument m ->
        bad := Some ("decode refused an encoded state: " ^ m)
    end
  in
  check sys.Explore.init;
  {
    sys with
    Explore.succ =
      (fun st ->
        let outs = sys.Explore.succ st in
        List.iter (fun (_, st') -> check st') outs;
        outs);
  }

(* Parent-spliced keys on every generated successor: [Async.encode]
   right after the explorer decoded the parent, and again after decoding
   an unrelated key (a miss), must both equal [encode_perm] under the
   identity, which never splices. *)
let splice_checked bad (prog : Prog.t) (sys : (Async.state, _) Explore.system)
    =
  let id = Array.init prog.n Fun.id in
  let full st = Async.encode_perm ~p:id ~inv:id st in
  let other = full sys.Explore.init in
  {
    sys with
    Explore.succ =
      (fun st ->
        let outs = sys.Explore.succ st in
        if !bad = None then begin
          let spliced = List.map (fun (_, st') -> Async.encode st') outs in
          ignore (Async.decode prog other);
          List.iter2
            (fun (_, st') key ->
              let want = full st' in
              if !bad = None && (key <> want || Async.encode st' <> want) then
                bad :=
                  Some
                    (Fmt.str "a parent-spliced key differs from the full \
                              encoding %S" want))
            outs spliced
        end;
        outs);
  }

let codec_verdict bad outcome =
  match !bad with Some m -> Fail m | None -> outcome

let async_sys prog cfg =
  Explore.
    {
      init = Async.initial prog cfg;
      succ = Async.successors prog cfg;
      encode = Async.encode;
      decode = Async.decode prog;
      canon = None;
    }

let make_ctx ?rules ~max_states spec =
  let prog = lazy (capture (fun () -> Gen.compile spec)) in
  let async_codec = ref None in
  let async_stats =
    lazy
      (match Lazy.force prog with
      | Error e -> Error e
      | Ok p ->
        capture (fun () ->
            let cfg = Async.{ k = spec.Gen.k } in
            let base =
              codec_checked async_codec
                (splice_checked async_codec p (async_sys p cfg))
            in
            let succ =
              match rules with
              | None -> base.Explore.succ
              | Some arr ->
                fun st ->
                  let outs = base.Explore.succ st in
                  List.iter
                    (fun ((l : Async.label), _) ->
                      let i = rule_index l.Async.rule in
                      arr.(i) <- arr.(i) + 1)
                    outs;
                  outs
            in
            Explore.run ~max_states ~check_deadlock:true
              { base with Explore.succ }))
  in
  { spec; max_states; prog; async_stats; async_codec }

(* ---- the oracles --------------------------------------------------------- *)

let exn_msg e =
  match e with
  | Async.Protocol_error m -> "Protocol_error: " ^ m
  | Invalid_argument m -> "Invalid_argument: " ^ m
  | e -> Printexc.to_string e

let explored_ok what (r : (_, _) Explore.stats) pp_state =
  match r.Explore.outcome with
  | Explore.Complete | Explore.Limit Explore.L_states -> Pass
  | Explore.Limit l ->
    Fail
      (Fmt.str "%s stopped at an unexpected %s limit" what
         (match l with
         | Explore.L_memory -> "memory"
         | Explore.L_time -> "time"
         | Explore.L_interrupt -> "interrupt"
         | Explore.L_states -> "state"))
  | Explore.Violation { invariant; state } ->
    Fail
      (Fmt.str "%s violated %s after %d states:@ %a" what invariant
         r.Explore.states pp_state state)
  | Explore.Deadlock st ->
    Fail
      (Fmt.str "%s deadlocked after %d states:@ %a" what r.Explore.states
         pp_state st)

let o_validate ctx =
  match Validate.check (Gen.build ctx.spec) with
  | Ok _ -> Pass
  | Error es ->
    Fail (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Validate.pp_error) es)

let o_roundtrip ctx =
  let sys = Gen.build ctx.spec in
  let printed = Parse.to_string sys in
  match Parse.system printed with
  | sys' ->
    if sys' = sys then Pass
    else Fail "print/parse round-trip changed the system structurally"
  | exception e ->
    Fail (Fmt.str "printed system does not re-parse: %a" Parse.pp_error e)

let o_rv ctx =
  match Lazy.force ctx.prog with
  | Error e -> Fail (exn_msg e)
  | Ok prog ->
    let bad = ref None in
    let r =
      Explore.run ~max_states:ctx.max_states ~check_deadlock:true
        (codec_checked bad
           Explore.
             {
               init = Rendezvous.initial prog;
               succ = Rendezvous.successors prog;
               encode = Rendezvous.encode;
               decode = Rendezvous.decode prog;
               canon = None;
             })
    in
    codec_verdict bad
      (explored_ok "rendezvous exploration" r (Rendezvous.pp_state prog))

let o_async ctx =
  match (Lazy.force ctx.prog, Lazy.force ctx.async_stats) with
  | Error e, _ | _, Error e -> Fail (exn_msg e)
  | Ok prog, Ok r ->
    codec_verdict ctx.async_codec
      (explored_ok "async exploration" r (Async.pp_state prog))

let o_eq1 ctx =
  match Lazy.force ctx.prog with
  | Error e -> Fail (exn_msg e)
  | Ok prog ->
    let v =
      Absmap.check_eq1 ~max_states:ctx.max_states prog
        Async.{ k = ctx.spec.Gen.k }
    in
    if v.Absmap.ok then Pass
    else
      Fail
        (match v.Absmap.failure with
        | Some f ->
          Fmt.str "Eq. 1 violated by %a after %d states" Async.pp_label
            f.Absmap.label v.Absmap.states
        | None -> "Eq. 1 violated")

let o_symmetry ctx =
  match (Lazy.force ctx.prog, Lazy.force ctx.async_stats) with
  | Error e, _ | _, Error e -> Fail (exn_msg e)
  | Ok prog, Ok full ->
    let cfg = Async.{ k = ctx.spec.Gen.k } in
    let quotient canon_key stats =
      Explore.run ~max_states:ctx.max_states
        {
          (async_sys prog cfg) with
          Explore.canon =
            Some
              Explore.
                {
                  canon_key;
                  canon_fresh = None;
                  canon_fallbacks = (fun () -> Sym.fallbacks stats);
                };
        }
    in
    let st_fast = Sym.make_stats () and st_brute = Sym.make_stats () in
    let fast = quotient (Sym.canonical_async_fast ~stats:st_fast prog) st_fast in
    let brute = quotient (Sym.canonical_async ~stats:st_brute prog) st_brute in
    let complete (r : (_, _) Explore.stats) =
      r.Explore.outcome = Explore.Complete
    in
    if
      fast.Explore.canon_fallbacks > 0 || brute.Explore.canon_fallbacks > 0
    then Pass (* counted fallback: the two partitions are incomparable *)
    else if not (complete fast && complete brute) then Pass
    else if
      fast.Explore.states <> brute.Explore.states
      || fast.Explore.transitions <> brute.Explore.transitions
    then
      Fail
        (Fmt.str
           "fast and brute symmetry quotients disagree: %d/%d states, \
            %d/%d transitions"
           fast.Explore.states brute.Explore.states fast.Explore.transitions
           brute.Explore.transitions)
    else if complete full && fast.Explore.states > full.Explore.states then
      Fail
        (Fmt.str "symmetry quotient larger than the full space: %d > %d"
           fast.Explore.states full.Explore.states)
    else Pass

let o_par ctx =
  match (Lazy.force ctx.prog, Lazy.force ctx.async_stats) with
  | Error e, _ | _, Error e -> Fail (exn_msg e)
  | Ok prog, Ok seq ->
    (* the stop is the sequential one at every -j, capped runs included *)
    let cfg = Async.{ k = ctx.spec.Gen.k } in
    let par =
      Explore.run ~jobs:4 ~max_states:ctx.max_states ~check_deadlock:true
        (async_sys prog cfg)
    in
    if par.Explore.outcome <> seq.Explore.outcome then
      Fail
        (Fmt.str "-j 4 and -j 1 disagree on the outcome (%a)"
           (Explore.pp_outcome (Async.pp_state prog))
           par.Explore.outcome)
    else if
      par.Explore.states <> seq.Explore.states
      || par.Explore.transitions <> seq.Explore.transitions
    then
      Fail
        (Fmt.str "-j 4 and -j 1 disagree: %d/%d states, %d/%d transitions"
           par.Explore.states seq.Explore.states par.Explore.transitions
           seq.Explore.transitions)
    else Pass

let o_faults ctx =
  match Lazy.force ctx.prog with
  | Error e -> Fail (exn_msg e)
  | Ok prog ->
    let cfg = Async.{ k = ctx.spec.Gen.k } in
    let budget = { Fault.none with Fault.drop = 1 } in
    let bad = ref None in
    let r =
      Explore.run ~max_states:ctx.max_states ~check_deadlock:true
        ~invariants:[ Injected.no_wedge ]
        (codec_checked bad
           Explore.
             {
               init = Injected.initial budget prog cfg;
               succ = Injected.successors Injected.Hardened budget prog cfg;
               encode = Injected.encode;
               decode = Injected.decode prog;
               canon = None;
             })
    in
    codec_verdict bad
      (explored_ok "hardened exploration under drop=1" r
         (Injected.pp_fstate prog))

let o_store ctx =
  match (Lazy.force ctx.prog, Lazy.force ctx.async_stats) with
  | Error e, _ | _, Error e -> Fail (exn_msg e)
  | Ok prog, Ok seq ->
    let cfg = Async.{ k = ctx.spec.Gen.k } in
    let sys = async_sys prog cfg in
    let agree what (r : (_, _) Explore.stats) rest =
      if
        r.Explore.states <> seq.Explore.states
        || r.Explore.transitions <> seq.Explore.transitions
      then
        Fail
          (Fmt.str "%s store disagrees with mem: %d/%d states, %d/%d \
                    transitions"
             what r.Explore.states seq.Explore.states r.Explore.transitions
             seq.Explore.transitions)
      else rest ()
    in
    (* Compressed stores share the sequential engine's discovery order,
       so even an [L_states]-limited baseline pins exact counts. *)
    let collapse_kind = Vstore.Collapse (Async.split_key prog) in
    let collapse =
      Explore.run ~max_states:ctx.max_states ~store:collapse_kind sys
    in
    agree "collapse" collapse @@ fun () ->
    (* The disk run also tees every encoded key into a tiny-tail disk
       store and an exact one: with [tail_cap=64] almost every key
       crosses the spill boundary, so the file read-back path is
       exercised even on fuzz-sized instances. *)
    let tee_disk = Vstore.disk ~tail_cap:64 () in
    let tee_exact = Vstore.exact () in
    let tee_mismatch = ref None in
    let encode st =
      let key = sys.Explore.encode st in
      let d = tee_disk.Vstore.add key and e = tee_exact.Vstore.add key in
      if d <> e && !tee_mismatch = None then tee_mismatch := Some (d, e);
      key
    in
    let disk =
      Explore.run ~max_states:ctx.max_states ~store:Vstore.Disk
        { sys with Explore.encode }
    in
    agree "disk" disk @@ fun () ->
    match !tee_mismatch with
    | Some (d, e) ->
      Fail
        (Fmt.str
           "spilling disk store and exact store disagree on a key: \
            fresh=%b vs %b"
           d e)
    | None ->
      if tee_disk.Vstore.count () <> tee_exact.Vstore.count () then
        Fail
          (Fmt.str "spilling disk store count %d <> exact count %d"
             (tee_disk.Vstore.count ())
             (tee_exact.Vstore.count ()))
      else
        let par =
          Explore.run ~jobs:2 ~max_states:ctx.max_states
            ~store:collapse_kind sys
        in
        agree "parallel (j=2) collapse" par (fun () -> Pass)

let o_engine ctx =
  match Lazy.force ctx.prog with
  | Error e -> Fail (exn_msg e)
  | Ok prog -> (
    let cfg = Async.{ k = ctx.spec.Gen.k } in
    let replay () =
      Engine.replay ~deadline_s:5.0 ~max_steps:50_000 ~budget:2 ~invariants:[]
        prog cfg
    in
    match replay () with
    | Error m -> Fail m
    | Ok (s, trace) -> (
      match replay () with
      | Error m -> Fail ("second run: " ^ m)
      | Ok (s2, trace2) ->
        if trace2 <> trace then
          Fail "engine trace is not deterministic in the seed"
        else if s2.Runtime.messages <> s.Runtime.messages then
          Fail
            (Fmt.str "engine message count is not deterministic: %d vs %d"
               s.Runtime.messages s2.Runtime.messages)
        else Pass))

let o_resume ctx =
  match (Lazy.force ctx.prog, Lazy.force ctx.async_stats) with
  | Error e, _ | _, Error e -> Fail (exn_msg e)
  | Ok prog, Ok seq ->
    (* Too small to interrupt mid-way: the first leg would complete. *)
    if seq.Explore.states < 4 then Pass
    else begin
      let cfg = Async.{ k = ctx.spec.Gen.k } in
      let sys = async_sys prog cfg in
      let dir = Filename.temp_file "ccr-fuzz-ckpt" "" in
      Sys.remove dir;
      Fun.protect ~finally:(fun () ->
          (try Sys.remove (Ckpt.file dir) with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let manifest = [ ("spec_hash", Ccr_obs.Journal.Str "fuzz") ] in
      let cap = max 1 (seq.Explore.states / 2) in
      let first =
        Explore.run ~max_states:cap ~check_deadlock:true
          ~ckpt:
            Explore.
              {
                ck_resume = None;
                ck_save = Ckpt.saver ~dir ~manifest ~prov:None ();
              }
          sys
      in
      match first.Explore.outcome with
      | Explore.Limit Explore.L_states -> (
        match Ckpt.load ~dir with
        | Error msg -> Fail ("checkpoint refused on reload: " ^ msg)
        | Ok l ->
          (* a cap stop checkpoints the boundary that completes the
             stop's level *)
          if
            l.Ckpt.l_depth <> first.Explore.max_depth
            || l.Ckpt.l_states < first.Explore.states
            || l.Ckpt.l_transitions < first.Explore.transitions
          then
            Fail
              (Fmt.str
                 "checkpoint recorded depth %d, %d states, %d transitions \
                  for a stop at depth %d, %d states, %d transitions"
                 l.Ckpt.l_depth l.Ckpt.l_states l.Ckpt.l_transitions
                 first.Explore.max_depth first.Explore.states
                 first.Explore.transitions)
          else if l.Ckpt.l_states >= seq.Explore.states then
            (* the checkpointed level already reaches the uninterrupted
               run's own cap: no stop is left for a resume to reproduce *)
            Pass
          else
            let resumed =
              Explore.run ~max_states:ctx.max_states ~check_deadlock:true
                ~ckpt:
                  Explore.
                    {
                      ck_resume =
                        Some
                          {
                            r_states = l.Ckpt.l_states;
                            r_transitions = l.Ckpt.l_transitions;
                            r_frontier = l.Ckpt.l_frontier;
                            r_keys = l.Ckpt.l_keys;
                          };
                      ck_save = ignore;
                    }
                sys
            in
            if
              resumed.Explore.states <> seq.Explore.states
              || resumed.Explore.transitions <> seq.Explore.transitions
            then
              Fail
                (Fmt.str
                   "resumed run disagrees with uninterrupted: %d/%d \
                    states, %d/%d transitions"
                   resumed.Explore.states seq.Explore.states
                   resumed.Explore.transitions seq.Explore.transitions)
            else if resumed.Explore.outcome <> seq.Explore.outcome then
              Fail "resumed run reaches a different outcome"
            else Pass)
      | _ ->
        (* The event (or completion) landed before the cap; both legs
           are the same deterministic engine, so there is nothing a
           resume could change. *)
        Pass
    end

(* One shared in-process daemon for the whole battery.  Thread-based —
   [Daemon.start] spawns no domains and no processes — so it is legal
   whatever the [Par] oracle has done to the runtime, and cheap enough
   to keep alive across every spec of a run.  The cache directory is
   per-process: the warm round below must hit this run's own entry. *)
let serve_daemon =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Fmt.str "ccr-fuzz-serve-%d" (Unix.getpid ()))
     in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let t = Sdaemon.start ~port:0 ~cache_dir:dir () in
     at_exit (fun () -> Sdaemon.stop t);
     t)

let serve_http ~port ~meth ~path ?body () =
  match Shttp.request ~port ~meth ~path ?body () with
  | Ok (status, body) -> (status, body)
  | Error msg -> failwith (Fmt.str "%s %s: %s" meth path msg)

(* Submit one config and poll to the verdict; returns (verdict JSON text,
   answered-from-cache). *)
let serve_round ~port cfg =
  let status, body =
    serve_http ~port ~meth:"POST" ~path:"/jobs"
      ~body:(J.to_string (Sapi.config_to_json cfg))
      ()
  in
  if status <> 200 && status <> 202 then
    failwith (Fmt.str "POST /jobs answered %d: %s" status body);
  let parse body =
    match J.parse body with
    | Some v -> v
    | None -> failwith ("daemon answered unparsable JSON: " ^ body)
  in
  let jstr v field =
    match J.get_str (J.find v field) with
    | Some s -> s
    | None ->
      failwith (Fmt.str "daemon answer lacks %S: %s" field (J.to_string v))
  in
  let id = jstr (parse body) "id" in
  let rec wait n =
    let _, body = serve_http ~port ~meth:"GET" ~path:("/jobs/" ^ id) () in
    let v = parse body in
    match jstr v "status" with
    | "done" -> (
      let cached = J.find v "cached" = Some (J.Bool true) in
      match J.find v "verdict" with
      | Some verdict -> (J.to_string verdict, cached)
      | None -> failwith ("done job carries no verdict: " ^ body))
    | "failed" -> failwith ("daemon job failed: " ^ body)
    | _ ->
      if n = 0 then failwith "daemon job did not finish"
      else begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
  in
  wait 1500

let o_serve ctx =
  let src = Parse.to_string (Gen.build ctx.spec) in
  let cfg =
    {
      Sapi.default with
      Sapi.spec = Sapi.Inline src;
      level = `Async;
      n = ctx.spec.Gen.n;
      k = ctx.spec.Gen.k;
      generic = not ctx.spec.Gen.reqrep;
      max_states = ctx.max_states;
    }
  in
  match Sapi.check cfg with
  | Error msg -> Fail ("in-process check refused the spec: " ^ msg)
  | Ok (direct, _) ->
    let expected = J.to_string (Sapi.verdict_to_json direct) in
    let port = Sdaemon.port (Lazy.force serve_daemon) in
    let cold, _ = serve_round ~port cfg in
    if cold <> expected then
      Fail
        (Fmt.str "daemon verdict differs from in-process:@ %s@ vs@ %s" cold
           expected)
    else
      let warm, warm_cached = serve_round ~port cfg in
      if warm <> expected then
        Fail
          (Fmt.str "warm daemon verdict differs from in-process:@ %s@ vs@ %s"
             warm expected)
      else if Sapi.cacheable direct && not warm_cached then
        Fail "cacheable verdict was not served from the cache on resubmission"
      else Pass

let run_oracle ctx o =
  let body =
    match o with
    | Validate -> o_validate
    | Roundtrip -> o_roundtrip
    | Rv -> o_rv
    | Async_explore -> o_async
    | Eq1 -> o_eq1
    | Symmetry -> o_symmetry
    | Par -> o_par
    | Faults -> o_faults
    | Store -> o_store
    | Engine -> o_engine
    | Resume -> o_resume
    | Serve -> o_serve
  in
  let outcome = try body ctx with e -> Fail (exn_msg e) in
  { oracle = o; outcome }

let run_battery ?(only = all) ?rules ~max_states spec =
  let ctx = make_ctx ?rules ~max_states spec in
  List.filter_map
    (fun o -> if List.mem o only then Some (run_oracle ctx o) else None)
    all

let failures results =
  List.filter_map
    (fun r ->
      match r.outcome with
      | Pass -> None
      | Fail msg -> Some (r.oracle, msg))
    results

let coverage_of_spec ?rules ~max_states spec =
  let ctx = make_ctx ?rules ~max_states spec in
  ignore (Lazy.force ctx.async_stats)
