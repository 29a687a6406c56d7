(* Reusable model-checking entry point (config in, verdict out).

   This is the logic of [ccr check] extracted from the CLI so the
   [ccr serve] daemon, the fuzz serve oracle and the CLI all run one code
   path.  Byte-compatibility is the design constraint: the rendered
   outcome line, counterexample states, starvation witnesses and journal
   events produced here must match what the CLI printed before the
   extraction — cram tests pin those bytes. *)

open Ccr_core
module Explore = Ccr_modelcheck.Explore
module Graph = Ccr_modelcheck.Graph
module Vstore = Ccr_modelcheck.Vstore
module Async = Ccr_refine.Async
module Sym = Ccr_refine.Symmetry
module Fault = Ccr_faults.Fault
module Injected = Ccr_faults.Injected
module Registry = Ccr_protocols.Registry
module J = Ccr_obs.Journal

type spec_src = Named of string | Inline of string

type config = {
  spec : spec_src;
  level : [ `Rv | `Async ];
  n : int;
  k : int;
  generic : bool;
  symmetry : [ `Auto | `Off | `Brute ];
  faults : string option;
  harden : bool;
  max_states : int;
  max_mem_mb : int option;
  deadline_s : float option;
  store : [ `Mem | `Collapse | `Disk ];
  jobs : int;
}

let default =
  {
    spec = Named "";
    level = `Async;
    n = 2;
    k = 2;
    generic = false;
    symmetry = `Auto;
    faults = None;
    harden = false;
    max_states = 1_000_000;
    max_mem_mb = None;
    deadline_s = None;
    store = `Mem;
    jobs = 1;
  }

let level_name cfg =
  match cfg.level with `Rv -> "rendezvous" | `Async -> "async"

let symmetry_name cfg =
  match cfg.symmetry with `Auto -> "auto" | `Off -> "off" | `Brute -> "brute"

let store_name cfg =
  match cfg.store with `Mem -> "mem" | `Collapse -> "collapse" | `Disk -> "disk"

let fault_spec cfg =
  match cfg.faults with
  | None -> Ok None
  | Some s -> (
    match Fault.parse s with
    | Ok spec -> Ok (Some spec)
    | Error msg -> Error (Fmt.str "bad --faults spec: %s" msg))

let faults_name cfg =
  match fault_spec cfg with
  | Ok (Some spec) -> Fmt.str "%a" Fault.pp spec
  | _ -> "none"

(* ---- explorer ------------------------------------------------------------ *)

type explorer = {
  explore :
    'st 'lbl.
    check_deadlock:bool ->
    split:(string -> int array) option ->
    invariants:(string * ('st -> bool)) list ->
    ('st, 'lbl) Explore.system ->
    ('st, 'lbl) Explore.stats;
}

let default_explorer ?on_level ?interrupt cfg =
  let store_of split =
    match cfg.store with
    | `Mem -> Vstore.Mem
    | `Disk -> Vstore.Disk
    | `Collapse ->
      Vstore.Collapse
        (match split with
        | Some s -> s
        | None -> fun key -> [| String.length key |])
  in
  let mem_bytes = Option.map (fun mb -> mb * 1024 * 1024) cfg.max_mem_mb in
  {
    explore =
      (fun ~check_deadlock ~split ~invariants sys ->
        Explore.run ~jobs:cfg.jobs ~store:(store_of split)
          ~max_states:cfg.max_states ?max_mem_bytes:mem_bytes
          ?max_time_s:cfg.deadline_s ~check_deadlock ~trace:true ~invariants
          ?on_level ?interrupt sys);
  }

(* ---- verdicts ------------------------------------------------------------ *)

type verdict = {
  v_protocol : string;
  v_level : string;
  v_outcome : string;
  v_explored : string;
  v_ok : bool;
  v_states : int;
  v_transitions : int;
  v_max_depth : int;
  v_canon_fallbacks : int;
  v_sym : bool;
  v_invariant : string option;
  v_starved : int option;
  v_rules : string list option;
  v_outcome_line : string;
  v_trace : string list;
  v_msc : string option;
  v_liveness : string option;
}

type meta = {
  m_time_s : float;
  m_mem_bytes : int;
  m_raw_bytes : int;
  m_peak_frontier : int;
}

let outcome_tag = function
  | Explore.Complete -> "complete"
  | Explore.Limit Explore.L_states -> "limit-states"
  | Explore.Limit Explore.L_memory -> "limit-memory"
  | Explore.Limit Explore.L_time -> "limit-time"
  | Explore.Limit Explore.L_interrupt -> "interrupted"
  | Explore.Violation _ -> "violation"
  | Explore.Deadlock _ -> "deadlock"

(* Build the deterministic verdict from one exploration's stats.  All
   rendering goes through [Fmt.str], whose fresh formatter has the same
   margin as stdout's — bytes match the pre-extraction CLI output. *)
let assemble ~protocol ~level ~sym ~lbl ~pp_state ?msc
    (r : (_, _) Explore.stats) =
  let explored = outcome_tag r.Explore.outcome in
  let rules =
    Option.map
      (fun path -> List.filter_map (fun (l, _) -> Option.map lbl l) path)
      r.Explore.trace
  in
  let invariant =
    match r.Explore.outcome with
    | Explore.Violation { invariant; _ } -> Some invariant
    | _ -> None
  in
  let outcome_line =
    match r.Explore.outcome with
    | Explore.Complete -> "complete, invariants hold"
    | o -> Fmt.str "%a" (Explore.pp_outcome pp_state) o
  in
  let trace, msc_str =
    match r.Explore.trace with
    | Some path when List.length path > 1 ->
      ( List.map (fun (_, st) -> Fmt.str "%a" pp_state st) path,
        Option.map (fun render -> render (List.filter_map fst path)) msc )
    | _ -> ([], None)
  in
  ( {
      v_protocol = protocol;
      v_level = level;
      v_outcome = explored;
      v_explored = explored;
      v_ok = explored = "complete";
      v_states = r.Explore.states;
      v_transitions = r.Explore.transitions;
      v_max_depth = r.Explore.max_depth;
      v_canon_fallbacks = r.Explore.canon_fallbacks;
      v_sym = sym;
      v_invariant = invariant;
      v_starved = None;
      v_rules = rules;
      v_outcome_line = outcome_line;
      v_trace = trace;
      v_msc = msc_str;
      v_liveness = None;
    },
    {
      m_time_s = r.Explore.time_s;
      m_mem_bytes = r.Explore.mem_bytes;
      m_raw_bytes = r.Explore.raw_bytes;
      m_peak_frontier = r.Explore.peak_frontier;
    } )

(* ---- spec resolution and identity ---------------------------------------- *)

let resolve = function
  | Named name -> (
    match Registry.find name with
    | Some e -> Ok e
    | None ->
      Error
        (Fmt.str "unknown protocol %S (try: %s, or a .ccr file)" name
           (String.concat ", " (Registry.names ()))))
  | Inline src -> (
    match Parse.system src with
    | sys -> (
      match Validate.check sys with
      | Ok _ ->
        Ok
          Registry.
            {
              name = sys.Ir.sys_name;
              doc = "inline spec";
              system = Some sys;
              instantiate = (fun ~reqrep ~n -> Link.compile ~reqrep ~n sys);
              rv_invariants = (fun _ -> []);
              async_invariants = (fun _ -> []);
            }
      | Error es ->
        Error
          (Fmt.str "spec does not validate:@,%a"
             Fmt.(list ~sep:cut Validate.pp_error)
             es))
    | exception exn -> Error (Fmt.str "%a" Parse.pp_error exn))

let spec_hash (e : Registry.t) cfg =
  let ir =
    try Marshal.to_string e.Registry.system [] with _ -> e.Registry.name
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            e.Registry.name; ir; string_of_int cfg.n; string_of_int cfg.k;
            string_of_bool cfg.generic; level_name cfg; symmetry_name cfg;
            faults_name cfg; string_of_bool cfg.harden;
          ]))

let checker_version = 1

let cache_key (e : Registry.t) cfg =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            spec_hash e cfg; string_of_int cfg.max_states; store_name cfg;
            string_of_int checker_version;
          ]))

let cacheable v =
  match v.v_explored with
  (* BFS order is deterministic at jobs=1, so even a limit-states stop is
     machine-independent; time/memory caps and interrupts are not. *)
  | "complete" | "violation" | "deadlock" | "limit-states" -> true
  | _ -> false

(* ---- the check ----------------------------------------------------------- *)

let check_entry ?explorer ?meter ?observe_label ?sym_stats ?on_orbit
    (e : Registry.t) cfg =
  match fault_spec cfg with
  | Error msg -> Error msg
  | Ok fspec -> (
    let explorer =
      match explorer with Some x -> x | None -> default_explorer cfg
    in
    let sym_stats =
      match sym_stats with Some s -> s | None -> Sym.make_stats ()
    in
    let protocol = e.Registry.name in
    let level = level_name cfg in
    try
      let prog =
        Ccr_obs.Trace.with_span "instantiate"
          ~args:[ ("protocol", Ccr_obs.Trace.Str protocol) ]
          (fun () ->
            e.Registry.instantiate ~reqrep:(not cfg.generic) ~n:cfg.n)
      in
      (* Symmetry hooks: dedup by canonical key, keep concrete states.
         Orbit-size harvesting ([on_orbit]) reads the canonicalizing
         domain's local storage, so callers only pass it for sequential
         runs. *)
      let canon_of ~orbits key =
        Some
          {
            Explore.canon_key = key;
              canon_fresh =
                (if orbits then
                   Option.map
                     (fun observe _ ->
                       let o = Sym.last_orbit () in
                       if o > 0 then observe o)
                     on_orbit
                 else None);
              canon_fallbacks = (fun () -> Sym.fallbacks sym_stats);
            }
      in
      let rv_canon () =
        match cfg.symmetry with
        | `Off -> None
        | `Auto ->
          canon_of ~orbits:true (Sym.canonical_rv_fast ~stats:sym_stats prog)
        | `Brute ->
          canon_of ~orbits:false (Sym.canonical_rv ~stats:sym_stats prog)
      in
      let async_canon () =
        match cfg.symmetry with
        | `Off -> None
        | `Auto ->
          canon_of ~orbits:true
            (Sym.canonical_async_fast ~stats:sym_stats prog)
        | `Brute ->
          canon_of ~orbits:false (Sym.canonical_async ~stats:sym_stats prog)
      in
      (* Fault budgets break the interchangeability of remote identities,
         so symmetry reduction is forced off under --faults. *)
      match (cfg.level, fspec) with
      | `Rv, Some spec ->
        if Fault.total spec > spec.Fault.pause then
          Error
            (Fmt.str
               "the rendezvous level has no channels: only pause=K applies \
                (got %a)"
               Fault.pp spec)
        else begin
          let invariants =
            List.map
              (fun (nm, f) ->
                (nm, fun (fs : Injected.rv_fstate) -> f fs.Injected.rv_base))
              (e.Registry.rv_invariants prog)
          in
          let r =
            explorer.explore ~check_deadlock:false ~split:None ~invariants
              Explore.
                {
                  init = Injected.rv_initial spec prog;
                  succ = Injected.rv_successors prog;
                  encode = Injected.rv_encode;
                  decode = Injected.rv_decode prog;
                  canon = None;
                }
          in
          Ok
            (assemble ~protocol ~level ~sym:false
               ~lbl:(Fmt.str "%a" Injected.pp_rv_label)
               ~pp_state:(Injected.pp_rv_fstate prog)
               r)
        end
      | `Async, Some spec ->
        let acfg = { Async.k = cfg.k } in
        let mode = if cfg.harden then Injected.Hardened else Injected.Vanilla in
        let invariants =
          Injected.no_wedge
          :: List.map Injected.lift_invariant
               (e.Registry.async_invariants prog)
        in
        let sys =
          Explore.
            {
              init = Injected.initial spec prog acfg;
              succ = Injected.successors mode spec prog acfg;
              encode = Injected.encode;
              decode = Injected.decode prog;
              canon = None;
            }
        in
        let r =
          explorer.explore ~check_deadlock:true
            ~split:(Some (Injected.split_key prog))
            ~invariants sys
        in
        let v, m =
          assemble ~protocol ~level ~sym:false
            ~lbl:(Fmt.str "%a" Injected.pp_label)
            ~pp_state:(Injected.pp_fstate prog)
            r
        in
        (* Safety held and no deadlock: the remaining question is
           liveness — a dropped message can leave a remote stuck in its
           transient state forever while the rest of the system keeps
           running (starvation, not deadlock), so ask the reachability
           graph: can every remote always still complete? *)
        let v =
          if not (v.v_trace = [] && r.Explore.outcome = Explore.Complete)
          then v
          else begin
            let g = Graph.build ~max_states:cfg.max_states sys in
            if g.Graph.truncated then
              {
                v with
                v_liveness =
                  Some
                    "liveness: not assessed (graph truncated; raise \
                     --max-states)";
              }
            else begin
              let progress_of pred l =
                match l with
                | Injected.Step al -> Injected.completes al && pred al
                | Injected.Fault _ -> false
              in
              let starved =
                List.concat
                  (List.init cfg.n (fun i ->
                       match
                         Graph.violates_ag_ef g
                           ~progress:
                             (progress_of (fun al -> al.Async.actor = i))
                       with
                       | [] -> []
                       | bad -> [ (i, bad) ]))
              in
              match starved with
              | [] ->
                {
                  v with
                  v_liveness =
                    Some
                      "liveness: every remote can always still complete a \
                       rendezvous (quiescence preserved under the fault \
                       budget)";
                }
              | (i, bad) :: _ ->
                let witness = List.hd bad in
                let path = Graph.path_to g witness in
                (* one fresh formatter per line: each [%a] renderer must
                   open its boxes at column 0, exactly as the CLI's
                   per-line [Fmt.pf ... "@."] calls did *)
                let lines =
                  [
                    Fmt.str
                      "liveness violation: remote %d can be starved forever \
                       (%d reachable states lose its completion)"
                      i (List.length bad);
                    Fmt.str "starvation witness (%d steps):"
                      (List.length path - 1);
                  ]
                  @ List.filter_map
                      (fun (l, _) ->
                        Option.map
                          (fun l -> Fmt.str "  %a" Injected.pp_label l)
                          l)
                      path
                  @
                  match List.rev path with
                  | (_, st) :: _ ->
                    [
                      "stuck state:";
                      Fmt.str "%a" (Injected.pp_fstate prog) st;
                    ]
                  | [] -> []
                in
                {
                  v with
                  v_outcome = "starvation";
                  v_ok = false;
                  v_starved = Some i;
                  v_rules =
                    Some
                      (List.filter_map
                         (fun (l, _) ->
                           Option.map
                             (fun l -> Fmt.str "%a" Injected.pp_label l)
                             l)
                         path);
                  v_liveness = Some (String.concat "\n" lines);
                }
            end
          end
        in
        Ok (v, m)
      | `Rv, None ->
        let r =
          explorer.explore ~check_deadlock:false
            ~split:(Some (Ccr_semantics.Rendezvous.split_key prog))
            ~invariants:(e.Registry.rv_invariants prog)
            Explore.
              {
                init = Ccr_semantics.Rendezvous.initial prog;
                succ = Ccr_semantics.Rendezvous.successors prog;
                encode = Ccr_semantics.Rendezvous.encode;
                decode = Ccr_semantics.Rendezvous.decode prog;
                canon = rv_canon ();
              }
        in
        Ok
          (assemble ~protocol ~level
             ~sym:(cfg.symmetry <> `Off)
             ~lbl:(Fmt.str "%a" Ccr_semantics.Rendezvous.pp_label)
             ~pp_state:(Ccr_semantics.Rendezvous.pp_state prog)
             r)
      | `Async, None ->
        let acfg = { Async.k = cfg.k } in
        let succ_base = Async.successors ?meter prog acfg in
        let succ =
          match observe_label with
          | None -> succ_base
          | Some f ->
            fun st ->
              let outs = succ_base st in
              List.iter (fun ((l : Async.label), _) -> f l) outs;
              outs
        in
        let r =
          explorer.explore ~check_deadlock:true
            ~split:(Some (Async.split_key prog))
            ~invariants:(e.Registry.async_invariants prog)
            Explore.
              {
                init = Async.initial prog acfg;
                succ;
                encode = Async.encode;
                decode = Async.decode prog;
                canon = async_canon ();
              }
        in
        Ok
          (assemble ~protocol ~level
             ~sym:(cfg.symmetry <> `Off)
             ~lbl:(Fmt.str "%a" Async.pp_label)
             ~pp_state:(Async.pp_state prog)
             ~msc:(Ccr_viz.Msc.render prog) r)
    with exn -> Error (Printexc.to_string exn))

let check ?explorer cfg =
  match resolve cfg.spec with
  | Error msg -> Error msg
  | Ok e -> check_entry ?explorer e cfg

(* ---- journal rendering --------------------------------------------------- *)

let journal_config ~protocol cfg =
  [
    ("cmd", J.Str "check");
    ("protocol", J.Str protocol);
    ("n", J.Int cfg.n);
    ("k", J.Int cfg.k);
    ("level", J.Str (level_name cfg));
    ("generic", J.Bool cfg.generic);
    ("symmetry", J.Str (symmetry_name cfg));
    ("harden", J.Bool cfg.harden);
    ("max_states", J.Int cfg.max_states);
  ]

let rules_field v =
  match v.v_rules with
  | None -> []
  | Some rs -> [ ("rules", J.List (List.map (fun r -> J.Str r) rs)) ]

let journal_events v =
  (match v.v_explored with
  | "complete" -> []
  | "violation" ->
    [
      ( "violation",
        ("kind", J.Str "invariant")
        :: ("invariant", J.Str (Option.value ~default:"" v.v_invariant))
        :: rules_field v );
    ]
  | "deadlock" ->
    [ ("violation", ("kind", J.Str "deadlock") :: rules_field v) ]
  | tag -> [ ("limit", [ ("kind", J.Str tag) ]) ])
  @ (if v.v_sym && v.v_explored = "complete" then
       [ ("canon", [ ("fallbacks", J.Int v.v_canon_fallbacks) ]) ]
     else [])
  @
  match v.v_starved with
  | Some i ->
    [
      ( "violation",
        [ ("kind", J.Str "starvation"); ("remote", J.Int i) ]
        @ rules_field v );
    ]
  | None -> []

let journal_end v =
  ("outcome", J.Str v.v_explored)
  ::
  (if v.v_explored = "complete" then
     [
       ("states", J.Int v.v_states);
       ("transitions", J.Int v.v_transitions);
       ("max_depth", J.Int v.v_max_depth);
     ]
   else [])

(* ---- JSON codecs --------------------------------------------------------- *)

let opt_str = function None -> J.Null | Some s -> J.Str s
let opt_int = function None -> J.Null | Some i -> J.Int i

let config_to_json cfg =
  J.Obj
    [
      ( "spec",
        match cfg.spec with
        | Named s -> J.Obj [ ("name", J.Str s) ]
        | Inline src -> J.Obj [ ("source", J.Str src) ] );
      ("level", J.Str (level_name cfg));
      ("n", J.Int cfg.n);
      ("k", J.Int cfg.k);
      ("generic", J.Bool cfg.generic);
      ("symmetry", J.Str (symmetry_name cfg));
      ("faults", opt_str cfg.faults);
      ("harden", J.Bool cfg.harden);
      ("max_states", J.Int cfg.max_states);
      ("max_mem_mb", opt_int cfg.max_mem_mb);
      ( "deadline_s",
        match cfg.deadline_s with None -> J.Null | Some d -> J.Float d );
      ("store", J.Str (store_name cfg));
      ("jobs", J.Int cfg.jobs);
    ]

let get_bool = function Some (J.Bool b) -> Some b | _ -> None

let get_num = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let config_of_json json =
  match json with
  | J.Obj _ -> (
    let field k = J.find json k in
    let str k = J.get_str (field k) in
    let int k = J.get_int (field k) in
    let bool k = get_bool (field k) in
    let spec =
      match field "spec" with
      | Some (J.Obj _ as sp) -> (
        match (J.get_str (J.find sp "name"), J.get_str (J.find sp "source"))
        with
        | Some name, _ -> Ok (Named name)
        | None, Some src -> Ok (Inline src)
        | None, None -> Error "spec needs a \"name\" or \"source\" field")
      | Some (J.Str name) -> Ok (Named name)
      | _ -> Error "missing \"spec\" field"
    in
    match spec with
    | Error msg -> Error msg
    | Ok spec -> (
      let level =
        match str "level" with
        | None -> Ok default.level
        | Some "rendezvous" -> Ok `Rv
        | Some "async" -> Ok `Async
        | Some other -> Error (Fmt.str "bad level %S" other)
      in
      let symmetry =
        match str "symmetry" with
        | None -> Ok default.symmetry
        | Some "auto" -> Ok `Auto
        | Some "off" -> Ok `Off
        | Some "brute" -> Ok `Brute
        | Some other -> Error (Fmt.str "bad symmetry %S" other)
      in
      let store =
        match str "store" with
        | None -> Ok default.store
        | Some "mem" -> Ok `Mem
        | Some "collapse" -> Ok `Collapse
        | Some "disk" -> Ok `Disk
        | Some other -> Error (Fmt.str "bad store %S" other)
      in
      match (level, symmetry, store) with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok level, Ok symmetry, Ok store ->
        Ok
          {
            spec;
            level;
            n = Option.value ~default:default.n (int "n");
            k = Option.value ~default:default.k (int "k");
            generic = Option.value ~default:false (bool "generic");
            symmetry;
            faults = str "faults";
            harden = Option.value ~default:false (bool "harden");
            max_states =
              Option.value ~default:default.max_states (int "max_states");
            max_mem_mb = int "max_mem_mb";
            deadline_s = get_num (field "deadline_s");
            store;
            jobs = Option.value ~default:1 (int "jobs");
          }))
  | _ -> Error "config must be a JSON object"

let verdict_to_json v =
  J.Obj
    [
      ("protocol", J.Str v.v_protocol);
      ("level", J.Str v.v_level);
      ("outcome", J.Str v.v_outcome);
      ("explored", J.Str v.v_explored);
      ("ok", J.Bool v.v_ok);
      ("states", J.Int v.v_states);
      ("transitions", J.Int v.v_transitions);
      ("max_depth", J.Int v.v_max_depth);
      ("canon_fallbacks", J.Int v.v_canon_fallbacks);
      ("sym", J.Bool v.v_sym);
      ("invariant", opt_str v.v_invariant);
      ("starved", opt_int v.v_starved);
      ( "rules",
        match v.v_rules with
        | None -> J.Null
        | Some rs -> J.List (List.map (fun r -> J.Str r) rs) );
      ("outcome_line", J.Str v.v_outcome_line);
      ("trace", J.List (List.map (fun s -> J.Str s) v.v_trace));
      ("msc", opt_str v.v_msc);
      ("liveness", opt_str v.v_liveness);
    ]

let verdict_of_json json =
  match json with
  | J.Obj _ -> (
    let field k = J.find json k in
    let str k = J.get_str (field k) in
    let int k = J.get_int (field k) in
    let bool k = get_bool (field k) in
    let str_list k =
      Option.map
        (List.filter_map (function J.Str s -> Some s | _ -> None))
        (J.get_list (field k))
    in
    match (str "protocol", str "outcome", str "explored") with
    | Some protocol, Some outcome, Some explored ->
      Ok
        {
          v_protocol = protocol;
          v_level = Option.value ~default:"async" (str "level");
          v_outcome = outcome;
          v_explored = explored;
          v_ok = Option.value ~default:false (bool "ok");
          v_states = Option.value ~default:0 (int "states");
          v_transitions = Option.value ~default:0 (int "transitions");
          v_max_depth = Option.value ~default:0 (int "max_depth");
          v_canon_fallbacks =
            Option.value ~default:0 (int "canon_fallbacks");
          v_sym = Option.value ~default:false (bool "sym");
          v_invariant = str "invariant";
          v_starved = int "starved";
          v_rules =
            (match field "rules" with
            | Some J.Null | None -> None
            | _ -> str_list "rules");
          v_outcome_line = Option.value ~default:"" (str "outcome_line");
          v_trace = Option.value ~default:[] (str_list "trace");
          v_msc = str "msc";
          v_liveness = str "liveness";
        }
    | _ -> Error "verdict missing protocol/outcome/explored fields")
  | _ -> Error "verdict must be a JSON object"
