(* Shared helpers for the test suites. *)
open Ccr_core

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0
let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ?print gen prop)

(* ---- tiny protocols used across suites -------------------------------- *)

(* Ping: the smallest level protocol — remote requests, home acknowledges
   by granting, remote releases.  Isomorphic to the lock server but local
   to the tests so suites do not depend on protocol-library changes. *)
let ping_system =
  let open Dsl in
  let home =
    process "ping_home" ~vars:[ ("c", Value.Drid) ] ~init:"U"
      [
        state "U" [ recv_any "c" "acq" [] ~goto:"G" ];
        state "G" [ send_to (v "c") "grant" [] ~goto:"L" ];
        state "L"
          [ recv_from (v "c") "rel" [] ~assigns:[ ("c", rid 0) ] ~goto:"U" ];
      ]
  in
  let remote =
    process "ping_remote" ~vars:[] ~init:"T"
      [
        state "T" [ send_home "acq" [] ~goto:"W" ];
        state "W" [ recv_home "grant" [] ~goto:"C" ];
        state "C" [ send_home "rel" [] ~goto:"T" ];
      ]
  in
  system "ping" ~home ~remote

(* A protocol with no request/reply pairs at all: the home answers [ask]
   with a separate plain rendezvous [tell] only after a detour, and the
   remote does not wait immediately.  Exercises the generic scheme even
   when reqrep analysis is on. *)
let plain_system =
  let open Dsl in
  let home =
    process "plain_home" ~vars:[ ("c", Value.Drid) ] ~init:"U"
      [
        state "U" [ recv_any "c" "ask" [] ~goto:"D" ];
        state "D" [ tau "think" ~goto:"G" ];
        state "G" [ send_to (v "c") "tell" [] ~goto:"U" ];
      ]
  in
  let remote =
    process "plain_remote" ~vars:[] ~init:"T"
      [
        state "T" [ send_home "ask" [] ~goto:"P" ];
        state "P" [ tau "pause" ~goto:"W" ];
        state "W" [ recv_home "tell" [] ~goto:"T" ];
      ]
  in
  system "plain" ~home ~remote

let compile ?reqrep ?fire_and_forget ~n sys =
  Link.compile ?reqrep ?fire_and_forget ~n sys

let rv_system prog =
  Ccr_modelcheck.Explore.
    {
      init = Ccr_semantics.Rendezvous.initial prog;
      succ = Ccr_semantics.Rendezvous.successors prog;
      encode = Ccr_semantics.Rendezvous.encode;
      decode = Ccr_semantics.Rendezvous.decode prog;
      canon = None;
      key_io = None;
    }

let async_system ?(k = 2) prog =
  let cfg = Ccr_refine.Async.{ k } in
  Ccr_modelcheck.Explore.
    {
      init = Ccr_refine.Async.initial prog cfg;
      succ = Ccr_refine.Async.successors prog cfg;
      encode = Ccr_refine.Async.encode;
      decode = Ccr_refine.Async.decode prog;
      canon = None;
      key_io = None;
    }

let explore_rv ?invariants ?max_states prog =
  Ccr_modelcheck.Explore.run ?invariants ?max_states ~trace:true
    (rv_system prog)

let explore_async ?invariants ?max_states ?(k = 2) ?(check_deadlock = true)
    prog =
  Ccr_modelcheck.Explore.run ?invariants ?max_states ~check_deadlock
    ~trace:true (async_system ~k prog)

(* Drive the asynchronous system one chosen transition at a time. *)
let fire ?(k = 2) prog st pred =
  let cfg = Ccr_refine.Async.{ k } in
  let succs = Ccr_refine.Async.successors prog cfg st in
  match List.filter (fun (l, _) -> pred l) succs with
  | [ (_, st') ] -> st'
  | [] ->
    Alcotest.failf "no matching transition; enabled: %a"
      Fmt.(list ~sep:sp Ccr_refine.Async.pp_label)
      (List.map fst succs)
  | many ->
    Alcotest.failf "ambiguous transition (%d matches): %a" (List.length many)
      Fmt.(list ~sep:sp Ccr_refine.Async.pp_label)
      (List.map fst many)

let by_rule ?actor ?subject rule (l : Ccr_refine.Async.label) =
  l.rule = rule
  && (match actor with None -> true | Some a -> l.actor = a)
  && match subject with None -> true | Some s -> l.subject = s

(* ---- synthetic systems shared by the engine suites --------------------- *)

(* A little DAG: distinct states 0..limit, two successors each. *)
let counter_system ~limit =
  Ccr_modelcheck.Explore.
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

(* The k-bit hypercube: 2^k states, k successors each. *)
let bits_system k =
  Ccr_modelcheck.Explore.
    {
      init = 0;
      succ =
        (fun s -> List.init k (fun i -> (Fmt.str "flip%d" i, s lxor (1 lsl i))));
      encode = string_of_int;
      decode = int_of_string;
      canon = None;
      key_io = None;
    }

(* ---- processes and scratch space --------------------------------------- *)

(* A fresh scratch directory, removed (recursively) when [f] returns. *)
let temp_dir_seq = ref 0

let with_temp_dir prefix f =
  incr temp_dir_seq;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "%s-%d-%d" prefix (Unix.getpid ()) !temp_dir_seq)
    in
    let rec rm p =
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun entry -> rm (Filename.concat p entry)) (Sys.readdir p);
        (try Unix.rmdir p with Unix.Unix_error _ -> ())
      | _ -> ( try Sys.remove p with Sys_error _ -> ())
      | exception Unix.Unix_error _ -> ()
    in
    rm dir;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* Fork-first discipline: the OCaml 5 runtime refuses [Unix.fork] once
   any domain has ever been spawned in the process — even one long since
   joined — so suite_serve, the one suite using this helper, is
   registered before every domain-spawning suite (see test_main.ml).  The child runs a real [ccr serve] daemon on an
   ephemeral loopback port and reports the port over a pipe; [f ~port]
   runs in the parent, and the daemon is SIGTERMed (clean shutdown:
   running explorations are interrupted at their next safe point) when it
   returns. *)
let with_forked_daemon ?(workers = 1) ?(queue_cap = 64) ?cache_dir
    ?(max_states_cap = 10_000_000) f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* the daemon process: [_exit], never [exit] — no inherited alcotest
       at_exit machinery, no doubly-flushed buffers *)
    Unix.close r;
    (try
       let t =
         Ccr_serve.Daemon.start ~port:0 ~workers ~queue_cap ?cache_dir
           ~max_states_cap ()
       in
       let oc = Unix.out_channel_of_descr w in
       output_string oc (string_of_int (Ccr_serve.Daemon.port t) ^ "\n");
       flush oc;
       let stop = ref false in
       Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
       while not !stop do
         try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done;
       Ccr_serve.Daemon.stop t
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        close_in_noerr ic)
      (fun () ->
        let port =
          match int_of_string_opt (String.trim (input_line ic)) with
          | Some p -> p
          | None | (exception End_of_file) ->
            Alcotest.fail "daemon child did not report a port"
        in
        f ~port)

let outcome_complete = function
  | Ccr_modelcheck.Explore.Complete -> true
  | _ -> false

let assert_complete name (r : (_, _) Ccr_modelcheck.Explore.stats) =
  if not (outcome_complete r.outcome) then
    Alcotest.failf "%s: exploration did not complete cleanly (%d states)"
      name r.states
