open Ccr_core
open Dsl

let home =
  process "lock_home" ~vars:[ ("c", Value.Drid) ] ~init:"U"
    [
      state "U" [ recv_any "c" "acq" [] ~goto:"G" ];
      state "G" [ send_to (v "c") "grant" [] ~goto:"L" ];
      state "L" [ recv_from (v "c") "rel" [] ~assigns:[ ("c", rid 0) ] ~goto:"U" ];
    ]

let remote =
  process "lock_remote" ~vars:[] ~init:"T"
    [
      state "T" [ tau "work" ~goto:"A" ];
      state "A" [ send_home "acq" [] ~goto:"W" ];
      state "W" [ recv_home "grant" [] ~goto:"C" ];
      state "C" [ tau "done" ~goto:"R" ];
      state "R" [ send_home "rel" [] ~goto:"T" ];
    ]

let system = Dsl.system "lock-server" ~home ~remote

let rv_invariants prog =
  let open Props in
  let critical = remote_states prog [ "C" ] in
  let holding = remote_states prog [ "C"; "R" ] in
  let unlocked = home_states prog [ "U"; "G" ] in
  [
    ("mutual_exclusion", fun st -> rv_remotes_in critical st <= 1);
    ( "unlocked_means_uncritical",
      fun st -> (not (rv_home_in unlocked st)) || rv_remotes_in holding st = 0
    );
  ]

let async_invariants prog =
  let open Props in
  let critical = remote_states prog [ "C" ] in
  let unlocked = home_states prog [ "U"; "G" ] in
  [
    ("mutual_exclusion", fun st -> as_remotes_in critical st <= 1);
    (* [R] is excluded here: a remote sits in [R] until the ack of its
       [rel] arrives, by which time the home may already be unlocked *)
    ( "unlocked_means_uncritical",
      fun st ->
        (not (as_home_in unlocked st)) || as_remotes_in critical st = 0 );
  ]
