open Ccr_core
open Dsl

(* Figure 2: the home node.  [o] is the current owner, [j] the pending
   requester.  Variables are reset on the way back to [F] so that dead
   values do not inflate the state count. *)
let home ~with_data =
  let data = if with_data then [ v "d" ] else [] in
  let data_vars = if with_data then [ "d" ] else [] in
  let vars =
    [ ("o", Value.Drid); ("j", Value.Drid) ]
    @ if with_data then [ ("d", Value.Drid) ] else []
  in
  process "home" ~vars ~init:"F"
    [
      state "F" [ recv_any "j" "req" [] ~goto:"Fg" ];
      state "Fg"
        [ send_to (v "j") "gr" data ~assigns:[ ("o", v "j") ] ~goto:"E" ];
      state "E"
        [
          recv_from (v "o") "LR" data_vars
            ~assigns:[ ("o", rid 0); ("j", rid 0) ]
            ~goto:"F";
          recv_any "j" "req" [] ~goto:"I1";
        ];
      state "I1"
        [
          send_to (v "o") "inv" [] ~goto:"I2";
          recv_from (v "o") "LR" data_vars ~goto:"I3";
        ];
      state "I2" [ recv_from (v "o") "ID" data_vars ~goto:"I3" ];
      state "I3"
        [ send_to (v "j") "gr" data ~assigns:[ ("o", v "j") ] ~goto:"E" ];
    ]

(* Figure 3: the remote node.  [rw] is the CPU requesting access, [evict]
   a capacity eviction. *)
let remote ~with_data =
  let data = if with_data then [ v "d" ] else [] in
  let data_vars = if with_data then [ "d" ] else [] in
  let reset = if with_data then [ ("d", rid 0) ] else [] in
  let write_tau =
    if with_data then [ tau "write" ~assigns:[ ("d", self) ] ~goto:"V" ]
    else []
  in
  let vars = if with_data then [ ("d", Value.Drid) ] else [] in
  (* Figure 3's [rw] edge and the request it triggers form one atomic
     decision (in the paper's SPIN model they are a single statement):
     state [I] offers the request directly, and the nondeterministic
     moment at which the rendezvous fires models the CPU's timing.  An
     explicit idle state would multiply the rendezvous state space by
     2^n for no behavioral difference. *)
  process "remote" ~vars ~init:"I"
    [
      state "I" [ send_home "req" [] ~goto:"Wg" ];
      state "Wg" [ recv_home "gr" data_vars ~goto:"V" ];
      state "V"
        ([ tau "evict" ~goto:"Ev"; recv_home "inv" [] ~goto:"Iv" ]
        @ write_tau);
      state "Ev" [ send_home "LR" data ~assigns:reset ~goto:"I" ];
      state "Iv" [ send_home "ID" data ~assigns:reset ~goto:"I" ];
    ]

let system ?(with_data = false) () =
  Dsl.system
    (if with_data then "migratory-data" else "migratory")
    ~home:(home ~with_data) ~remote:(remote ~with_data)

(* A remote has read/write permission exactly in [V]. *)
let holding = [ "V" ]

let rv_invariants prog =
  let open Props in
  let holding = remote_states prog holding in
  let free = home_states prog [ "F"; "Fg" ] in
  let owned = home_states prog [ "E"; "I1"; "I2" ] in
  let o = home_var prog "o" in
  [
    ("single_holder", fun st -> rv_remotes_in holding st <= 1);
    ( "free_means_unheld",
      fun st -> (not (rv_home_in free st)) || rv_remotes_in holding st = 0 );
    ( "holder_is_owner",
      fun st ->
        forall_remotes prog.n (fun i ->
            (not (rv_remote_in holding st i))
            || rv_home_in owned st && rv_home_var o st = Value.Vrid i) );
  ]

let async_invariants prog =
  let open Props in
  let holding = remote_states prog holding in
  let free = home_states prog [ "F"; "Fg" ] in
  let owned = home_states prog [ "E"; "I1"; "I2" ] in
  let granting = home_states prog [ "Fg"; "I3" ] in
  let o = home_var prog "o" in
  [
    ("single_holder", fun st -> as_remotes_in holding st <= 1);
    (* under the generic (ack-based) scheme the grantee enters [V] while
       the home still waits in [Fg]/[I3] for the ack of [gr], so "free"
       only makes sense when the home is idle *)
    ( "free_means_unheld",
      fun st ->
        (not (as_home_in free st))
        || (not (as_home_idle st))
        || as_remotes_in holding st = 0 );
    ( "holder_is_owner",
      fun st ->
        forall_remotes prog.n (fun i ->
            (not (as_remote_in holding st i))
            || as_home_in owned st && as_home_var o st = Value.Vrid i
            || as_home_in granting st && as_home_awaits st i) );
  ]
