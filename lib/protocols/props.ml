open Ccr_core
open Ccr_semantics
open Ccr_refine

type home_states = bool array
type remote_states = bool array
type home_var = int
type remote_var = int

let refuse side (proc : Prog.proc) what name =
  invalid_arg
    (Printf.sprintf "Props: %s process %S has no %s %S" side proc.p_name what
       name)

let states side (proc : Prog.proc) names =
  let set = Array.make (Array.length proc.p_states) false in
  List.iter
    (fun name ->
      match Prog.state_index proc name with
      | i -> set.(i) <- true
      | exception Not_found -> refuse side proc "control state" name)
    names;
  set

let var side (proc : Prog.proc) name =
  match Prog.var_index proc name with
  | i -> i
  | exception Not_found -> refuse side proc "variable" name

let home_states (prog : Prog.t) names = states "home" prog.home names
let remote_states (prog : Prog.t) names = states "remote" prog.remote names
let home_var (prog : Prog.t) name = var "home" prog.home name
let remote_var (prog : Prog.t) name = var "remote" prog.remote name

let rv_remotes_in set (st : Rendezvous.state) =
  let c = ref 0 in
  for i = 0 to Array.length st.r - 1 do
    if set.(st.r.(i).ctl) then incr c
  done;
  !c

let rv_remote_in set (st : Rendezvous.state) i = set.(st.r.(i).ctl)
let rv_home_in set (st : Rendezvous.state) = set.(st.h.ctl)
let rv_home_var x (st : Rendezvous.state) = st.h.env.(x)
let rv_remote_var x (st : Rendezvous.state) i = st.r.(i).env.(x)

let as_remotes_in set (st : Async.state) =
  let c = ref 0 in
  for i = 0 to Array.length st.r - 1 do
    if set.(st.r.(i).r_ctl) then incr c
  done;
  !c

let as_remote_in set (st : Async.state) i = set.(st.r.(i).r_ctl)
let as_home_in set (st : Async.state) = set.(st.h.h_ctl)
let as_home_var x (st : Async.state) = st.h.h_env.(x)
let as_remote_var x (st : Async.state) i = st.r.(i).r_env.(x)

let as_home_idle (st : Async.state) =
  match st.h.h_mode with Async.Hcomm -> true | Async.Htrans _ -> false

let as_home_awaits (st : Async.state) i =
  match st.h.h_mode with
  | Async.Hcomm -> false
  | Async.Htrans { peer; _ } -> peer = i

let forall_remotes n f =
  let rec loop i = i >= n || (f i && loop (i + 1)) in
  loop 0
