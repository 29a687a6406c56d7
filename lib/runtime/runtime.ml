open Ccr_faults

type stats = {
  completions : int array;
  rendezvous : int;
  messages : int;
  reqs : int;
  acks : int;
  nacks : int;
  data_msgs : int;
  buf_occupancy : int array;
  steps : int;
  quiescent : bool;
  invariant_failures : string list;
  protocol_errors : string list;
  faults : Fault.fcounts;
  watchdog : (string * string) list;
  wall_s : float;
  stop_cause : string;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%d rendezvous over %d messages in %.2fs (%d node transitions)@,\
     per-remote: %s@,\
     %s%s%s%a%a@]"
    s.rendezvous s.messages s.wall_s s.steps
    (String.concat " "
       (Array.to_list (Array.map string_of_int s.completions)))
    (if s.quiescent then "terminated quiescent"
     else
       match s.stop_cause with
       | "deadline" -> "DEADLINE HIT"
       | "step-cap" -> "STEP CAP HIT"
       | "stall" -> "STALLED"
       | _ -> "STOPPED")
    (match s.invariant_failures with
    | [] -> "; final state coherent"
    | l -> "; INVARIANTS FAILED: " ^ String.concat ", " l)
    (match s.protocol_errors with
    | [] -> ""
    | l -> "; PROTOCOL ERRORS: " ^ String.concat "; " l)
    (fun ppf f ->
      if Fault.injected f > 0 || f.Fault.f_retransmits > 0 then
        Fmt.pf ppf "@,faults: %a" Fault.pp_fcounts f)
    s.faults
    (fun ppf wd ->
      if not s.quiescent then begin
        Fmt.pf ppf "@,stopped: %s" s.stop_cause;
        List.iter (fun (who, what) -> Fmt.pf ppf "@,stuck? %s: %s" who what) wd
      end)
    s.watchdog
