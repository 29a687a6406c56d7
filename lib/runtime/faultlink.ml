open Ccr_refine
open Ccr_faults

let rto_s = 0.02
let delay_s = 0.01

type frame = Data of int * Wire.t | Tack of int

(* One direction of a duplex pair.  Sender-side fields are only touched
   by the sending node's domain, receiver-side fields only by the
   receiving node's; the [pipe] and [ready] channels carry data between
   them. *)
type dir = {
  pipe : frame Channel.t;
  (* sender side *)
  mutable next_seq : int;
  mutable unacked : (int * float * Wire.t) list;  (** seq, last sent, msg *)
  mutable delayed : (float * frame) list;
  (* receiver side *)
  mutable expected : int;
  mutable reseq : (int * Wire.t) list;  (** sorted by seq *)
  ready : Wire.t Channel.t;
}

type t = {
  mode : Injected.mode;
  plan : Plan.t;
  cur : Plan.cursor;
  counts : Fault.counts;
  hr : dir array;  (** home → remote i *)
  rh : dir array;  (** remote i → home *)
}

let dir0 () =
  {
    pipe = Channel.create ();
    next_seq = 1;
    unacked = [];
    delayed = [];
    expected = 1;
    reseq = [];
    ready = Channel.create ();
  }

let make ~n ~mode ~plan ~counts =
  {
    mode;
    plan;
    cur = Plan.cursor plan;
    counts;
    hr = Array.init n (fun _ -> dir0 ());
    rh = Array.init n (fun _ -> dir0 ());
  }

(* The direction a channel name denotes, and its reverse (which carries
   the transport acks for it). *)
let dirs t = function
  | Fault.To_r i -> (t.hr.(i), t.rh.(i))
  | Fault.To_h i -> (t.rh.(i), t.hr.(i))

let now () = Unix.gettimeofday ()

let send t ch w =
  let d, _ = dirs t ch in
  let decision = Plan.decide t.plan t.cur ch w in
  match t.mode with
  | Injected.Vanilla -> (
    match decision with
    | Plan.Deliver ->
      t.counts.delivered <- t.counts.delivered + 1;
      Channel.send d.pipe (Data (0, w))
    | Plan.Drop -> t.counts.drops <- t.counts.drops + 1
    | Plan.Dup ->
      t.counts.dups <- t.counts.dups + 1;
      Channel.send d.pipe (Data (0, w));
      Channel.send d.pipe (Data (0, w))
    | Plan.Delay ->
      t.counts.delays <- t.counts.delays + 1;
      d.delayed <- d.delayed @ [ (now () +. delay_s, Data (0, w)) ])
  | Injected.Hardened -> (
    let seq = d.next_seq in
    d.next_seq <- seq + 1;
    d.unacked <- d.unacked @ [ (seq, now (), w) ];
    match decision with
    | Plan.Deliver ->
      t.counts.delivered <- t.counts.delivered + 1;
      Channel.send d.pipe (Data (seq, w))
    | Plan.Drop ->
      (* lost on the wire; the retransmit timeout recovers it *)
      t.counts.drops <- t.counts.drops + 1
    | Plan.Dup ->
      t.counts.dups <- t.counts.dups + 1;
      Channel.send d.pipe (Data (seq, w));
      Channel.send d.pipe (Data (seq, w))
    | Plan.Delay ->
      t.counts.delays <- t.counts.delays + 1;
      d.delayed <- d.delayed @ [ (now () +. delay_s, Data (seq, w)) ])

(* Receiver side: move pipe frames into [ready], acking the reverse
   direction's unacked list on transport acks. *)
let rec pump t ch =
  let d, rev = dirs t ch in
  match Channel.pop d.pipe with
  | None -> ()
  | Some (Tack k) ->
    rev.unacked <- List.filter (fun (s, _, _) -> s > k) rev.unacked;
    pump t ch
  | Some (Data (seq, w)) ->
    (match t.mode with
    | Injected.Vanilla -> Channel.send d.ready w
    | Injected.Hardened ->
      if seq = d.expected then begin
        Channel.send d.ready w;
        d.expected <- seq + 1;
        let rec flush () =
          match d.reseq with
          | (s, w') :: rest when s = d.expected ->
            Channel.send d.ready w';
            d.expected <- s + 1;
            d.reseq <- rest;
            flush ()
          | _ -> ()
        in
        flush ();
        Channel.send rev.pipe (Tack (d.expected - 1))
      end
      else if seq > d.expected then begin
        if not (List.mem_assoc seq d.reseq) then
          d.reseq <-
            List.sort (fun (a, _) (b, _) -> compare a b) ((seq, w) :: d.reseq)
      end
      else begin
        (* stale duplicate: dedup, re-ack so the sender stops *)
        t.counts.absorbed <- t.counts.absorbed + 1;
        Channel.send rev.pipe (Tack (d.expected - 1))
      end);
    pump t ch

let peek t ch =
  pump t ch;
  let d, _ = dirs t ch in
  Channel.peek d.ready

let pop t ch =
  pump t ch;
  let d, _ = dirs t ch in
  Channel.pop d.ready

let tick t ch =
  let d, _ = dirs t ch in
  let tnow = now () in
  let due, later = List.partition (fun (at, _) -> at <= tnow) d.delayed in
  d.delayed <- later;
  List.iter (fun (_, f) -> Channel.send d.pipe f) due;
  if t.mode = Injected.Hardened then
    d.unacked <-
      List.map
        (fun (seq, last, w) ->
          if tnow -. last > rto_s then begin
            t.counts.retransmits <- t.counts.retransmits + 1;
            Channel.send d.pipe (Data (seq, w));
            (seq, tnow, w)
          end
          else (seq, last, w))
        d.unacked

let dir_quiet d =
  Channel.is_empty d.pipe && Channel.is_empty d.ready && d.reseq = []
  && d.unacked = [] && d.delayed = []

let quiet t = Array.for_all dir_quiet t.hr && Array.for_all dir_quiet t.rh

let close t =
  let cl d =
    Channel.close d.pipe;
    Channel.close d.ready
  in
  Array.iter cl t.hr;
  Array.iter cl t.rh

let inbox_length t ch =
  let d, _ = dirs t ch in
  Channel.length d.pipe + Channel.length d.ready + List.length d.reseq

let drain t ch =
  let d, _ = dirs t ch in
  let rec take acc = function
    | None -> List.rev acc
    | Some w -> take (w :: acc) (Channel.pop d.ready)
  in
  let ready = take [] (Channel.pop d.ready) in
  let rec pipe acc =
    match Channel.pop d.pipe with
    | None -> List.rev acc
    | Some (Data (_, w)) -> pipe (w :: acc)
    | Some (Tack _) -> pipe acc
  in
  ready @ pipe [] @ List.map snd d.reseq
