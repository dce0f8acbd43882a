type mode =
  | Memory of { mutable rev_events : Event.t list }
  | Callback of (Event.t -> unit)
  | Channel of { oc : out_channel; buf : Buffer.t; flush_bytes : int }

module Tags = Hashtbl.Make (String)

(* The series a Send touches, resolved once per sink so the fold of [Net]'s
   events does no registry lookup; per-tag counters are keyed by the tag
   string, whose hash allocates nothing. *)
type send_series = {
  messages : Metrics.counter;
  bits : Metrics.counter;
  message_bits : Metrics.histogram;
  by_tag : Metrics.counter Tags.t;
}

type t = {
  metrics : Metrics.t;
  mode : mode;
  mutable send_series : send_series option;
  mutable count : int;
  (* causality state: the next span/trace id to mint, and the ambient
     context installed by [Net] around delivery continuations and scheduled
     actions, so every event recorded inside one is stamped without the
     emitting layer knowing about causality at all. *)
  mutable next_id : int;
  mutable amb_trace : int;
  mutable amb_span : int;
}

(* The channel buffers its own output, so this buffer only batches the
   calls into it. A small one stays in cache and needs no large heap block:
   freeing such blocks lets the C heap shrink, and whatever allocates next
   page-faults it back. *)
let default_flush_bytes = 4 * 1024

let make ?(next_id = 0) mode =
  if next_id < 0 then invalid_arg "Sink: negative next_id";
  {
    metrics = Metrics.create ();
    mode;
    send_series = None;
    count = 0;
    next_id;
    amb_trace = -1;
    amb_span = -1;
  }

let create ?next_id ?on_event () =
  make ?next_id
    (match on_event with
    | Some f -> Callback f
    | None -> Memory { rev_events = [] })

let to_channel ?next_id ?(flush_bytes = default_flush_bytes) oc =
  let flush_bytes = max 1 flush_bytes in
  make ?next_id
    (Channel { oc; buf = Buffer.create (min flush_bytes default_flush_bytes); flush_bytes })

let metrics t = t.metrics

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let reserve_ids t n =
  if n < 1 then invalid_arg "Sink.reserve_ids: need n >= 1";
  let base = t.next_id in
  t.next_id <- base + n;
  base

let current_trace t = t.amb_trace
let current_span t = t.amb_span
let ambient t = (t.amb_trace, t.amb_span)

let set_ambient t ~trace ~span =
  t.amb_trace <- trace;
  t.amb_span <- span

let clear_ambient t =
  t.amb_trace <- -1;
  t.amb_span <- -1

(* The registry is a fold over the accepted events: [tally] is the only
   place a metric is written. A series is registered by the first event
   that touches it, so a dump lists exactly the series the trace gives rise
   to. A Send or a plain Deliver does no registry lookup (see
   [send_series]); any other event at most two. *)
let inc m ?labels name = Metrics.inc (Metrics.counter m ?labels name)

let shift m name d =
  let g = Metrics.gauge m name in
  Metrics.set g (Metrics.gauge_value g + d)

let send_series t =
  match t.send_series with
  | Some s -> s
  | None ->
      let m = t.metrics in
      let s =
        {
          messages = Metrics.counter m "net_messages_total";
          bits = Metrics.counter m "net_bits_total";
          message_bits = Metrics.histogram m "net_message_bits";
          by_tag = Tags.create 16;
        }
      in
      t.send_series <- Some s;
      s

let tag_counter t s tag =
  match Tags.find s.by_tag tag with
  | c -> c
  | exception Not_found ->
      let c = Metrics.counter t.metrics ~labels:[ ("tag", tag) ] "net_tag_messages_total" in
      Tags.add s.by_tag tag c;
      c

let tally t (kind : Event.kind) =
  let m = t.metrics in
  match kind with
  | Sched { discipline } ->
      Metrics.set
        (Metrics.gauge m ~labels:[ ("discipline", discipline) ] "net_scheduler_info")
        1
  | Send { tag; bits; _ } ->
      let s = send_series t in
      Metrics.inc s.messages;
      Metrics.add s.bits bits;
      Metrics.inc (tag_counter t s tag);
      Metrics.observe s.message_bits bits
  | Deliver { forwarded; reordered; _ } ->
      if forwarded then inc m "net_forwarded_deliveries_total";
      if reordered then inc m "net_reorders_total"
  | Permit_span { ctrl; outcome; latency; moves; _ } ->
      inc m ~labels:[ ("ctrl", ctrl); ("outcome", outcome) ] "ctrl_requests_total";
      Metrics.observe
        (Metrics.histogram m ~labels:[ ("ctrl", ctrl) ] "permit_latency_time")
        latency;
      if moves > 0 then Metrics.add (Metrics.counter m "ctrl_moves_total") moves
  | Reject_wave _ -> inc m "ctrl_reject_waves_total"
  | Epoch _ -> inc m "ctrl_epochs_total"
  | Package_split { level; _ } ->
      inc m ~labels:[ ("level", string_of_int level) ] "pkg_splits_total"
  | Domain_resize _ -> inc m "domain_resizes_total"
  | Domain_assign _ -> shift m "domains_tracked" 1
  | Domain_cancel _ -> shift m "domains_tracked" (-1)
  | Package_created _ | Package_static _ | Package_join _ | Estimate _ | Phase _
  | Custom _ ->
      ()

let record t e =
  tally t e.Event.kind;
  t.count <- t.count + 1;
  match t.mode with
  | Memory m -> m.rev_events <- e :: m.rev_events
  | Callback f -> f e
  | Channel c ->
      Event.add_line c.buf e;
      Buffer.add_char c.buf '\n';
      if Buffer.length c.buf >= c.flush_bytes then begin
        Buffer.output_buffer c.oc c.buf;
        Buffer.clear c.buf
      end

let event ?ctx t ~time kind =
  let ctx =
    match ctx with
    | Some c -> c
    | None ->
        if t.amb_trace < 0 then Event.no_ctx
        else { Event.trace = t.amb_trace; span = t.amb_span; parent = -1 }
  in
  record t { Event.time; ctx; kind }

let flush t =
  match t.mode with
  | Memory _ | Callback _ -> ()
  | Channel c ->
      Buffer.output_buffer c.oc c.buf;
      Buffer.clear c.buf;
      Stdlib.flush c.oc

let events t =
  match t.mode with
  | Memory m -> List.rev m.rev_events
  | Callback _ | Channel _ -> []

let event_count t = t.count

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Event.add_line buf e;
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line = Buffer.create 256 in
      List.iter
        (fun e ->
          Buffer.clear line;
          Event.add_line line e;
          Buffer.add_char line '\n';
          Buffer.output_buffer oc line)
        (events t))

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc
        | line -> go (Event.of_line line :: acc)
      in
      go [])
