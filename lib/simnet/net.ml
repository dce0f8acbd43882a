type node = Dtree.node

type addr = Exact of node | Parent_of of node

(* One in-flight event. Cells are pooled: a popped cell is stripped of its
   closure/ctx references and pushed onto a free list, so steady-state
   sends reuse cells instead of minting them — together with the interned
   tag/link ids and the struct-of-arrays event queue, a sink-less send and
   its delivery allocate nothing. A cell doubles as a scheduled [Action]
   ([c_is_action]) so the queue stays monomorphic. *)
type cell = {
  mutable c_src : node;
  mutable c_exact : bool;  (* addressing mode: Exact vs Parent_of *)
  mutable c_node : node;  (* Exact destination, or the Parent_of subject *)
  mutable c_tag : int;  (* interned tag id *)
  mutable c_link : Scheduler.link_id;  (* frozen at send time *)
  mutable c_sseq : int;  (* global send sequence number *)
  mutable c_ctx : Telemetry.Event.ctx;  (* the message's span; [Event.no_ctx]
                                           (a shared constant) when sink-less *)
  mutable c_k : node -> unit;
  mutable c_act : unit -> unit;
  mutable c_is_action : bool;
}

let ignore_node (_ : node) = ()
let ignore_unit () = ()

type t = {
  the_tree : Dtree.t;
  rng : Rng.t;
  max_delay : int;
  sched : Scheduler.t;
  events : cell Event_queue.t;
  forwards : (node, node) Hashtbl.t;  (* deleted node -> adopting parent *)
  tags : Tag.table;  (* this net's wire-tag intern table *)
  (* Dense per-tag / per-link tallies, indexed by the interned ids: the hot
     path is a bare array read-increment — no string join, no hashing, no
     [Some] box. [link_last] starts at -1 ("nothing delivered yet"); the
     arrays grow in step with the intern tables. *)
  mutable by_tag : int array;
  mutable link_last : int array;  (* link_id -> last delivered sseq *)
  mutable link_reorders : int array;
  dummy : cell;  (* fills empty queue slots and pool growth *)
  mutable pool : cell array;  (* free list of released cells *)
  mutable pool_n : int;
  mutable minted : int;  (* cells ever put into circulation; see pool_check *)
  sink : Telemetry.Sink.t option;
  mutable clock : int;
  mutable send_seq : int;
  mutable message_count : int;
  mutable reorder_count : int;
  mutable bits_total : int;
  mutable bits_max : int;
}

let fresh_cell () =
  {
    c_src = -1;
    c_exact = false;
    c_node = -1;
    c_tag = -1;
    c_link = -1;
    c_sseq = -1;
    c_ctx = Telemetry.Event.no_ctx;
    c_k = ignore_node;
    c_act = ignore_unit;
    c_is_action = false;
  }

let create ?(seed = 0x5EED) ?(max_delay = 8) ?scheduler ?sink ~tree () =
  if max_delay < 1 then invalid_arg "Net.create: max_delay must be >= 1";
  let discipline =
    match scheduler with Some d -> d | None -> Scheduler.default ()
  in
  (match sink with
  | None -> ()
  | Some s ->
      let m = Telemetry.Sink.metrics s in
      Telemetry.Metrics.set
        (Telemetry.Metrics.gauge m
           ~labels:[ ("discipline", Scheduler.name discipline) ]
           "net_scheduler_info")
        1;
      Telemetry.Sink.event s ~time:0
        (Telemetry.Event.Sched { discipline = Scheduler.name discipline }));
  {
    the_tree = tree;
    rng = Rng.create ~seed;
    max_delay;
    sched = Scheduler.create discipline;
    events = Event_queue.create ~dummy:(fresh_cell ());
    forwards = Hashtbl.create 32;
    tags = Tag.create ();
    by_tag = Array.make 16 0;
    link_last = Array.make 64 (-1);
    link_reorders = Array.make 64 0;
    dummy = fresh_cell ();
    pool = [||];
    pool_n = 0;
    minted = 0;
    sink;
    clock = 0;
    send_seq = 0;
    message_count = 0;
    reorder_count = 0;
    bits_total = 0;
    bits_max = 0;
  }

let tree t = t.the_tree
let sink t = t.sink
let scheduler t = Scheduler.discipline t.sched

let intern_tag t s =
  let id = Tag.intern t.tags s in
  let n = Tag.count t.tags in
  if n > Array.length t.by_tag then begin
    let bigger = Array.make (max 16 (2 * n)) 0 in
    Array.blit t.by_tag 0 bigger 0 (Array.length t.by_tag);
    t.by_tag <- bigger
  end;
  id

let tag_name t id = Tag.to_string t.tags id

(* Path compression: every node visited on the forwarding chain is pointed
   directly at the final adopter, so repeated resolutions stay O(1) even
   after long internal-deletion sequences. The exception form keeps the
   common not-forwarded case box-free. *)
let rec resolve t v =
  match Hashtbl.find t.forwards v with
  | exception Not_found -> v
  | p ->
      let r = resolve t p in
      (* dynlint: allow zero-alloc — replace of an existing key is in-place *)
      if r <> p then Hashtbl.replace t.forwards v r;
      r
  [@@dynlint.zero_alloc]

let forward_hops t v =
  let rec count v n =
    match Hashtbl.find_opt t.forwards v with
    | None -> n
    | Some p -> count p (n + 1)
  in
  count v 0

let grow_link_tables t n =
  let cap = max 64 (2 * n) in
  let last = Array.make cap (-1) in
  Array.blit t.link_last 0 last 0 (Array.length t.link_last);
  t.link_last <- last;
  let re = Array.make cap 0 in
  Array.blit t.link_reorders 0 re 0 (Array.length t.link_reorders);
  t.link_reorders <- re

let ensure_link_capacity t =
  let n = Scheduler.link_count t.sched in
  if n > Array.length t.link_last then
    (* dynlint: allow zero-alloc — amortized growth, doubling *)
    grow_link_tables t n
  [@@dynlint.zero_alloc]

(* The dummies filling empty queue slots and pool growth are not counted:
   [minted] is exactly the cells that circulate through acquire/release. *)
let mint_cell t =
  t.minted <- t.minted + 1;
  fresh_cell ()

let acquire t =
  if t.pool_n > 0 then begin
    let n = t.pool_n - 1 in
    t.pool_n <- n;
    t.pool.(n)
  end
  else
    (* dynlint: allow zero-alloc — pool miss mints the cell the pool keeps *)
    mint_cell t
  [@@dynlint.zero_alloc]

let grow_pool t =
  let bigger = Array.make (max 16 (2 * t.pool_n)) t.dummy in
  Array.blit t.pool 0 bigger 0 t.pool_n;
  t.pool <- bigger

let release t c =
  (* Drop the closure and span references so a pooled cell retains
     nothing from the message it carried. *)
  c.c_k <- ignore_node;
  c.c_act <- ignore_unit;
  c.c_ctx <- Telemetry.Event.no_ctx;
  c.c_is_action <- false;
  if t.pool_n = Array.length t.pool then
    (* dynlint: allow zero-alloc — amortized growth, doubling *)
    grow_pool t;
  t.pool.(t.pool_n) <- c;
  t.pool_n <- t.pool_n + 1
  [@@dynlint.zero_alloc]

(* Pool conservation check, for tests and debug assertions: every cell
   this net ever minted is accounted for — in flight in the event queue or
   parked in the pool — and parked cells retain nothing from the message
   they carried. Safe to call from inside a delivery continuation or a
   scheduled action: the cell being run is released before its closure is
   invoked. *)
let pool_check t =
  let in_flight = Event_queue.size t.events in
  if in_flight + t.pool_n <> t.minted then
    Error
      (Printf.sprintf
         "Net.pool_check: %d cell(s) minted but %d in flight + %d pooled"
         t.minted in_flight t.pool_n)
  else begin
    let bad = ref None in
    for i = 0 to t.pool_n - 1 do
      let c = t.pool.(i) in
      if
        !bad = None
        && not
             (c.c_k == ignore_node && c.c_act == ignore_unit
             && c.c_ctx == Telemetry.Event.no_ctx
             && not c.c_is_action)
      then bad := Some i
    done;
    match !bad with
    | Some i ->
        Error
          (Printf.sprintf
             "Net.pool_check: pooled cell %d retains message state (not \
              scrubbed)"
             i)
    | None -> Ok ()
  end

(* Cold traced-send path: mint the message's span — a fresh id, parented
   on the ambient span (the delivery continuation or scheduled action
   issuing this send) and inheriting its trace, or rooting a fresh trace
   when sent from outside any causal context — then emit the send metrics
   and event against it. Only runs under a sink; sink-less sends store the
   shared [no_ctx] constant, allocate nothing and consume no ids. *)
let trace_send t s ~src ~exact ~node ~tag ~bits =
  let span = Telemetry.Sink.fresh_id s in
  let parent = Telemetry.Sink.current_span s in
  let trace = if parent < 0 then span else Telemetry.Sink.current_trace s in
  let ctx = { Telemetry.Event.trace; span; parent } in
  let tag_s = Tag.to_string t.tags tag in
  let m = Telemetry.Sink.metrics s in
  Telemetry.Metrics.inc (Telemetry.Metrics.counter m "net_messages_total");
  Telemetry.Metrics.add (Telemetry.Metrics.counter m "net_bits_total") bits;
  Telemetry.Metrics.inc
    (Telemetry.Metrics.counter m ~labels:[ ("tag", tag_s) ]
       "net_tag_messages_total");
  Telemetry.Metrics.observe (Telemetry.Metrics.histogram m "net_message_bits") bits;
  let eaddr =
    if exact then Telemetry.Event.Exact node else Telemetry.Event.Parent_of node
  in
  Telemetry.Sink.event ~ctx s ~time:t.clock
    (Telemetry.Event.Send { src; addr = eaddr; tag = tag_s; bits });
  ctx

let send_cell t ~src ~exact ~node ~tag ~bits k =
  t.message_count <- t.message_count + 1;
  t.bits_total <- t.bits_total + bits;
  if bits > t.bits_max then t.bits_max <- bits;
  let tag_i = (tag : Tag.id :> int) in
  t.by_tag.(tag_i) <- t.by_tag.(tag_i) + 1;
  let ctx =
    match t.sink with
    | None -> Telemetry.Event.no_ctx
    | Some s ->
        (* dynlint: allow zero-alloc — traced runs pay for their telemetry *)
        trace_send t s ~src ~exact ~node ~tag ~bits
  in
  let link =
    if exact then Scheduler.intern_direct t.sched ~src ~dst:(resolve t node)
    else Scheduler.intern_up t.sched (resolve t node)
  in
  ensure_link_capacity t;
  let sseq = t.send_seq in
  t.send_seq <- sseq + 1;
  let time =
    Scheduler.decide t.sched ~rng:t.rng ~max_delay:t.max_delay ~now:t.clock ~link
  in
  let priority = Scheduler.last_priority t.sched in
  let c = acquire t in
  c.c_src <- src;
  c.c_exact <- exact;
  c.c_node <- node;
  c.c_tag <- tag_i;
  c.c_link <- link;
  c.c_sseq <- sseq;
  c.c_ctx <- ctx;
  c.c_k <- k;
  Event_queue.add_prio t.events ~time ~priority c
  [@@dynlint.zero_alloc]

let send t ~src ~addr ~tag ~bits k =
  match addr with
  | Exact d -> send_cell t ~src ~exact:true ~node:d ~tag ~bits k
  | Parent_of v -> send_cell t ~src ~exact:false ~node:v ~tag ~bits k
  [@@dynlint.zero_alloc]

let send_to t ~src ~dst ~tag ~bits k =
  send_cell t ~src ~exact:true ~node:dst ~tag ~bits k
  [@@dynlint.zero_alloc]

let send_up t ~src ~tag ~bits k =
  send_cell t ~src ~exact:false ~node:src ~tag ~bits k
  [@@dynlint.zero_alloc]

let schedule t ?(delay = 1) f =
  if delay < 0 then invalid_arg "Net.schedule: negative delay";
  (* A scheduled action continues the ambient span when there is one (it is
     a local continuation, not a message hop); scheduled from outside any
     context it roots a fresh trace — this is how a request submission
     becomes the root of its causal chain. *)
  let f =
    match t.sink with
    | None -> f
    | Some s ->
        let trace, span =
          let parent = Telemetry.Sink.current_span s in
          if parent >= 0 then (Telemetry.Sink.current_trace s, parent)
          else
            let id = Telemetry.Sink.fresh_id s in
            (id, id)
        in
        fun () ->
          let saved_trace = Telemetry.Sink.current_trace s in
          let saved_span = Telemetry.Sink.current_span s in
          Telemetry.Sink.set_ambient s ~trace ~span;
          f ();
          Telemetry.Sink.set_ambient s ~trace:saved_trace ~span:saved_span
  in
  let c = acquire t in
  c.c_is_action <- true;
  c.c_act <- f;
  Event_queue.add t.events ~time:(t.clock + delay) c

let node_deleted t v ~parent =
  Hashtbl.replace t.forwards v parent;
  Scheduler.on_node_deleted t.sched ~deleted:v ~resolve:(resolve t)

(* Cold traced-delivery path. The deliver event shares the message's span
   (forwarding included: a redirected message keeps the context minted at
   send time), and the span is installed as the ambient context around the
   continuation so every event — and every further send — downstream of
   this delivery is causally linked to it. *)
let trace_deliver t s ~ctx ~src ~target ~tag_i ~sseq ~forwarded ~reordered k =
  Telemetry.Sink.event ~ctx s ~time:t.clock
    (Telemetry.Event.Deliver
       {
         src;
         dst = target;
         tag = Tag.name_of_int t.tags tag_i;
         seq = sseq;
         forwarded;
         reordered;
       });
  let m = Telemetry.Sink.metrics s in
  if forwarded then
    Telemetry.Metrics.inc
      (Telemetry.Metrics.counter m "net_forwarded_deliveries_total");
  if reordered then
    Telemetry.Metrics.inc (Telemetry.Metrics.counter m "net_reorders_total");
  let saved_trace = Telemetry.Sink.current_trace s in
  let saved_span = Telemetry.Sink.current_span s in
  Telemetry.Sink.set_ambient s ~trace:ctx.Telemetry.Event.trace
    ~span:ctx.Telemetry.Event.span;
  k target;
  Telemetry.Sink.set_ambient s ~trace:saved_trace ~span:saved_span

let deliver t c =
  (* Copy the cell out and release it before running the continuation: the
     continuation's own sends reuse the cell immediately. *)
  let src = c.c_src in
  let exact = c.c_exact in
  let anode = c.c_node in
  let tag_i = c.c_tag in
  let link = c.c_link in
  let sseq = c.c_sseq in
  let ctx = c.c_ctx in
  let k = c.c_k in
  release t c;
  let r = resolve t anode in
  let target =
    if exact then r
    else begin
      let p = Dtree.parent_id t.the_tree r in
      if p >= 0 then p
      else r (* the sender became the root: deliver locally *)
    end
  in
  let reordered =
    let last = t.link_last.(link) in
    if last > sseq then begin
      t.link_reorders.(link) <- t.link_reorders.(link) + 1;
      t.reorder_count <- t.reorder_count + 1;
      true
    end
    else begin
      t.link_last.(link) <- sseq;
      false
    end
  in
  match t.sink with
  | None -> k target
  | Some s ->
      (* dynlint: allow zero-alloc — traced runs pay for their telemetry *)
      trace_deliver t s ~ctx ~src ~target ~tag_i ~sseq
        ~forwarded:(r <> anode) ~reordered k
  [@@dynlint.zero_alloc]

let step t =
  if Event_queue.is_empty t.events then false
  else begin
    let time = Event_queue.next_time t.events in
    let c = Event_queue.pop_exn t.events in
    if time > t.clock then t.clock <- time;
    if c.c_is_action then begin
      let f = c.c_act in
      release t c;
      f ()
    end
    else deliver t c;
    true
  end
  [@@dynlint.zero_alloc]

let run t = while step t do () done [@@dynlint.zero_alloc]
let now t = t.clock
let messages t = t.message_count
let reorders t = t.reorder_count

(* Reporting: decorate with the string key once, sort on it, strip —
   [link_to_string]/[to_string] never run inside the comparator. *)
let reorders_by_link t =
  let acc = ref [] in
  let n = min (Scheduler.link_count t.sched) (Array.length t.link_reorders) in
  for id = n - 1 downto 0 do
    let count = t.link_reorders.(id) in
    if count > 0 then begin
      let l = Scheduler.link_of_id t.sched id in
      acc := (Scheduler.link_to_string l, l, count) :: !acc
    end
  done;
  List.sort (fun (ka, _, _) (kb, _, _) -> String.compare ka kb) !acc
  |> List.map (fun (_, l, count) -> (l, count))

let messages_by_tag t =
  let acc = ref [] in
  Tag.iter t.tags ~f:(fun id s ->
      let count = t.by_tag.((id :> int)) in
      if count > 0 then acc := (s, count) :: !acc);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let max_message_bits t = t.bits_max
let total_bits t = t.bits_total
