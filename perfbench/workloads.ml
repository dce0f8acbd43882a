(* The benchmark's four workloads, driven through the libraries' public
   functions only. Each episode builds its inputs from the seed, runs a fixed
   request stream as the timed part, drains the network, and checks the
   outputs. Episodes of one seed repeat exactly, so the deterministic
   counters they report must agree (see [Checks.deterministic]).

   - [Central_churn]: the [Adaptive] controller on a 2^20-node random tree
     under churn (E14's first row). Dtree, Workload and the permit packages
     do all the work; Net, Dist, the estimators and telemetry do none.
   - [Dist_estimate]: [Subtree_estimator_dist] riding the [Dist] agents over
     [Net] on a 10^5-node tree, one request in flight (E15). Message-bound:
     [Net.step] is the whole blocking path and the event queue stays tiny.
   - [Dist_control]: the distributed (M,W) controller in reject-wave mode on
     a 4-ary balanced tree of 2^14 nodes, 32 requests in flight under
     [Adversarial_lifo]. Lock waits, a large queue, newest-first windows,
     [next_op_avoiding] reservations, and one late reject wave. The shape is
     the same for every seed, so only the request stream varies.
   - [Dist_traced]: [Size_estimation] (Theorem 5.1, E6's request loop, 4
     requests in flight) on a 4-ary balanced tree of 8k nodes with a
     streaming JSONL sink to the null device: the only workload where
     telemetry runs. *)

open Controller
module Sd = Estimator.Subtree_estimator_dist
module Se = Estimator.Size_estimation

type name = Central_churn | Dist_estimate | Dist_control | Dist_traced

let all = [ Central_churn; Dist_estimate; Dist_control; Dist_traced ]

let to_string = function
  | Central_churn -> "central-churn"
  | Dist_estimate -> "dist-estimate"
  | Dist_control -> "dist-control"
  | Dist_traced -> "dist-traced"

let of_string s = List.find_opt (fun w -> to_string w = s) all

type scale = Full | Tiny

type config = {
  n0 : int;
  shape : Workload.Shape.t;  (** the initial tree, of [n0] nodes *)
  requests : int;  (** per episode *)
  concurrency : int;  (** requests in flight *)
  discipline : Scheduler.discipline;  (** passed explicitly to [Net.create] *)
  seeds : int;  (** inputs per run, derived from the run's seed *)
}

let config name scale =
  let tiny = scale = Tiny in
  match name with
  | Central_churn ->
      let n0 = if tiny then 1 lsl 10 else 1 lsl 20 in
      {
        n0;
        shape = Random n0;
        requests = n0 / 8;
        concurrency = 1;
        discipline = Scheduler.Fifo_link;
        seeds = (if tiny then 2 else 3);
      }
  | Dist_estimate ->
      let n0 = if tiny then 500 else 100_000 in
      {
        n0;
        shape = Random n0;
        requests = (if tiny then 400 else 50_000);
        concurrency = 1;
        discipline = Scheduler.Fifo_link;
        seeds = (if tiny then 2 else 3);
      }
  | Dist_control ->
      let n0 = if tiny then 256 else 1 lsl 14 in
      {
        n0;
        shape = Balanced (4, n0);
        requests = (if tiny then 512 else 1 lsl 13);
        concurrency = (if tiny then 8 else 32);
        discipline = Scheduler.Adversarial_lifo { window = 8 };
        seeds = (if tiny then 2 else 8);
      }
  | Dist_traced ->
      let n0 = if tiny then 256 else 8192 in
      {
        n0;
        shape = Balanced (4, n0);
        requests = (if tiny then 256 else 8192);
        concurrency = 4;
        discipline = Scheduler.Fifo_link;
        seeds = (if tiny then 2 else 8);
      }

(* Permits for [Dist_control]: most requests are granted, and the reject
   wave floods once, late in the run. *)
let control_budget cfg =
  let m = cfg.requests - (cfg.requests / 16) in
  (m, m / 16)

let beta = 2.0

(* How [Dist_traced] records telemetry: a streaming JSONL sink (the
   workload), a counting callback sink (the reference event count), or no
   sink (the untraced baseline of telemetry's overhead). *)
type sink_mode = Stream | Count | No_sink

type episode = {
  setup_s : float;
  timed_s : float;
  submitted : int;
  unanswered : int;  (** requests not answered exactly once *)
  alloc_bytes : float;  (** timed part *)
  minor_collections : int;
  major_collections : int;
  promoted_bytes : float;
  cost : int;  (** messages (incl. estimator overhead) or moves *)
  counters : (string * float) list;  (** deterministic, fixed order *)
  events_by_kind : (string * int) list;  (** [Count] sink only *)
  tracer : Span.t;
}

let word_bytes = float_of_int (Sys.word_size / 8)

(* [Gc.quick_stat]'s word counts lag until the next collection in OCaml 5;
   [Gc.counters] includes the current minor heap. *)
type gc_mark = { wall : int; s : Gc.stat; allocated : float }

let mark () =
  let minor, promoted, major = Gc.counters () in
  let s = Gc.quick_stat () in
  { wall = Span.now_ns (); s; allocated = (minor +. major -. promoted) *. word_bytes }

let seconds a b = float_of_int (b - a) /. 1e9

let finish ~m0 ~m1 ~submitted ~unanswered ~cost ~counters ?(events_by_kind = []) tracer =
  {
    setup_s = 0.0;
    timed_s = seconds m0.wall m1.wall;
    submitted;
    unanswered;
    alloc_bytes = m1.allocated -. m0.allocated;
    minor_collections = m1.s.minor_collections - m0.s.minor_collections;
    major_collections = m1.s.major_collections - m0.s.major_collections;
    promoted_bytes = (m1.s.promoted_words -. m0.s.promoted_words) *. word_bytes;
    cost;
    counters;
    events_by_kind;
    tracer;
  }

let build_tree tr ~seed cfg =
  Span.span tr Span.dtree_build (fun () -> Workload.Shape.build (Rng.create ~seed) cfg.shape)

let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* central-churn                                                       *)

let central_churn ~checks ~tr ~seed cfg =
  let tree = build_tree tr ~seed cfg in
  let m = cfg.n0 / 4 and w = cfg.n0 / 32 in
  let ctrl = Span.span tr Span.central_create (fun () -> Adaptive.create ~m ~w ~tree ()) in
  let wl = Workload.make ~seed:(seed + 1) ~mix:Workload.Mix.churn () in
  let answers = Array.make cfg.requests 0 in
  (* the granted op stream, kept for the Dtree replay of a traced run *)
  let ops = Array.make (if Span.on tr then cfg.requests else 0) (Workload.Non_topological 0) in
  let granted = ref 0 and rejected = ref 0 in
  fun () ->
  let m0 = mark () in
  for i = 0 to cfg.requests - 1 do
    Span.enter tr Span.next_op;
    let op = Workload.next_op wl tree in
    Span.leave tr;
    Span.enter tr Span.central_request;
    let outcome = Adaptive.request ctrl op in
    Span.leave tr;
    match outcome with
    | Types.Granted ->
        if Span.on tr then ops.(!granted) <- op;
        incr granted;
        answers.(i) <- answers.(i) + 1
    | Types.Rejected ->
        incr rejected;
        answers.(i) <- answers.(i) + 1
    | Types.Exhausted -> ()
  done;
  let m1 = mark () in
  let unanswered = Checks.answered_once checks ~what:"central-churn" answers in
  Checks.equal_int checks ~what:"Adaptive.granted" ~expected:!granted (Adaptive.granted ctrl);
  Checks.budget checks ~granted:!granted ~rejected:!rejected ~m ~w;
  Checks.tree checks tree;
  if Span.on tr then begin
    let trace =
      {
        Workload.Trace.build_seed = seed;
        shape = cfg.shape;
        ops = Array.to_list (Array.sub ops 0 !granted);
      }
    in
    let replayed =
      Workload.Trace.replay trace ~f:(fun t op ->
          Span.enter tr Span.dtree_apply;
          Workload.apply t op;
          Span.leave tr)
    in
    Checks.equal_int checks ~what:"replayed tree size" ~expected:(Dtree.size tree)
      (Dtree.size replayed)
  end;
  let moves = Adaptive.moves ctrl in
  finish ~m0 ~m1 ~submitted:cfg.requests ~unanswered ~cost:moves
    ~counters:
      [
        ("central.moves", fi moves);
        ("central.granted", fi !granted);
        ("central.leftover_frac", fi (Adaptive.leftover ctrl) /. fi m);
        ("central.epochs", fi (Adaptive.epochs ctrl));
        ("dtree.size", fi (Dtree.size tree));
      ]
    tr

(* ------------------------------------------------------------------ *)
(* The request pump shared by the Net workloads                        *)

type pump = {
  answers : int array;
  ticks : int array;  (** simulated ticks from submit to answer *)
  mutable attempts : int;
  mutable retries : int;
  mutable granted : int;
  mutable rejected : int;
  mutable events : int;
}

(* Keep [concurrency] requests in flight until [requests] were submitted,
   then drain the network. With more than one in flight, requests reserve
   the nodes they touch so that concurrent changes never conflict (as
   [Dist_harness.run_on] does); a [None] from [next_op_avoiding] is a retry
   three ticks later. [on_answer] runs at every answer. *)
let drive ~tr ~net ~wl ~cfg ~submit_b ~submit ~on_answer =
  let tree = Net.tree net in
  let p =
    {
      answers = Array.make cfg.requests 0;
      ticks = Array.make cfg.requests 0;
      attempts = 0;
      retries = 0;
      granted = 0;
      rejected = 0;
      events = 0;
    }
  in
  let reserved : (Dtree.node, int) Hashtbl.t = Hashtbl.create 64 in
  let reserve v =
    Hashtbl.replace reserved v (1 + Option.value ~default:0 (Hashtbl.find_opt reserved v))
  in
  let release v =
    match Hashtbl.find_opt reserved v with
    | Some 1 | None -> Hashtbl.remove reserved v
    | Some n -> Hashtbl.replace reserved v (n - 1)
  in
  let forbidden v = Hashtbl.mem reserved v in
  let submitted = ref 0 in
  let rec pump () =
    if !submitted < cfg.requests then begin
      p.attempts <- p.attempts + 1;
      Span.enter tr Span.next_op;
      let op =
        if cfg.concurrency = 1 then Some (Workload.next_op wl tree)
        else Workload.next_op_avoiding wl tree ~forbidden
      in
      Span.leave tr;
      match op with
      | None ->
          p.retries <- p.retries + 1;
          Net.schedule net ~delay:3 pump
      | Some op ->
          let i = !submitted in
          incr submitted;
          let nodes =
            if cfg.concurrency = 1 then []
            else
              List.sort_uniq Int.compare (Workload.request_site tree op :: Workload.touched tree op)
          in
          List.iter reserve nodes;
          let t0 = Net.now net in
          Span.enter tr submit_b;
          submit op (fun outcome ->
              Span.enter tr Span.bench_k;
              List.iter release nodes;
              p.answers.(i) <- p.answers.(i) + 1;
              p.ticks.(i) <- Net.now net - t0;
              (match outcome with
              | Types.Granted -> p.granted <- p.granted + 1
              | Types.Rejected -> p.rejected <- p.rejected + 1
              | Types.Exhausted -> ());
              on_answer ();
              pump ();
              Span.leave tr);
          Span.leave tr
    end
  in
  for _ = 1 to cfg.concurrency do
    pump ()
  done;
  let go = ref true in
  while !go do
    Span.enter tr Span.net_step;
    let stepped = Net.step net in
    Span.leave tr;
    if stepped then p.events <- p.events + 1 else go := false
  done;
  p

let suffixes =
  [ Dist.Agent_down; Agent_reject; Agent_release; Agent_return; Agent_unlock; Agent_up; Reject_wave ]

(* Messages per [Dist.suffix], summed over every controller name prefix. *)
let msgs_by_suffix net =
  let by_tag = Net.messages_by_tag net in
  List.map
    (fun s ->
      let sfx = "-" ^ Dist.suffix_to_string s in
      let n =
        List.fold_left
          (fun acc (tag, n) -> if String.ends_with ~suffix:sfx tag then acc + n else acc)
          0 by_tag
      in
      (Dist.suffix_to_string s, n))
    suffixes

let net_counters net p ~extra_msgs =
  let msgs = Net.messages net in
  [
    ("net.msgs", fi msgs);
    ("net.events", fi p.events);
    ("net.max_msg_bits", fi (Net.max_message_bits net));
    ("net.reorders", fi (Net.reorders net));
    ("net.sim_ticks", fi (Net.now net));
    ("net.permit_ticks_p50", Span.quantile p.ticks 0.5);
    ("net.permit_ticks_p99", Span.quantile p.ticks 0.99);
    ("workload.retry_frac", fi p.retries /. fi (max 1 p.attempts));
    ("estimator.overhead_msg_frac", fi extra_msgs /. fi (max 1 (msgs + extra_msgs)));
  ]
  @ List.map (fun (s, n) -> ("net.msgs." ^ s, fi n)) (msgs_by_suffix net)

let net_checks checks ~what net tree p =
  let unanswered = Checks.answered_once checks ~what p.answers in
  Checks.pool checks net;
  Checks.tree checks tree;
  unanswered

(* ------------------------------------------------------------------ *)
(* dist-estimate                                                       *)

let dist_estimate ~checks ~tr ~seed cfg =
  let tree = build_tree tr ~seed cfg in
  let net =
    Span.span tr Span.net_create (fun () ->
        Net.create ~seed:(seed + 1) ~scheduler:cfg.discipline ~tree ())
  in
  let st = Span.span tr Span.estimator_create (fun () -> Sd.create ~net ()) in
  let wl = Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn () in
  let root = Dtree.root tree in
  let worst = ref 1.0 and low = ref 0 in
  let on_answer () =
    let e = Sd.estimate st root and sw = Sd.super_weight st root in
    (* one unit of slack per in-flight request (see Subtree_estimator_dist) *)
    if e + cfg.concurrency < sw then incr low;
    if sw > 0 then worst := Float.max !worst (fi e /. fi sw)
  in
  fun () ->
  let m0 = mark () in
  let p =
    drive ~tr ~net ~wl ~cfg ~submit_b:Span.estimator_submit
      ~submit:(fun op k -> Sd.submit st op ~k:(fun () -> k Types.Granted))
      ~on_answer
  in
  let m1 = mark () in
  let unanswered = net_checks checks ~what:"dist-estimate" net tree p in
  Checks.equal_int checks ~what:"answers below the super-weight" ~expected:0 !low;
  let extra = Sd.overhead_messages st in
  finish ~m0 ~m1 ~submitted:cfg.requests ~unanswered ~cost:(Net.messages net + extra)
    ~counters:
      (net_counters net p ~extra_msgs:extra
      @ [
          ("estimator.epochs", fi (Sd.epochs st));
          ("estimator.worst_ratio", !worst);
          ("dtree.size", fi (Dtree.size tree));
        ])
    tr

(* ------------------------------------------------------------------ *)
(* dist-control                                                        *)

let dist_control ~checks ~tr ~seed cfg =
  let tree = build_tree tr ~seed cfg in
  let net =
    Span.span tr Span.net_create (fun () ->
        Net.create ~seed:(seed + 1) ~scheduler:cfg.discipline ~tree ())
  in
  let m, w = control_budget cfg in
  let params = Params.make ~m ~w ~u:(cfg.n0 + cfg.requests) in
  let d = Span.span tr Span.dist_create (fun () -> Dist.create ~params ~net ()) in
  let wl = Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn () in
  fun () ->
  let m0 = mark () in
  let p =
    drive ~tr ~net ~wl ~cfg ~submit_b:Span.dist_submit
      ~submit:(fun op k -> Dist.submit d op ~k)
      ~on_answer:ignore
  in
  let m1 = mark () in
  let unanswered = net_checks checks ~what:"dist-control" net tree p in
  Checks.locks checks d;
  Checks.equal_int checks ~what:"Dist.granted" ~expected:p.granted (Dist.granted d);
  Checks.equal_int checks ~what:"Dist.rejected" ~expected:p.rejected (Dist.rejected d);
  Checks.budget checks ~granted:p.granted ~rejected:p.rejected ~m ~w;
  let msgs = Net.messages net in
  let by_sfx = msgs_by_suffix net in
  let reject_msgs = List.assoc "agent-reject" by_sfx + List.assoc "reject-wave" by_sfx in
  finish ~m0 ~m1 ~submitted:cfg.requests ~unanswered ~cost:msgs
    ~counters:
      (net_counters net p ~extra_msgs:0
      @ [
          ("dist.granted_frac", fi p.granted /. fi cfg.requests);
          ("dist.reject_msg_frac", fi reject_msgs /. fi (max 1 msgs));
          ("dist.max_wb_bits", fi (Dist.max_wb_bits d));
          ("dtree.size", fi (Dtree.size tree));
        ])
    tr

(* ------------------------------------------------------------------ *)
(* dist-traced                                                         *)

let kind_name (e : Telemetry.Event.t) =
  match e.kind with
  | Telemetry.Event.Send _ -> "send"
  | Deliver _ -> "deliver"
  | Permit_span _ -> "permit_span"
  | Sched _ -> "sched"
  | _ -> "other"

(* [expected_events]: the event count of a [Count] episode of the same
   seed, which a [Stream] episode's sink must reproduce. [null] is the
   channel a [Stream] sink writes to, opened by the caller on the null
   device. *)
let dist_traced ?expected_events ~null ~checks ~tr ~seed ~mode cfg =
  let tree = build_tree tr ~seed cfg in
  let counts = Hashtbl.create 8 in
  let bytes0 = pos_out null in
  let sink =
    match mode with
    | Stream -> Some (Telemetry.Sink.to_channel null)
    | Count ->
        Some
          (Telemetry.Sink.create
             ~on_event:(fun e ->
               let k = kind_name e in
               Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
             ())
    | No_sink -> None
  in
  let net =
    Span.span tr Span.net_create (fun () ->
        Net.create ~seed:(seed + 1) ~scheduler:cfg.discipline ?sink ~tree ())
  in
  let se = Span.span tr Span.estimator_create (fun () -> Se.create ~beta ~net ()) in
  let wl = Workload.make ~seed:(seed + 2) ~mix:Workload.Mix.churn () in
  let root = Dtree.root tree in
  let worst = ref 1.0 in
  let on_answer () =
    let n = fi (Dtree.size tree) and e = fi (Se.estimate se root) in
    let r = if e > n then e /. n else n /. e in
    if r > !worst then worst := r
  in
  fun () ->
  let m0 = mark () in
  let p =
    drive ~tr ~net ~wl ~cfg ~submit_b:Span.estimator_submit
      ~submit:(fun op k -> Se.submit se op ~k:(fun () -> k Types.Granted))
      ~on_answer
  in
  Option.iter
    (fun s -> Span.span tr Span.telemetry_flush (fun () -> Telemetry.Sink.flush s))
    sink;
  let m1 = mark () in
  let unanswered = net_checks checks ~what:"dist-traced" net tree p in
  Checks.ratio_within checks ~what:"size estimate at every answer" ~worst:!worst ~bound:beta;
  let msgs = Net.messages net in
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let telemetry =
    match sink with
    | None -> []
    | Some s ->
        let total =
          Telemetry.Metrics.counter_value
            (Telemetry.Metrics.counter (Telemetry.Sink.metrics s) "net_messages_total")
        in
        Checks.equal_int checks ~what:"net_messages_total vs Net.messages" ~expected:msgs total;
        let events = Telemetry.Sink.event_count s in
        (match mode with
        | Count ->
            Checks.equal_int checks ~what:"Send events vs Net.messages" ~expected:msgs (count "send");
            Checks.equal_int checks ~what:"Deliver events vs Net.messages" ~expected:msgs
              (count "deliver");
            Checks.equal_int checks ~what:"Sched events" ~expected:1 (count "sched");
            if count "permit_span" < cfg.requests then
              Checks.fail checks "Permit_span events: %d for %d requests" (count "permit_span")
                cfg.requests
        | Stream | No_sink -> ());
        Option.iter
          (fun expected -> Checks.equal_int checks ~what:"sink event_count" ~expected events)
          expected_events;
        let bytes = pos_out null - bytes0 in
        [ ("telemetry.events", fi events); ("telemetry.bytes", fi bytes) ]
  in
  let extra = Se.overhead_messages se in
  finish ~m0 ~m1 ~submitted:cfg.requests ~unanswered ~cost:(msgs + extra)
    ~counters:
      (net_counters net p ~extra_msgs:extra
      @ [
          ("estimator.epochs", fi (Se.epochs se));
          ("estimator.worst_ratio", !worst);
          ("dtree.size", fi (Dtree.size tree));
        ]
      @ telemetry)
    ~events_by_kind:
      (List.map (fun k -> (k, count k)) [ "send"; "deliver"; "permit_span"; "sched"; "other" ])
    tr

(* ------------------------------------------------------------------ *)
(* The bare relay: Net + Event_queue + Scheduler without a protocol     *)

(* [concurrency] relays, each climbing from a random node to the root by
   [send_up] and starting again, until [msgs] messages were sent. The
   continuation is one static closure, so the protocol side allocates
   nothing and does no work: what remains is the network's own cost per
   message. A first pass interns every link; the second, measured pass is
   the network's steady state. Returns [(ns_per_msg, alloc_bytes_per_msg)]. *)
let bare_relay ~seed ~msgs cfg =
  let tree = Workload.Shape.build (Rng.create ~seed) cfg.shape in
  let net = Net.create ~seed:(seed + 1) ~scheduler:cfg.discipline ~tree () in
  let tag = Net.intern_tag net "relay" in
  let root = Dtree.root tree in
  let rng = Rng.create ~seed:(seed + 2) in
  let nodes = Array.of_list (Dtree.live_nodes tree) in
  let sent = ref 0 in
  let rec hop v =
    if v = root then start ()
    else begin
      incr sent;
      Net.send_up net ~src:v ~tag ~bits:32 hop
    end
  and start () = if !sent < msgs then hop nodes.(Rng.int rng (Array.length nodes)) in
  let pass () =
    sent := 0;
    for _ = 1 to cfg.concurrency do
      start ()
    done;
    while Net.step net do
      ()
    done
  in
  pass ();
  let before = Net.messages net in
  let m0 = mark () in
  pass ();
  let m1 = mark () in
  let n = fi (Net.messages net - before) in
  (fi (m1.wall - m0.wall) /. n, (m1.allocated -. m0.allocated) /. n)
