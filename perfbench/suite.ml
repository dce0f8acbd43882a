(* One benchmark run of one workload: rounds of episodes over the run's
   seeds until the time is up, checks over every episode, and the metrics.

   With tracing off the run reports the end-to-end metrics. With tracing on
   it alternates span-traced and untraced episodes (for dist-traced also
   traced episodes without the telemetry sink), runs the bare relay, and
   reports the per-layer metrics. Every episode starts from a collected
   heap. *)

module W = Workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("changes_per_s", "1/s");
    ("alloc_bytes_per_change", "B");
    ("peak_heap_mb", "MB");
    ("cost_per_change", "cost/change");
  ]

let per_layer =
  [
    ("workload.next_op_ns", "ns");
    ("workload.alloc_bytes_per_call", "B");
    ("workload.retry_frac", "ratio");
    ("dtree.build_s", "s");
    ("dtree.apply_ns", "ns");
    ("central.request_ns_p50", "ns");
    ("central.request_ns_p99", "ns");
    ("central.alloc_bytes_per_request", "B");
    ("central.leftover_frac", "ratio");
    ("central.epochs", "count");
    ("net.events", "count");
    ("net.msgs", "count");
    ("net.step_ns", "ns");
    ("net.alloc_bytes_per_msg", "B");
    ("net.bare_ns_per_msg", "ns");
    ("net.bare_alloc_bytes_per_msg", "B");
  ]
  @ List.map
      (fun s -> ("net.msgs." ^ Controller.Dist.suffix_to_string s, "count"))
      W.suffixes
  @ [
      ("net.max_msg_bits", "bit");
      ("net.reorders", "count");
      ("net.sim_ticks", "tick");
      ("net.permit_ticks_p50", "tick");
      ("net.permit_ticks_p99", "tick");
      ("dist.submit_ns", "ns");
      ("dist.granted_frac", "ratio");
      ("dist.reject_msg_frac", "ratio");
      ("dist.max_wb_bits", "bit");
      ("estimator.epochs", "count");
      ("estimator.overhead_msg_frac", "ratio");
      ("estimator.worst_ratio", "ratio");
      ("telemetry.events_per_msg", "ratio");
      ("telemetry.bytes_per_event", "B");
      ("telemetry.alloc_bytes_per_event", "B");
      ("telemetry.overhead_ns_per_msg", "ns");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_bytes_per_change", "B");
      ("trace.overhead_frac", "ratio");
      ("trace.coverage", "ratio");
    ]

type variant = { spans : bool; mode : W.sink_mode }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  deterministic : (string * float) list;
  episodes : int;
  host : float;  (** host slowness the end-to-end timings were divided out of *)
  samples : (string * float list) list;  (** per-episode values behind the medians *)
}

let median = function [] -> 0.0 | xs -> Stats.median xs
let fi = float_of_int
let per_change (e : W.episode) x = x /. fi e.submitted

(* Set an episode up from a collected heap; returns the set-up seconds and
   the timed part. *)
let prepare name ~checks ~seed ~null ?expected_events cfg v =
  Gc.full_major ();
  let tr =
    if v.spans then
      Span.create ~on:true ~keep:[ (Span.central_request, cfg.W.requests) ] ()
    else Span.off
  in
  let t0 = Span.now_ns () in
  let go =
    match name with
    | W.Central_churn -> W.central_churn ~checks ~tr ~seed cfg
    | Dist_estimate -> W.dist_estimate ~checks ~tr ~seed cfg
    | Dist_control -> W.dist_control ~checks ~tr ~seed cfg
    | Dist_traced -> W.dist_traced ?expected_events ~null ~checks ~tr ~seed ~mode:v.mode cfg
  in
  (W.seconds t0 (Span.now_ns ()), go)

let run_episode name ~checks ~seed ~null ?expected_events cfg v =
  let setup_s, go = prepare name ~checks ~seed ~null ?expected_events cfg v in
  { (go ()) with W.setup_s }

(* Set-up samples per run: set-ups of small inputs take milliseconds, so a
   run adds set-up-only repetitions (within a time cap) to take the median
   over enough of them. *)
let setup_samples = 15
let setup_extra_ns = 2_000_000_000

(* The share of a traced timed part its spans' self times must cover; the
   rest is loop glue and the tracer's own bookkeeping between spans. *)
let min_coverage = 0.75

(* Counters that must agree between two episodes of one seed: telemetry's
   only between episodes that ran the same sink. *)
let comparable (e : W.episode) ~same_sink =
  List.filter
    (fun (k, _) -> same_sink || not (String.starts_with ~prefix:"telemetry." k))
    (("cost", fi e.cost) :: e.counters)

let counter (e : W.episode) k = Option.value ~default:0.0 (List.assoc_opt k e.counters)

let write_spans name ~seed (e : W.episode) =
  if Sys.file_exists "_build" && Sys.is_directory "_build" then begin
    let dir = Filename.concat "_build" "perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" (W.to_string name) seed) in
    let oc = open_out path in
    Span.write_jsonl e.tracer oc;
    close_out oc
  end

(* The run's seeds: [seed] itself, then [cfg.seeds - 1] more derived from
   it. Averaging over a few inputs per run keeps one unusual tree from
   moving a run's figures. *)
let seeds_of cfg seed = List.init cfg.W.seeds (fun j -> seed + (7919 * j))

(* Requests per second over a set of episodes: per round (one episode of
   every seed), the requests over the time, then the median over rounds. *)
let throughput eps =
  let rounds = List.sort_uniq Int.compare (List.map (fun (r, _, _) -> r) eps) in
  median
    (List.map
       (fun r ->
         let l = List.filter_map (fun (r', _, e) -> if r' = r then Some e else None) eps in
         let sum f = List.fold_left (fun acc (e : W.episode) -> acc +. f e) 0.0 l in
         sum (fun e -> fi e.submitted) /. sum (fun e -> e.timed_s))
       rounds)

(* Per change over a set of episodes: per seed, the median of [f] over the
   seed's repetitions, summed over seeds, divided by the requests. *)
let per_change_over seeds eps f =
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun s ->
      match List.filter_map (fun (_, s', e) -> if s' = s then Some e else None) eps with
      | [] -> ()
      | (e : W.episode) :: _ as l ->
          num := !num +. median (List.map f l);
          den := !den +. fi e.submitted)
    seeds;
  !num /. !den

let run ?(scale = W.Full) ~name ~seed ~seconds ~trace () =
  let cfg = W.config name scale in
  let checks = Checks.create () in
  let null = open_out_bin "/dev/null" in
  let deadline = Span.now_ns () + int_of_float (seconds *. 1e9) in
  (* a traced round runs every variant of every seed, so one is enough *)
  let min_rounds = if scale = W.Tiny || trace then 1 else 3 in
  let seeds = seeds_of cfg seed in
  let episode ?expected_events s v = run_episode name ~checks ~seed:s ~null ?expected_events cfg v in
  let stream = if name = W.Dist_traced then W.Stream else W.No_sink in
  (* A warm-up episode of [seed] (round -1) grows the heap before anything
     is timed; it is checked but not measured. *)
  let warmup = episode seed { spans = false; mode = stream } in
  (* dist-traced counts [seed]'s events by kind with a callback sink: the
     reference count that seed's streaming episodes, the warm-up included,
     must reproduce *)
  let reference, expected_events =
    if name = W.Dist_traced then begin
      let v = { spans = false; mode = W.Count } in
      let e = episode seed v in
      let n = List.fold_left (fun acc (_, n) -> acc + n) 0 e.events_by_kind in
      Checks.equal_int checks ~what:"warm-up sink event_count" ~expected:n
        (int_of_float (counter warmup "telemetry.events"));
      ([ (-1, seed, v, e) ], Some n)
    end
    else ([], None)
  in
  let cycle =
    if not trace then [ { spans = false; mode = stream } ]
    else if name = W.Dist_traced then
      [ { spans = true; mode = Stream }; { spans = true; mode = No_sink }; { spans = false; mode = Stream } ]
    else [ { spans = true; mode = stream }; { spans = false; mode = stream } ]
  in
  (* The reference kernel runs before every episode from the second round
     on, so the peak heap read after the first round is the workload's
     alone: the peak over one episode of every seed in a fresh process. *)
  let eps = ref [] and rounds = ref 0 and kernel = ref [] and peak_words = ref 0 in
  while !rounds < min_rounds || Span.now_ns () < deadline do
    List.iter
      (fun s ->
        let expected_events = if s = seed then expected_events else None in
        List.iter
          (fun v ->
            if (not trace) && !rounds > 0 then begin
              Gc.full_major ();
              kernel := Calib.seconds () :: !kernel
            end;
            eps := (!rounds, s, v, episode ?expected_events s v) :: !eps)
          cycle)
      seeds;
    if !rounds = 0 then peak_words := (Gc.quick_stat ()).top_heap_words;
    incr rounds
  done;
  (* a one-round run still takes one kernel sample *)
  if (not trace) && !kernel = [] then kernel := [ Calib.seconds () ];
  let eps = ((-1, seed, { spans = false; mode = stream }, warmup) :: reference) @ List.rev !eps in
  let extra_setups =
    if trace then []
    else begin
      let t0 = Span.now_ns () and samples = ref [] in
      while
        List.length eps + List.length !samples < setup_samples
        && Span.now_ns () - t0 < setup_extra_ns
      do
        let s, _ = prepare name ~checks ~seed ~null cfg (List.hd cycle) in
        samples := s :: !samples
      done;
      !samples
    end
  in
  close_out null;
  (* determinism: every episode agrees with the first of its seed, and on
     telemetry with the first of its seed and sink *)
  List.iter
    (fun (_, s, v, e) ->
      let first p = List.find (fun (_, s', v', _) -> s' = s && p v') eps |> fun (_, _, _, e) -> e in
      Checks.deterministic checks ~what:"counters"
        (comparable (first (fun _ -> true)) ~same_sink:false)
        (comparable e ~same_sink:false);
      Checks.deterministic checks ~what:"telemetry counters"
        (comparable (first (fun v' -> v'.mode = v.mode)) ~same_sink:true)
        (comparable e ~same_sink:true))
    eps;
  let select p =
    List.filter_map (fun (r, s, v, e) -> if r >= 0 && p v then Some (r, s, e) else None) eps
  in
  let plain = select (fun v -> (not v.spans) && v.mode = stream) in
  let traced = select (fun v -> v.spans && v.mode = stream) in
  let own l = List.filter_map (fun (_, s, e) -> if s = seed then Some e else None) l in
  let e0 = List.hd (own (if trace then traced else plain)) in
  let med f l = median (List.map (fun (_, _, e) -> f e) l) in
  (* the host's speed over the run relative to a quiet host: end-to-end
     timings are scaled by it (see calib.ml) *)
  let host = if trace then 1.0 else median !kernel /. Calib.nominal_s in
  let metrics =
    if not trace then begin
      let setups = List.map (fun (_, _, (e : W.episode)) -> e.setup_s) plain @ extra_setups in
      [
        ("setup_s", median setups /. host);
        ("changes_per_s", throughput plain *. host);
        ("alloc_bytes_per_change", per_change_over seeds plain (fun e -> e.W.alloc_bytes));
        ("peak_heap_mb", fi (!peak_words * (Sys.word_size / 8)) /. 1048576.0);
        ("cost_per_change", per_change_over seeds plain (fun e -> fi e.W.cost));
      ]
    end
    else begin
      let tr (e : W.episode) = e.tracer in
      let msgs = counter e0 "net.msgs" in
      let per_msg x = if msgs > 0.0 then x /. msgs else 0.0 in
      let bare =
        match name with
        | W.Central_churn -> []
        | _ ->
            let ns, bytes = W.bare_relay ~seed ~msgs:(max 1000 (int_of_float msgs)) cfg in
            [ ("net.bare_ns_per_msg", ns); ("net.bare_alloc_bytes_per_msg", bytes) ]
      in
      let telemetry =
        if name <> W.Dist_traced then []
        else begin
          (* the run seed's traced episodes with and without the sink *)
          let with_sink = own traced and nosink = own (select (fun v -> v.spans && v.mode = No_sink)) in
          let m f l = median (List.map f l) in
          let events = counter e0 "telemetry.events" in
          let step_ns (e : W.episode) = fi (Span.self_ns (tr e) Span.net_step) in
          let alloc (e : W.episode) = e.alloc_bytes in
          [
            ("telemetry.events_per_msg", per_msg events);
            ("telemetry.bytes_per_event", counter e0 "telemetry.bytes" /. events);
            ("telemetry.alloc_bytes_per_event", (m alloc with_sink -. m alloc nosink) /. events);
            ("telemetry.overhead_ns_per_msg", per_msg (m step_ns with_sink -. m step_ns nosink));
          ]
        end
      in
      let deterministic = List.filter (fun (k, _) -> List.mem_assoc k per_layer) e0.counters in
      deterministic @ bare @ telemetry
      @ [
          ("workload.next_op_ns", med (fun e -> Span.self_ns_per_call (tr e) Span.next_op) traced);
          ( "workload.alloc_bytes_per_call",
            med (fun e -> Span.self_bytes_per_call (tr e) Span.next_op) traced );
          ("dtree.build_s", med (fun e -> fi (Span.total_ns (tr e) Span.dtree_build) /. 1e9) traced);
          ("dtree.apply_ns", Span.self_ns_per_call (tr e0) Span.dtree_apply);
          ( "central.request_ns_p50",
            med (fun e -> Span.duration_quantile (tr e) Span.central_request 0.5) traced );
          ( "central.request_ns_p99",
            med (fun e -> Span.duration_quantile (tr e) Span.central_request 0.99) traced );
          ( "central.alloc_bytes_per_request",
            med (fun e -> Span.self_bytes_per_call (tr e) Span.central_request) traced );
          ("net.step_ns", med (fun e -> Span.self_ns_per_call (tr e) Span.net_step) traced);
          ( "net.alloc_bytes_per_msg",
            per_msg (median (List.map (fun e -> Span.self_bytes (tr e) Span.net_step) (own traced))) );
          ("dist.submit_ns", med (fun e -> Span.self_ns_per_call (tr e) Span.dist_submit) traced);
          ("gc.minor_collections", med (fun e -> fi e.W.minor_collections) traced);
          ("gc.major_collections", med (fun e -> fi e.W.major_collections) traced);
          ("gc.promoted_bytes_per_change", per_change_over seeds traced (fun e -> e.W.promoted_bytes));
          ("trace.overhead_frac", 1.0 -. (throughput traced /. throughput plain));
          ( "trace.coverage",
            med (fun e -> fi (Span.timed_self_ns (tr e)) /. (e.W.timed_s *. 1e9)) traced );
        ]
    end
  in
  if trace then begin
    write_spans name ~seed e0;
    let coverage = List.assoc "trace.coverage" metrics in
    if coverage < min_coverage then
      Checks.fail checks "trace.coverage %.3f below %.2f: spans miss part of the timed work" coverage
        min_coverage
  end;
  let units = if trace then per_layer else end_to_end in
  let metrics =
    List.map (fun (k, u) -> (k, Option.value ~default:0.0 (List.assoc_opt k metrics), u)) units
  in
  let all = List.map (fun (_, _, _, e) -> e) eps in
  let sum f = List.fold_left (fun acc (e : W.episode) -> acc + f e) 0 all in
  let attempted = sum (fun e -> e.submitted) in
  let failures = Checks.failures checks in
  let failed = min attempted (sum (fun e -> e.unanswered) + Checks.count checks) in
  let finite = List.for_all (fun (_, x, _) -> Float.is_finite x) metrics in
  let failures = if finite then failures else failures @ [ "a metric is not finite" ] in
  let cps (e : W.episode) = fi e.submitted /. e.timed_s in
  {
    correct = failures = [];
    attempted;
    failed = (if failures <> [] then max 1 failed else failed);
    failures;
    metrics;
    deterministic = ("cost", fi e0.cost) :: e0.counters;
    episodes = List.length all;
    host;
    samples =
      [
        ("setup_s_raw", List.map (fun (e : W.episode) -> e.setup_s) all @ extra_setups);
        ("changes_per_s_raw", List.map cps all);
        ("kernel_s", List.rev !kernel);
        ("alloc_bytes_per_change", List.map (fun e -> per_change e e.W.alloc_bytes) all);
      ];
  }

module Json = Telemetry.Json

(* A non-finite value was already reported as a failed check. *)
let number x = Json.Float (if Float.is_finite x then x else 0.0)

let result_json r =
  Json.to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", number v); ("unit", String u) ])) r.metrics) );
       ])

let env k = Json.String (Option.value ~default:"" (Sys.getenv_opt k))

let meta_json ?(scale = W.Full) name ~seed ~trace r =
  let cfg = W.config name scale in
  Json.to_string
    (Obj
       [
         ( "meta",
           Obj
             [
               ("workload", String (W.to_string name));
               ("seed", Int seed);
               ("seeds", List (List.map (fun s -> Json.Int s) (seeds_of cfg seed)));
               ("trace", Bool trace);
               ("discipline", String (Scheduler.name cfg.discipline));
               ("domains", Int 1);
               ("episodes", Int r.episodes);
               ("host_factor", number r.host);
               ("ocaml", String Sys.ocaml_version);
               ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
               ("SIMNET_SCHEDULER", env "SIMNET_SCHEDULER");
               ("DYNNET_JOBS", env "DYNNET_JOBS");
               ("deterministic", Obj (List.map (fun (k, v) -> (k, number v)) r.deterministic));
               ("samples", Obj (List.map (fun (k, xs) -> (k, Json.List (List.map number xs))) r.samples));
             ] );
       ])
