(* ctrl_sim: drive the dynamic-network controllers and estimators from the
   command line.

     dune exec bin/ctrl_sim.exe -- run --controller adaptive --shape random \
       --n0 256 --requests 2000 --mix churn --budget 1024 --waste 64
     dune exec bin/ctrl_sim.exe -- run --controller dist --seeds 8 -j 4
     dune exec bin/ctrl_sim.exe -- size-est --n0 200 --changes 1000 --beta 2.0
     dune exec bin/ctrl_sim.exe -- names --n0 200 --changes 1000
     dune exec bin/ctrl_sim.exe -- trace capture --out /tmp/x.trace --steps 500
     dune exec bin/ctrl_sim.exe -- trace run --in /tmp/x.trace --budget 300 *)

open Cmdliner
open Controller

(* ------------------------------------------------------------------ *)
(* shared argument parsing                                             *)

let shape_of ~n = function
  | "path" -> Workload.Shape.Path n
  | "star" -> Workload.Shape.Star n
  | "random" -> Workload.Shape.Random n
  | "balanced" -> Workload.Shape.Balanced (2, n)
  | "caterpillar" -> Workload.Shape.Caterpillar n
  | s -> invalid_arg ("unknown shape: " ^ s)

let mix_of = function
  | "grow" -> Workload.Mix.grow_only
  | "churn" -> Workload.Mix.churn
  | "shrink" -> Workload.Mix.shrink_heavy
  | "events" -> Workload.Mix.mixed_events
  | s -> invalid_arg ("unknown mix: " ^ s)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"enable debug logging")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  if verbose then Logs.Src.set_level Controller.Central.log_src (Some Logs.Debug)

let shape_arg =
  Arg.(value & opt string "random"
       & info [ "shape" ] ~doc:"path|star|random|balanced|caterpillar")

let mix_arg =
  Arg.(value & opt string "churn" & info [ "mix" ] ~doc:"grow|churn|shrink|events")

let scheduler_conv =
  let parse s =
    match Scheduler.of_string s with Ok d -> Ok d | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Scheduler.name d))

let scheduler_arg =
  Arg.(value & opt (some scheduler_conv) None
       & info [ "scheduler" ] ~docv:"NAME"
           ~doc:"message delivery discipline: fifo_link|random_delay|adversarial_lifo[:W]|bursty[:P] \
                 (default fifo_link, overridable via $(b,SIMNET_SCHEDULER))")

let n0_arg = Arg.(value & opt int 128 & info [ "n0" ] ~doc:"initial network size")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")
let budget_arg = Arg.(value & opt int 512 & info [ "budget"; "m" ] ~doc:"permit budget M")
let waste_arg = Arg.(value & opt int 64 & info [ "waste"; "w" ] ~doc:"waste bound W")

(* ------------------------------------------------------------------ *)
(* telemetry plumbing                                                  *)

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"write a Prometheus-style metrics dump to $(docv) at the end of the run")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"write the structured event trace (JSONL, one event per line) to $(docv)")

let perfetto_out_arg =
  Arg.(value & opt (some string) None
       & info [ "perfetto-out" ] ~docv:"FILE"
           ~doc:"write a Chrome/Perfetto trace_event JSON rendering of the run's \
                 event trace to $(docv) (load it at ui.perfetto.dev)")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"run independent seeds over $(docv) domains (0 = take \
                 $(b,DYNNET_JOBS), default 1); results are printed in seed \
                 order and are identical to a sequential run")

let seeds_arg =
  Arg.(value & opt int 1
       & info [ "seeds" ] ~docv:"K"
           ~doc:"run the scenario for $(docv) consecutive seeds starting at \
                 --seed; with --trace-out the per-seed traces go to \
                 FILE.<seed>, with --metrics-out the per-seed registries are \
                 merged into one dump")

let effective_jobs j = if j <= 0 then Pool.default_jobs () else j

(* An output file, opened before the simulation that fills it. *)
type output = { path : string; oc : out_channel }

(* Open every output file before any simulation runs: [open_all] opens
   them through the function it is given, and [k] runs on the result. An
   unwritable path is then a usage error naming the path (exit 124), not
   an uncaught Sys_error once the results are printed; the files opened
   before the failing one are closed again. *)
let with_outputs open_all k =
  let opened = ref [] in
  let open_output path =
    let oc = open_out path in
    opened := oc :: !opened;
    { path; oc }
  in
  match open_all open_output with
  | outputs -> `Ok (k outputs)
  | exception Sys_error msg ->
      List.iter close_out_noerr !opened;
      `Error (false, "cannot write output: " ^ msg)

let write_output out contents =
  Fun.protect
    ~finally:(fun () -> close_out out.oc)
    (fun () -> output_string out.oc contents)

(* Build the sink for one task: a metrics registry whenever any output was
   requested, streaming JSONL to the trace file when there is one —
   [Sink.to_channel], so an arbitrarily long trace keeps O(1) heap instead
   of pinning every event until the end of the run. [f sink] runs the
   task; the trace channel is flushed and closed afterwards, and the trace
   line is reported to [ppf]. *)
let with_sink ~metrics ?trace ?perfetto ppf f =
  if (not metrics) && trace = None && perfetto = None then (
    (* no sink at all: the instrumented layers keep their allocation-free
       no-telemetry fast path *)
    f None;
    None)
  else
    let sink =
      match trace with
      | Some t -> Telemetry.Sink.to_channel t.oc
      | None -> Telemetry.Sink.create ()
    in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Sink.flush sink;
        Option.iter (fun t -> close_out t.oc) trace)
      (fun () -> f (Some sink));
    Option.iter
      (fun t ->
        Format.fprintf ppf "event trace      %s (%d events)@." t.path
          (Telemetry.Sink.event_count sink))
      trace;
    Option.iter
      (fun out ->
        (* streaming sinks don't pin events, so re-read the JSONL they
           wrote; memory sinks hand their events over directly *)
        let events =
          match trace with
          | Some t -> Telemetry.Sink.read_jsonl t.path
          | None -> Telemetry.Sink.events sink
        in
        write_output out (Telemetry.Export.perfetto events);
        Format.fprintf ppf "perfetto trace   %s (%d events)@." out.path
          (List.length events))
      perfetto;
    Some (Telemetry.Sink.metrics sink)

let dump_metrics metrics registries =
  Option.iter
    (fun out ->
      let merged = Telemetry.Metrics.create () in
      List.iter
        (Option.iter (fun m -> Telemetry.Metrics.merge ~into:merged m))
        registries;
      write_output out (Telemetry.Export.prometheus merged);
      Format.printf "metrics dump     %s@." out.path)
    metrics

(* The single-run commands (size-est, names): open the three outputs, then
   run [f] on them. *)
let with_run_outputs metrics_out trace_out perfetto_out f =
  with_outputs
    (fun open_output ->
      let o = Option.map open_output in
      (o metrics_out, o trace_out, o perfetto_out))
    f

(* ------------------------------------------------------------------ *)
(* run: controllers                                                    *)

let run_centralized ppf request moves tree ~seed ~mix ~requests =
  let wl = Workload.make ~seed ~mix () in
  let granted = ref 0 and rejected = ref 0 in
  for _ = 1 to requests do
    match request (Workload.next_op wl tree) with
    | Types.Granted -> incr granted
    | Types.Rejected | Types.Exhausted -> incr rejected
  done;
  Format.fprintf ppf "granted          %s@." (Stats.pretty_int !granted);
  Format.fprintf ppf "rejected         %s@." (Stats.pretty_int !rejected);
  Format.fprintf ppf "move complexity  %s@." (Stats.pretty_int (moves ()));
  Format.fprintf ppf "final size       %s@." (Stats.pretty_int (Dtree.size tree))

(* One complete scenario for one seed: builds its own tree, controller,
   network and sink, so any number of these can run on pool domains at
   once. *)
let run_one ppf ~kind_s ~shape_s ~mix ~n0 ~requests ~m ~w ~scheduler ~sink ~seed =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape_s) in
  let u = n0 + requests in
  match kind_s with
  | "central" ->
      let c =
        Central.create ?telemetry:sink ~params:(Params.make ~m ~w:(max 1 w) ~u) ~tree ()
      in
      run_centralized ppf (Central.request c) (fun () -> Central.moves c) tree ~seed ~mix
        ~requests
  | "iterated" ->
      let c =
        match sink with
        | None -> Iterated.create ~m ~w ~u ~tree ()
        | Some _ ->
            Iterated.create_custom
              ~make_base:(fun ~m ~w ->
                Central.create ~reject_mode:Types.Report ?telemetry:sink
                  ~params:(Params.make ~m ~w ~u) ~tree ())
              ~m ~w ~tree ()
      in
      run_centralized ppf (Iterated.request c) (fun () -> Iterated.moves c) tree ~seed
        ~mix ~requests
  | "adaptive" ->
      let c = Adaptive.create ?telemetry:sink ~m ~w ~tree () in
      run_centralized ppf (Adaptive.request c) (fun () -> Adaptive.moves c) tree ~seed
        ~mix ~requests
  | "trivial" ->
      let c = Baseline_trivial.create ~m ~tree in
      run_centralized ppf (Baseline_trivial.request c)
        (fun () -> Baseline_trivial.moves c)
        tree ~seed ~mix ~requests
  | "aaps" ->
      let c = Baseline_aaps.Iterated.create ~m ~w ~u ~tree () in
      run_centralized ppf
        (Baseline_aaps.Iterated.request c)
        (fun () -> Baseline_aaps.Iterated.moves c)
        tree ~seed ~mix ~requests
  | "dist" ->
      let stats =
        Dist_harness.run ~seed ?scheduler ?sink ~shape:(shape_of ~n:n0 shape_s) ~mix ~m
          ~w ~requests ()
      in
      Format.fprintf ppf "%a@." Dist_harness.pp_stats stats
  | "dist-adaptive" ->
      let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
      let da = Dist_adaptive.create ~m ~w ~net () in
      let g, r, _ =
        Dist_harness.run_on ~seed ~net ~mix ~requests ~submit:(Dist_adaptive.submit da) ()
      in
      Format.fprintf ppf "granted %d rejected %d epochs %d messages %s (+%s overhead)@."
        g r
        (Dist_adaptive.epochs da)
        (Stats.pretty_int (Net.messages net))
        (Stats.pretty_int (Dist_adaptive.overhead_messages da))
  | s -> invalid_arg ("unknown controller: " ^ s)

(* [per_seed] holds each seed with its own trace and perfetto outputs. *)
let run_scenario verbose kind_s shape_s mix_s n0 requests m w seeds jobs
    scheduler ~metrics per_seed =
  setup_logs verbose;
  let mix = mix_of mix_s in
  Format.printf "controller=%s shape=%s mix=%s n0=%d requests=%d M=%d W=%d U=%d@.@."
    kind_s shape_s mix_s n0 requests m w (n0 + requests);
  (* Each seed is an independent simulation with its own tree, network and
     sink, rendered into its own buffer — so the seeds fan out over the pool
     and the combined output is identical to a sequential run. *)
  let run_seed (sd, trace, perfetto) =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    let registry =
      with_sink ~metrics:(metrics <> None) ?trace ?perfetto ppf (fun sink ->
          run_one ppf ~kind_s ~shape_s ~mix ~n0 ~requests ~m ~w ~scheduler ~sink
            ~seed:sd)
    in
    Format.pp_print_flush ppf ();
    (sd, Buffer.contents buf, registry)
  in
  let outcomes = Pool.map ~jobs:(effective_jobs jobs) run_seed per_seed in
  List.iter
    (fun (sd, text, _) ->
      if seeds > 1 then Format.printf "--- seed %d ---@." sd;
      Format.printf "%s" text)
    outcomes;
  dump_metrics metrics (List.map (fun (_, _, r) -> r) outcomes);
  0

let run_main verbose kind_s shape_s mix_s n0 requests m w seed seeds jobs scheduler
    metrics_out trace_out perfetto_out =
  if kind_s = "aaps" && mix_s <> "grow" then
    (* the AAPS bins are keyed by exact depth, so that baseline models leaf
       insertions only: refuse any other mix as a usage error *)
    `Error (true, "--controller aaps supports only --mix grow (leaf insertions)")
  else if seeds < 1 then `Error (true, "--seeds must be >= 1")
  else
    with_outputs
      (fun open_output ->
        (* with several seeds, each one's trace goes to FILE.<seed> *)
        let per_seed sd =
          Option.map (fun p ->
              open_output
                (if seeds = 1 then p else Printf.sprintf "%s.%d" p sd))
        in
        let metrics = Option.map open_output metrics_out in
        ( metrics,
          List.init seeds (fun i ->
              let sd = seed + i in
              (sd, per_seed sd trace_out, per_seed sd perfetto_out)) ))
      (fun (metrics, per_seed) ->
        run_scenario verbose kind_s shape_s mix_s n0 requests m w seeds jobs
          scheduler ~metrics per_seed)

let run_cmd =
  let kind =
    Arg.(value & opt string "adaptive"
         & info [ "controller" ]
             ~doc:"central|iterated|adaptive|trivial|aaps|dist|dist-adaptive")
  in
  let requests = Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"number of requests") in
  Cmd.v
    (Cmd.info "run" ~doc:"run an (M,W)-controller on a generated scenario")
    Term.(ret (const run_main $ verbose_arg $ kind $ shape_arg $ mix_arg $ n0_arg $ requests
          $ budget_arg $ waste_arg $ seed_arg $ seeds_arg $ jobs_arg $ scheduler_arg
          $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg))

(* ------------------------------------------------------------------ *)
(* size-est and names: the Section 5 protocols                         *)

let drive_estimator ~seed ~mix ~changes ~net ~tree ~submit =
  let wl = Workload.make ~seed:(seed + 2) ~mix () in
  let reserved = Hashtbl.create 16 in
  let submitted = ref 0 in
  let rec pump () =
    if !submitted < changes then
      match Workload.next_op_avoiding wl tree ~forbidden:(Hashtbl.mem reserved) with
      | None -> Net.schedule net ~delay:3 pump
      | Some op ->
          incr submitted;
          let nodes =
            List.sort_uniq compare
              (Workload.request_site tree op :: Workload.touched tree op)
          in
          List.iter (fun v -> Hashtbl.replace reserved v ()) nodes;
          submit op ~k:(fun () ->
              List.iter (Hashtbl.remove reserved) nodes;
              pump ())
  in
  for _ = 1 to 4 do
    pump ()
  done;
  Net.run net

let size_est_main shape_s mix_s n0 changes beta seed scheduler metrics_out trace_out
    perfetto_out =
  with_run_outputs metrics_out trace_out perfetto_out
  @@ fun (metrics, trace, perfetto) ->
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape_s) in
  let registry =
    with_sink ~metrics:(metrics <> None) ?trace ?perfetto Format.std_formatter (fun sink ->
        let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
        let se = Estimator.Size_estimation.create ~beta ~net () in
        drive_estimator ~seed ~mix:(mix_of mix_s) ~changes ~net ~tree
          ~submit:(Estimator.Size_estimation.submit se);
        Format.printf
          "size estimation: %d changes, %d epochs, estimate %d vs true %d, %s messages (+%s overhead)@."
          (Estimator.Size_estimation.changes se)
          (Estimator.Size_estimation.epochs se)
          (Estimator.Size_estimation.estimate se (Dtree.root tree))
          (Dtree.size tree)
          (Stats.pretty_int (Net.messages net))
          (Stats.pretty_int (Estimator.Size_estimation.overhead_messages se)))
  in
  dump_metrics metrics [ registry ];
  0

let size_est_cmd =
  let changes = Arg.(value & opt int 500 & info [ "changes" ] ~doc:"topological changes") in
  let beta = Arg.(value & opt float 2.0 & info [ "beta" ] ~doc:"approximation factor") in
  Cmd.v
    (Cmd.info "size-est" ~doc:"run the Theorem 5.1 size-estimation protocol")
    Term.(ret (const size_est_main $ shape_arg $ mix_arg $ n0_arg $ changes $ beta $ seed_arg
          $ scheduler_arg $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg))

let names_main shape_s mix_s n0 changes seed scheduler metrics_out trace_out
    perfetto_out =
  with_run_outputs metrics_out trace_out perfetto_out
  @@ fun (metrics, trace, perfetto) ->
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (shape_of ~n:n0 shape_s) in
  let registry =
    with_sink ~metrics:(metrics <> None) ?trace ?perfetto Format.std_formatter (fun sink ->
        let net = Net.create ~seed:(seed + 1) ?scheduler ?sink ~tree () in
        let na = Estimator.Name_assignment.create ~net () in
        drive_estimator ~seed ~mix:(mix_of mix_s) ~changes ~net ~tree
          ~submit:(Estimator.Name_assignment.submit na);
        let ids = Estimator.Name_assignment.ids na in
        let max_id = List.fold_left (fun acc (_, i) -> max acc i) 0 ids in
        Format.printf
          "name assignment: %d nodes named in [1, %d] (max ever ratio %.2f <= 4), %d epochs, %s messages (+%s overhead)@."
          (List.length ids) max_id
          (Estimator.Name_assignment.max_id_ever_ratio na)
          (Estimator.Name_assignment.epochs na)
          (Stats.pretty_int (Net.messages net))
          (Stats.pretty_int (Estimator.Name_assignment.overhead_messages na)))
  in
  dump_metrics metrics [ registry ];
  0

let names_cmd =
  let changes = Arg.(value & opt int 500 & info [ "changes" ] ~doc:"topological changes") in
  Cmd.v
    (Cmd.info "names" ~doc:"run the Theorem 5.2 name-assignment protocol")
    Term.(ret (const names_main $ shape_arg $ mix_arg $ n0_arg $ changes $ seed_arg
          $ scheduler_arg $ metrics_out_arg $ trace_out_arg $ perfetto_out_arg))

(* ------------------------------------------------------------------ *)
(* trace: capture and replay scenarios                                 *)

let trace_capture_main shape_s mix_s n0 steps seed out =
  let t =
    Workload.Trace.capture ~seed ~shape:(shape_of ~n:n0 shape_s) ~mix:(mix_of mix_s)
      ~steps ()
  in
  Workload.Trace.save t out;
  Format.printf "captured %d ops over %s into %s@." steps shape_s out;
  0

let trace_capture_cmd =
  let steps = Arg.(value & opt int 500 & info [ "steps" ] ~doc:"ops to capture") in
  let out = Arg.(required & opt (some string) None & info [ "out" ] ~doc:"output file") in
  Cmd.v
    (Cmd.info "capture" ~doc:"record a scenario trace")
    Term.(const trace_capture_main $ shape_arg $ mix_arg $ n0_arg $ steps $ seed_arg $ out)

let trace_run_main input m w =
  let t = Workload.Trace.load input in
  let ctrl_ref = ref None in
  let granted = ref 0 and rejected = ref 0 in
  let final =
    Workload.Trace.replay t ~f:(fun tree op ->
        let ctrl =
          match !ctrl_ref with
          | Some c -> c
          | None ->
              let c = Adaptive.create ~m ~w ~tree () in
              ctrl_ref := Some c;
              c
        in
        match Adaptive.request ctrl op with
        | Types.Granted -> incr granted
        | Types.Rejected | Types.Exhausted -> incr rejected)
  in
  (match !ctrl_ref with
  | Some c ->
      Format.printf "replayed %d ops: granted %d, rejected %d, moves %s, final size %d@."
        (List.length t.Workload.Trace.ops)
        !granted !rejected
        (Stats.pretty_int (Adaptive.moves c))
        (Dtree.size final)
  | None -> Format.printf "empty trace@.");
  0

let trace_run_cmd =
  let input = Arg.(required & opt (some string) None & info [ "in" ] ~doc:"trace file") in
  Cmd.v
    (Cmd.info "run" ~doc:"replay a trace against the adaptive controller")
    Term.(const trace_run_main $ input $ budget_arg $ waste_arg)

let trace_cmd =
  Cmd.group (Cmd.info "trace" ~doc:"record and replay scenario traces")
    [ trace_capture_cmd; trace_run_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let doc = "dynamic-network (M,W)-controllers and estimators" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ctrl_sim" ~doc)
          [ run_cmd; size_est_cmd; names_cmd; trace_cmd ]))
