(* The telemetry library: histogram bucketing, snapshot determinism, JSONL
   round-trips, the end-to-end agreement between the metrics registry and
   the network's legacy counters, the registry as a fold of the trace, and
   profiles as Phase events. *)

module M = Telemetry.Metrics
module E = Telemetry.Event

(* ------------------------------------------------------------------ *)
(* histogram bucketing                                                 *)

let test_bucket_edges () =
  Alcotest.(check int) "v = 0" 0 (M.bucket_of 0);
  Alcotest.(check int) "v < 0" 0 (M.bucket_of (-5));
  Alcotest.(check int) "v = 1" 1 (M.bucket_of 1);
  Alcotest.(check int) "v = 2" 2 (M.bucket_of 2);
  Alcotest.(check int) "v = 3" 3 (M.bucket_of 3);
  Alcotest.(check int) "v = 4" 3 (M.bucket_of 4);
  Alcotest.(check int) "v = 5" 4 (M.bucket_of 5);
  Alcotest.(check bool) "max_int fits" true (M.bucket_of max_int < M.bucket_count);
  (* every bucket's inclusive upper bound maps back into the bucket, and one
     more spills into the next *)
  for k = 1 to M.bucket_count - 2 do
    let hi = M.bucket_upper k in
    Alcotest.(check int) (Printf.sprintf "upper of bucket %d" k) k (M.bucket_of hi);
    if hi < max_int then
      Alcotest.(check int)
        (Printf.sprintf "upper of bucket %d + 1 spills" k)
        (k + 1) (M.bucket_of (hi + 1))
  done

let test_histogram_observe () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  List.iter (M.observe h) [ 0; 1; 1; 3; 1000; max_int ];
  match M.snapshot r with
  | [ { M.name = "lat"; value = M.Histogram { count; sum; buckets }; _ } ] ->
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "sum" (0 + 1 + 1 + 3 + 1000 + max_int) sum;
      (* 0 -> bucket 0 (upper 0); 1,1 -> bucket 1 (upper 1); 3 -> bucket 3
         (upper 4); 1000 -> bucket 11 (upper 1024); max_int -> last bucket *)
      Alcotest.(check (list (pair int int)))
        "occupancy by upper bound"
        [ (0, 1); (1, 2); (4, 1); (1024, 1); (M.bucket_upper (M.bucket_count - 1), 1) ]
        buckets
  | _ -> Alcotest.fail "expected exactly one histogram entry"

(* ------------------------------------------------------------------ *)
(* snapshot determinism                                                *)

let test_snapshot_determinism () =
  (* two registries fed the same instruments in different orders agree *)
  let feed order =
    let r = M.create () in
    List.iter
      (fun i ->
        match i with
        | `C -> M.inc (M.counter r "z_count")
        | `G -> M.set (M.gauge r "a_level") 7
        | `L1 -> M.inc (M.counter r ~labels:[ ("tag", "up") ] "msgs")
        | `L2 -> M.inc (M.counter r ~labels:[ ("tag", "down") ] "msgs"))
      order;
    M.snapshot r
  in
  let s1 = feed [ `C; `G; `L1; `L2 ] in
  let s2 = feed [ `L2; `L1; `G; `C ] in
  Alcotest.(check int) "same length" (List.length s1) (List.length s2);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "name order" a.M.name b.M.name;
      Alcotest.(check (list (pair string string))) "labels" a.M.labels b.M.labels)
    s1 s2;
  (* sorted by (name, labels) *)
  let keys = List.map (fun e -> (e.M.name, e.M.labels)) s1 in
  Alcotest.(check bool) "sorted" true (keys = List.sort compare keys)

let test_reregistration_shares_instrument () =
  let r = M.create () in
  M.inc (M.counter r "hits");
  M.add (M.counter r "hits") 2;
  Alcotest.(check int) "one shared counter" 3 (M.counter_value (M.counter r "hits"));
  M.max_gauge (M.gauge r "hw") 5;
  M.max_gauge (M.gauge r "hw") 3;
  Alcotest.(check int) "max_gauge keeps high water" 5 (M.gauge_value (M.gauge r "hw"))

(* ------------------------------------------------------------------ *)
(* event JSONL round-trip                                              *)

let ev ?(ctx = E.no_ctx) time kind = { E.time; ctx; kind }

let sample_events =
  [
    ev 0 (E.Send { src = 1; addr = E.Exact 2; tag = "up"; bits = 17 });
    ev 3 (E.Send { src = 2; addr = E.Parent_of 2; tag = "dn"; bits = 0 });
    (* causality fields must round-trip: a root span (parent absent) and a
       child span (all three fields) *)
    ev 3
      ~ctx:{ E.trace = 5; span = 5; parent = -1 }
      (E.Send { src = 0; addr = E.Exact 1; tag = "up"; bits = 4 });
    ev 6
      ~ctx:{ E.trace = 5; span = 6; parent = 5 }
      (E.Deliver
         { src = 0; dst = 1; tag = "up"; seq = 2; forwarded = false; reordered = false });
    ev 0 (E.Sched { discipline = "fifo_link" });
    ev 4
      (E.Deliver
         { src = 1; dst = 0; tag = "up"; seq = 0; forwarded = true; reordered = false });
    ev 5
      (E.Deliver
         { src = 2; dst = 0; tag = "dn"; seq = 7; forwarded = false; reordered = true });
    ev 9
      (E.Permit_span
         {
           ctrl = "main";
           node = 5;
           aid = 12;
           outcome = "granted";
           submitted = 2;
           latency = 7;
           moves = 0;
         });
    (* a centralized span carries its move count; 0 is left out of the JSON *)
    ev 9
      (E.Permit_span
         {
           ctrl = "central";
           node = 3;
           aid = 9;
           outcome = "rejected";
           submitted = 9;
           latency = 0;
           moves = 41;
         });
    ev 9 (E.Package_created { ctrl = "main"; level = 3; size = 8 });
    ev 10 (E.Package_split { ctrl = "main"; level = 3 });
    ev 10 (E.Package_static { ctrl = "main"; node = 5; size = 1 });
    ev 11 (E.Package_join { ctrl = "main"; from_ = 5; to_ = 4 });
    ev 12 (E.Domain_assign { level = 2; size = 6 });
    ev 13 (E.Domain_resize { level = 2; size = 7 });
    ev 14 (E.Domain_cancel { level = 2 });
    ev 15 (E.Reject_wave { ctrl = "main"; node = 0 });
    ev 16 (E.Epoch { ctrl = "adaptive"; epoch = 2; n = 40 });
    ev 17 (E.Estimate { ctrl = "size-est"; node = 0; value = 64; truth = 57 });
    ev 18
      (E.Phase
         {
           name = "drive";
           count = 2;
           alloc_bytes = 123_456;
           minor = 3;
           major = 1;
           top_heap_words = 98_304;
           wall_ns = 1_500_000;
         });
    ev max_int (E.Custom { name = "quote\"and\\slash"; value = -3 });
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      let e' = E.of_line (E.to_line e) in
      if e' <> e then
        Alcotest.failf "round-trip changed %s into %s" (E.to_line e) (E.to_line e'))
    sample_events

let test_jsonl_file_roundtrip () =
  let sink = Telemetry.Sink.create () in
  List.iter (Telemetry.Sink.record sink) sample_events;
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Sink.write_jsonl sink path;
      let back = Telemetry.Sink.read_jsonl path in
      Alcotest.(check int) "event count" (List.length sample_events) (List.length back);
      if back <> sample_events then Alcotest.fail "file round-trip changed the trace")

(* A channel sink must write exactly what a memory sink would have rendered
   with to_jsonl: same events back through read_jsonl, including the JSON
   escaping edge cases in [sample_events], and it must retain nothing. *)
let test_channel_sink_roundtrip () =
  (* flush_bytes=32 forces many intermediate flushes; the default exercises
     the single-flush-at-the-end path *)
  List.iter
    (fun flush_bytes ->
      let path = Filename.temp_file "telemetry" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          let sink = Telemetry.Sink.to_channel ?flush_bytes oc in
          List.iter (Telemetry.Sink.record sink) sample_events;
          Alcotest.(check int) "nothing retained" 0
            (List.length (Telemetry.Sink.events sink));
          Alcotest.(check int) "count" (List.length sample_events)
            (Telemetry.Sink.event_count sink);
          Telemetry.Sink.flush sink;
          close_out oc;
          let back = Telemetry.Sink.read_jsonl path in
          if back <> sample_events then
            Alcotest.fail "channel round-trip changed the trace";
          (* byte-for-byte the same file a memory sink would have written *)
          let mem = Telemetry.Sink.create () in
          List.iter (Telemetry.Sink.record mem) sample_events;
          let written =
            In_channel.with_open_text path In_channel.input_all
          in
          Alcotest.(check string) "bytes equal to_jsonl"
            (Telemetry.Sink.to_jsonl mem) written))
    [ Some 32; None ]

let test_channel_sink_multi_flush () =
  (* a trace well past the 64 KiB default buffer crosses several flush
     boundaries; every line must still come back intact *)
  let n = 5_000 in
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = Telemetry.Sink.to_channel oc in
      for i = 1 to n do
        Telemetry.Sink.event sink ~time:i
          (E.Custom { name = Printf.sprintf "tick\"%d\\n" i; value = i })
      done;
      Telemetry.Sink.flush sink;
      close_out oc;
      let back = Telemetry.Sink.read_jsonl path in
      Alcotest.(check int) "all lines back" n (List.length back);
      List.iteri
        (fun i e ->
          let i = i + 1 in
          match e.E.kind with
          | E.Custom { name; value } ->
              Alcotest.(check int) "value" i value;
              Alcotest.(check string) "name" (Printf.sprintf "tick\"%d\\n" i) name
          | _ -> Alcotest.fail "wrong event kind")
        back)

let test_metrics_merge () =
  (* counters and histograms add, gauges keep the max — merging two
     registries equals feeding one registry both loads *)
  let feed r base =
    M.add (M.counter r "msgs") (10 + base);
    M.add (M.counter r ~labels:[ ("tag", "up") ] "tagged") base;
    M.max_gauge (M.gauge r "depth") (3 * base);
    List.iter (M.observe (M.histogram r "lat")) [ base; 2 * base; 100 ]
  in
  let a = M.create () and b = M.create () and both = M.create () in
  feed a 1;
  feed b 5;
  feed both 1;
  feed both 5;
  let merged = M.create () in
  M.merge ~into:merged a;
  M.merge ~into:merged b;
  Alcotest.(check bool) "merge of two equals one fed both" true
    (M.snapshot merged = M.snapshot both);
  (* merging into an empty registry reproduces the source *)
  let copy = M.create () in
  M.merge ~into:copy a;
  Alcotest.(check bool) "merge into empty copies" true (M.snapshot copy = M.snapshot a)

let test_streaming_sink_retains_nothing () =
  let seen = ref 0 in
  let sink = Telemetry.Sink.create ~on_event:(fun _ -> incr seen) () in
  Telemetry.Sink.event sink ~time:1 (E.Custom { name = "x"; value = 1 });
  Telemetry.Sink.event sink ~time:2 (E.Custom { name = "y"; value = 2 });
  Alcotest.(check int) "streamed" 2 !seen;
  Alcotest.(check int) "counted" 2 (Telemetry.Sink.event_count sink);
  Alcotest.(check int) "not retained" 0 (List.length (Telemetry.Sink.events sink))

(* ------------------------------------------------------------------ *)
(* end to end: a distributed run under a sink                          *)

let find_counter snapshot name =
  List.fold_left
    (fun acc e ->
      match e.M.value with
      | M.Counter c when e.M.name = name -> acc + c
      | _ -> acc)
    0 snapshot

let test_dist_run_matches_net_counters () =
  let sink = Telemetry.Sink.create () in
  let rng = Rng.create ~seed:11 in
  let tree = Workload.Shape.build rng (Workload.Shape.Random 64) in
  let net = Net.create ~seed:12 ~sink ~tree () in
  let d =
    Controller.Dist.create
      ~params:(Controller.Params.make ~m:128 ~w:16 ~u:(64 + 200))
      ~net ()
  in
  let wl = Workload.make ~seed:13 ~mix:Workload.Mix.churn () in
  let outstanding = ref 0 in
  for _ = 1 to 200 do
    (match Workload.next_op_avoiding wl tree ~forbidden:(fun _ -> false) with
    | Some op ->
        incr outstanding;
        Controller.Dist.submit d op ~k:(fun _ -> decr outstanding)
    | None -> ());
    Net.run net
  done;
  Alcotest.(check int) "drained" 0 !outstanding;
  let snap = M.snapshot (Telemetry.Sink.metrics sink) in
  Alcotest.(check int) "net_messages_total = Net.messages" (Net.messages net)
    (find_counter snap "net_messages_total");
  Alcotest.(check int) "net_bits_total = Net.total_bits" (Net.total_bits net)
    (find_counter snap "net_bits_total");
  Alcotest.(check int) "per-tag counters sum to the total" (Net.messages net)
    (find_counter snap "net_tag_messages_total");
  Alcotest.(check int) "legacy tag table agrees" (Net.messages net)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Net.messages_by_tag net));
  (* one Send event per message *)
  let sends =
    List.length
      (List.filter
         (fun e -> match e.E.kind with E.Send _ -> true | _ -> false)
         (Telemetry.Sink.events sink))
  in
  Alcotest.(check int) "one Send event per message" (Net.messages net) sends;
  (* the per-request spans cover every answered request *)
  let spans =
    List.length
      (List.filter
         (fun e -> match e.E.kind with E.Permit_span _ -> true | _ -> false)
         (Telemetry.Sink.events sink))
  in
  Alcotest.(check int) "one span per answer"
    (Controller.Dist.granted d + Controller.Dist.rejected d)
    spans

let test_forwarded_delivery_recorded () =
  (* a message to a node deleted in flight is recorded as forwarded *)
  let sink = Telemetry.Sink.create () in
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:2 ~sink ~tree () in
  Net.send net ~src:b ~addr:(Net.Exact a) ~tag:(Net.intern_tag net "up") ~bits:8
    (fun _ -> ());
  Dtree.remove_internal tree a;
  Net.node_deleted net a ~parent:(Dtree.root tree);
  Net.run net;
  let forwarded =
    List.filter
      (fun e ->
        match e.E.kind with E.Deliver { forwarded; _ } -> forwarded | _ -> false)
      (Telemetry.Sink.events sink)
  in
  Alcotest.(check int) "one forwarded delivery" 1 (List.length forwarded);
  Alcotest.(check int) "counter agrees" 1
    (find_counter
       (M.snapshot (Telemetry.Sink.metrics sink))
       "net_forwarded_deliveries_total")

let test_messages_by_tag_sorted () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let net = Net.create ~seed:5 ~tree () in
  List.iter
    (fun tag ->
      Net.send net ~src:a ~addr:(Net.Parent_of a) ~tag:(Net.intern_tag net tag)
        ~bits:1 (fun _ -> ()))
    [ "zeta"; "alpha"; "mid"; "alpha" ];
  Net.run net;
  Alcotest.(check (list (pair string int)))
    "sorted by tag" [ ("alpha", 2); ("mid", 1); ("zeta", 1) ]
    (Net.messages_by_tag net)

(* ------------------------------------------------------------------ *)
(* the registry is a fold of the trace                                 *)

(* Replaying a memory sink's events into a fresh sink with [record] must
   rebuild the registry exactly: no layer writes a metric the trace does not
   carry. Returns the snapshot for further checks. *)
let check_registry_is_fold what sink =
  let replay = Telemetry.Sink.create () in
  List.iter (Telemetry.Sink.record replay) (Telemetry.Sink.events sink);
  let snap = M.snapshot (Telemetry.Sink.metrics sink) in
  Alcotest.(check bool) (what ^ ": registry non-empty") true (snap <> []);
  if M.snapshot (Telemetry.Sink.metrics replay) <> snap then
    Alcotest.failf "%s: the replayed trace folds to a different registry" what;
  snap

let find_gauge snapshot name =
  List.find_map
    (fun e ->
      match e.M.value with M.Gauge g when e.M.name = name -> Some g | _ -> None)
    snapshot

(* Drive [changes] workload ops through an asynchronous [submit], at most
   four in flight, reserving the touched nodes as ctrl_sim's estimator loop
   does. *)
let drive_net ~seed ~net ~tree ~changes submit =
  let wl = Workload.make ~seed ~mix:Workload.Mix.churn () in
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
          submit op (fun () ->
              List.iter (Hashtbl.remove reserved) nodes;
              pump ())
  in
  for _ = 1 to 4 do
    pump ()
  done;
  Net.run net

let traced_net ~seed n0 =
  let sink = Telemetry.Sink.create () in
  let tree = Workload.Shape.build (Rng.create ~seed) (Workload.Shape.Random n0) in
  (sink, tree, Net.create ~seed:(seed + 1) ~sink ~tree ())

let test_registry_fold_dist () =
  let sink, tree, net = traced_net ~seed:21 64 in
  (* more requests than permits: the run ends in a reject wave *)
  let d =
    Controller.Dist.create
      ~params:(Controller.Params.make ~m:60 ~w:8 ~u:(64 + 150))
      ~net ()
  in
  drive_net ~seed:22 ~net ~tree ~changes:150 (fun op k ->
      Controller.Dist.submit d op ~k:(fun _ -> k ()));
  let snap = check_registry_is_fold "dist" sink in
  Alcotest.(check int) "one reject wave" 1 (find_counter snap "ctrl_reject_waves_total");
  Alcotest.(check int) "net_messages_total = Net.messages" (Net.messages net)
    (find_counter snap "net_messages_total")

let test_registry_fold_adaptive () =
  let sink = Telemetry.Sink.create () in
  let c = ref None in
  let _ =
    Helpers.drive ~seed:23 ~shape:(Workload.Shape.Random 48) ~mix:Workload.Mix.churn
      ~steps:400 (fun tree op ->
        let a =
          match !c with
          | Some a -> a
          | None ->
              let a = Controller.Adaptive.create ~telemetry:sink ~m:64 ~w:8 ~tree () in
              c := Some a;
              a
        in
        Controller.Adaptive.request a op)
  in
  let snap = check_registry_is_fold "adaptive" sink in
  Alcotest.(check bool) "epochs rotated" true (find_counter snap "ctrl_epochs_total" > 0)

let test_registry_fold_central_domains () =
  let sink = Telemetry.Sink.create () in
  let c = ref None in
  (* W close to U on a path: packages split, so domains come and go *)
  let _ =
    Helpers.drive ~seed:24 ~shape:(Workload.Shape.Path 400) ~mix:Workload.Mix.churn
      ~steps:300 (fun tree op ->
        let ctrl =
          match !c with
          | Some ctrl -> ctrl
          | None ->
              let ctrl =
                Controller.Central.create ~track_domains:true ~telemetry:sink
                  ~params:(Controller.Params.make ~m:300 ~w:270 ~u:700)
                  ~tree ()
              in
              c := Some ctrl;
              ctrl
        in
        Controller.Central.request ctrl op)
  in
  let snap = check_registry_is_fold "central" sink in
  match !c with
  | None -> Alcotest.fail "no request was made"
  | Some ctrl ->
      Helpers.check_domains_exn ctrl;
      Alcotest.(check bool) "packages split" true (find_counter snap "pkg_splits_total" > 0);
      (* every mobile package sitting in a store owns exactly one domain *)
      let live =
        Controller.Central.fold_stores ctrl ~init:0 ~f:(fun acc _ s ->
            acc + List.length (Controller.Store.mobiles s))
      in
      Alcotest.(check (option int)) "domains_tracked = live domains" (Some live)
        (find_gauge snap "domains_tracked");
      Alcotest.(check int) "ctrl_moves_total = Central.moves"
        (Controller.Central.moves ctrl)
        (find_counter snap "ctrl_moves_total")

let test_registry_fold_size_estimation () =
  let sink, tree, net = traced_net ~seed:25 80 in
  let se = Estimator.Size_estimation.create ~net () in
  drive_net ~seed:26 ~net ~tree ~changes:400 (fun op k ->
      Estimator.Size_estimation.submit se op ~k);
  let snap = check_registry_is_fold "size-est" sink in
  Alcotest.(check int) "ctrl_epochs_total = epochs"
    (Estimator.Size_estimation.epochs se)
    (find_counter snap "ctrl_epochs_total")

let test_registry_fold_name_assignment () =
  let sink, tree, net = traced_net ~seed:27 80 in
  let na = Estimator.Name_assignment.create ~net () in
  drive_net ~seed:28 ~net ~tree ~changes:300 (fun op k ->
      Estimator.Name_assignment.submit na op ~k);
  let snap = check_registry_is_fold "names" sink in
  Alcotest.(check int) "ctrl_epochs_total = epochs"
    (Estimator.Name_assignment.epochs na)
    (find_counter snap "ctrl_epochs_total")

(* ------------------------------------------------------------------ *)
(* profiles are Phase events                                           *)

(* a deterministic clock: every reading advances 1 ms *)
let ticking () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let profile_runs p names =
  List.iter
    (fun name ->
      Telemetry.Profile.run p ~name (fun () ->
          ignore (Sys.opaque_identity (Array.make 100 name))))
    names

let test_profile_emit_folds_to_entries () =
  let p = Telemetry.Profile.create ~clock:(ticking ()) in
  Telemetry.Profile.run p ~name:"outer" (fun () -> profile_runs p [ "a"; "b"; "a" ]);
  let entries = Telemetry.Profile.entries p in
  Alcotest.(check (list string)) "first-opened order" [ "outer"; "a"; "b" ]
    (List.map (fun (e : Telemetry.Profile.entry) -> e.name) entries);
  Alcotest.(check (list int)) "bracket counts" [ 1; 2; 1 ]
    (List.map (fun (e : Telemetry.Profile.entry) -> e.count) entries);
  List.iter
    (fun (e : Telemetry.Profile.entry) ->
      Alcotest.(check bool) (e.name ^ " has wall time") true (e.wall_s > 0.0))
    entries;
  let sink = Telemetry.Sink.create () in
  Telemetry.Profile.emit p sink ~time:0;
  Alcotest.(check int) "one Phase event per phase" 3 (Telemetry.Sink.event_count sink);
  Alcotest.(check bool) "emit then fold = entries" true
    (Telemetry.Profile.totals (Telemetry.Sink.events sink) = entries)

let test_profile_merge_concatenates () =
  let clock = ticking () in
  let a = Telemetry.Profile.create ~clock and b = Telemetry.Profile.create ~clock in
  profile_runs a [ "build"; "drive" ];
  profile_runs b [ "drive"; "check" ];
  let both = Telemetry.Profile.events a @ Telemetry.Profile.events b in
  let merged = Telemetry.Profile.create ~clock in
  Telemetry.Profile.merge ~into:merged a;
  Telemetry.Profile.merge ~into:merged b;
  Alcotest.(check bool) "merge concatenates the brackets" true
    (Telemetry.Profile.events merged = both);
  let entries = Telemetry.Profile.entries merged in
  Alcotest.(check bool) "merged entries = one profile fed both" true
    (entries = Telemetry.Profile.totals both);
  Alcotest.(check (list (pair string int)))
    "phases in input order, counts add"
    [ ("build", 1); ("drive", 2); ("check", 1) ]
    (List.map (fun (e : Telemetry.Profile.entry) -> (e.name, e.count)) entries)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
      Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
      Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
      Alcotest.test_case "re-registration shares" `Quick test_reregistration_shares_instrument;
      Alcotest.test_case "event json round-trip" `Quick test_event_roundtrip;
      Alcotest.test_case "jsonl file round-trip" `Quick test_jsonl_file_roundtrip;
      Alcotest.test_case "channel sink round-trip" `Quick test_channel_sink_roundtrip;
      Alcotest.test_case "channel sink multi-flush" `Quick test_channel_sink_multi_flush;
      Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
      Alcotest.test_case "streaming sink" `Quick test_streaming_sink_retains_nothing;
      Alcotest.test_case "dist run matches net counters" `Quick
        test_dist_run_matches_net_counters;
      Alcotest.test_case "forwarded delivery recorded" `Quick
        test_forwarded_delivery_recorded;
      Alcotest.test_case "messages_by_tag sorted" `Quick test_messages_by_tag_sorted;
      Alcotest.test_case "registry is the fold of the trace (dist)" `Quick
        test_registry_fold_dist;
      Alcotest.test_case "registry is the fold of the trace (adaptive)" `Quick
        test_registry_fold_adaptive;
      Alcotest.test_case "registry is the fold of the trace (central domains)" `Quick
        test_registry_fold_central_domains;
      Alcotest.test_case "registry is the fold of the trace (size-est)" `Quick
        test_registry_fold_size_estimation;
      Alcotest.test_case "registry is the fold of the trace (names)" `Quick
        test_registry_fold_name_assignment;
      Alcotest.test_case "profile emit folds to entries" `Quick
        test_profile_emit_folds_to_entries;
      Alcotest.test_case "profile merge concatenates" `Quick
        test_profile_merge_concatenates;
    ] )
