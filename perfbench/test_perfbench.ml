(* Self-tests of the benchmark: every workload and every check at tiny
   scale, and each check failing on a corrupted output. *)

open Perfbench
module W = Workloads

let names l = List.map (fun (k, _, _) -> k) l

let run_tiny ?(seed = 1) name ~trace =
  Suite.run ~scale:W.Tiny ~name ~seed ~seconds:0.0 ~trace ()

let tiny_run name ~trace () =
  let r = run_tiny name ~trace in
  List.iter prerr_endline r.Suite.failures;
  Alcotest.(check bool) "correct" true r.correct;
  Alcotest.(check int) "failed" 0 r.failed;
  Alcotest.(check bool) "attempted" true (r.attempted > 0);
  let expected = List.map fst (if trace then Suite.per_layer else Suite.end_to_end) in
  Alcotest.(check (list string)) "metric names" expected (names r.metrics);
  if not trace then
    List.iter
      (fun (k, v, _) -> if not (v > 0.0) then Alcotest.failf "end-to-end %s = %g" k v)
      r.metrics;
  (* the result line parses and carries exactly the contract's keys *)
  let json = Telemetry.Json.of_string (Suite.result_json r) in
  (match json with
  | Telemetry.Json.Obj kvs ->
      Alcotest.(check (list string))
        "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs)
  | _ -> Alcotest.fail "result is not an object");
  ignore (Telemetry.Json.of_string (Suite.meta_json name ~seed:1 ~trace r))

let same_seed_same_counters () =
  let a = run_tiny W.Dist_control ~trace:false and b = run_tiny W.Dist_control ~trace:false in
  Alcotest.(check (list (pair string (float 0.0)))) "deterministic" a.deterministic b.deterministic;
  let c = run_tiny ~seed:2 W.Dist_control ~trace:false in
  Alcotest.(check bool) "another seed, other inputs" true (a.deterministic <> c.deterministic)

(* The discipline is passed to Net.create, so the CI's SIMNET_SCHEDULER
   override cannot switch what a workload measures. *)
let scheduler_env_ignored () =
  let before = Sys.getenv_opt "SIMNET_SCHEDULER" in
  let a = run_tiny W.Dist_estimate ~trace:false in
  Unix.putenv "SIMNET_SCHEDULER" "adversarial_lifo:8";
  let b = run_tiny W.Dist_estimate ~trace:false in
  Unix.putenv "SIMNET_SCHEDULER" (Option.value ~default:"fifo_link" before);
  Alcotest.(check (list (pair string (float 0.0)))) "deterministic" a.deterministic b.deterministic;
  Alcotest.(check (float 0.0)) "no reorders" 0.0 (List.assoc "net.reorders" a.deterministic)

let failures f =
  let c = Checks.create () in
  f c;
  Checks.count c

let check_answered () =
  Alcotest.(check int) "all once" 0 (failures (fun c -> ignore (Checks.answered_once c ~what:"t" [| 1; 1 |])));
  Alcotest.(check int) "unanswered" 1 (failures (fun c -> ignore (Checks.answered_once c ~what:"t" [| 1; 0; 1 |])));
  Alcotest.(check int) "answered twice" 1 (failures (fun c -> ignore (Checks.answered_once c ~what:"t" [| 2; 1 |])));
  let c = Checks.create () in
  Alcotest.(check int) "counted" 2 (Checks.answered_once c ~what:"t" [| 0; 2; 1 |])

let check_event_count () =
  Alcotest.(check int) "match" 0 (failures (fun c -> Checks.equal_int c ~what:"events" ~expected:7 7));
  Alcotest.(check int) "wrong count" 1 (failures (fun c -> Checks.equal_int c ~what:"events" ~expected:7 8))

(* A streaming sink whose event count differs from the counting sink's
   reference for the same seed is reported. *)
let traced_event_count () =
  let cfg = W.config W.Dist_traced W.Tiny in
  let null = open_out_bin "/dev/null" in
  let episode ?expected_events mode =
    let checks = Checks.create () in
    let e = W.dist_traced ?expected_events ~null ~checks ~tr:Span.off ~seed:1 ~mode cfg () in
    (e, Checks.count checks)
  in
  let reference, failed = episode W.Count in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 reference.W.events_by_kind in
  Alcotest.(check int) "reference" 0 failed;
  Alcotest.(check int) "stream matches" 0 (snd (episode ~expected_events:total W.Stream));
  Alcotest.(check int) "wrong count" 1 (snd (episode ~expected_events:(total + 1) W.Stream));
  close_out null

let check_budget () =
  let budget ~granted ~rejected = failures (fun c -> Checks.budget c ~granted ~rejected ~m:100 ~w:10) in
  Alcotest.(check int) "within M" 0 (budget ~granted:100 ~rejected:0);
  Alcotest.(check int) "late reject" 0 (budget ~granted:90 ~rejected:5);
  Alcotest.(check int) "over M" 1 (budget ~granted:101 ~rejected:0);
  Alcotest.(check int) "early reject" 1 (budget ~granted:89 ~rejected:1)

let check_ratio () =
  Alcotest.(check int) "within" 0 (failures (fun c -> Checks.ratio_within c ~what:"r" ~worst:2.0 ~bound:2.0));
  Alcotest.(check int) "beyond" 1 (failures (fun c -> Checks.ratio_within c ~what:"r" ~worst:2.01 ~bound:2.0));
  Alcotest.(check int) "nan" 1 (failures (fun c -> Checks.ratio_within c ~what:"r" ~worst:Float.nan ~bound:2.0))

let check_determinism () =
  let a = [ ("x", 1.0); ("y", 2.0) ] in
  Alcotest.(check int) "same" 0 (failures (fun c -> Checks.deterministic c ~what:"d" a a));
  Alcotest.(check int) "differs" 1
    (failures (fun c -> Checks.deterministic c ~what:"d" a [ ("x", 1.0); ("y", 3.0) ]));
  Alcotest.(check int) "shorter" 1 (failures (fun c -> Checks.deterministic c ~what:"d" a [ ("x", 1.0) ]))

let check_tree () =
  let tree = Workload.Shape.build (Rng.create ~seed:3) (Workload.Shape.Random 50) in
  Alcotest.(check int) "valid tree" 0 (failures (fun c -> Checks.tree c tree))

(* A request still in flight leaves its agent outstanding and its nodes
   locked: the after-drain lock check must say so. *)
let check_locks () =
  let tree = Workload.Shape.build (Rng.create ~seed:4) (Workload.Shape.Random 30) in
  let net = Net.create ~seed:5 ~scheduler:Scheduler.Fifo_link ~tree () in
  let d = Controller.Dist.create ~params:(Controller.Params.make ~m:10 ~w:2 ~u:60) ~net () in
  Alcotest.(check int) "idle" 0 (failures (fun c -> Checks.locks c d; Checks.pool c net));
  let answered = ref 0 in
  Controller.Dist.submit d (Workload.Add_leaf (Dtree.any_leaf tree)) ~k:(fun _ -> incr answered);
  ignore (Net.step net);
  Alcotest.(check bool) "in flight" true (failures (fun c -> Checks.locks c d) > 0);
  Net.run net;
  Alcotest.(check int) "answered" 1 !answered;
  Alcotest.(check int) "drained" 0 (failures (fun c -> Checks.locks c d; Checks.pool c net))

let () =
  let tiny trace =
    List.map
      (fun n -> Alcotest.test_case (W.to_string n) `Quick (tiny_run n ~trace))
      W.all
  in
  Alcotest.run "perfbench"
    [
      ("tiny end-to-end", tiny false);
      ("tiny traced", tiny true);
      ( "pinning",
        [
          Alcotest.test_case "same seed, same counters" `Quick same_seed_same_counters;
          Alcotest.test_case "SIMNET_SCHEDULER ignored" `Quick scheduler_env_ignored;
        ] );
      ( "checks",
        [
          Alcotest.test_case "answered once" `Quick check_answered;
          Alcotest.test_case "event count" `Quick check_event_count;
          Alcotest.test_case "traced event count" `Quick traced_event_count;
          Alcotest.test_case "(M,W) budget" `Quick check_budget;
          Alcotest.test_case "estimate ratio" `Quick check_ratio;
          Alcotest.test_case "determinism" `Quick check_determinism;
          Alcotest.test_case "tree audit" `Quick check_tree;
          Alcotest.test_case "locks and pool" `Quick check_locks;
        ] );
    ]
