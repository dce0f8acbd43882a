(* The domain pool and the determinism contract of everything built on it:
   Pool.map must preserve order and results at any parallelism, propagate
   the lowest-indexed exception, and the parallel consumers (bench
   experiment tables, Explore.sweep) must produce byte-identical output
   at -j 4 and -j 1. *)

(* ------------------------------------------------------------------ *)
(* Pool.map semantics                                                  *)

let test_map_order_and_results () =
  let items = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f items in
  Alcotest.(check (list int)) "jobs=1 equals List.map" expected (Pool.map ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=4 equals List.map" expected (Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "jobs > items" expected (Pool.map ~jobs:16 f items);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Pool.map ~jobs:4 f [ 9 ])

exception Boom of int

let test_map_exception_propagation () =
  (* every task runs to completion even when some fail, and the re-raised
     exception is the lowest-indexed failure, whatever order the domains
     finished in *)
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let run () =
        Pool.map ~jobs
          (fun i ->
            Atomic.incr ran;
            if i mod 3 = 1 then raise (Boom i) else i)
          (List.init 20 Fun.id)
      in
      (match run () with
      | _ -> Alcotest.failf "jobs=%d: expected Boom to escape" jobs
      | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: lowest-indexed failure wins" jobs)
            1 i);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: all tasks still ran" jobs)
        20 (Atomic.get ran))
    [ 1; 4 ]

let test_pool_reuse () =
  (* one pool serves several batches; results stay ordered per batch *)
  Pool.with_pool ~jobs:3 (fun t ->
      Alcotest.(check int) "jobs" 3 (Pool.jobs t);
      let b1 = Pool.run t (List.init 10 (fun i () -> i * 2)) in
      Alcotest.(check (list int)) "first batch" (List.init 10 (fun i -> i * 2)) b1;
      let b2 = Pool.run t (List.init 7 (fun i () -> i - 1)) in
      Alcotest.(check (list int)) "second batch" (List.init 7 (fun i -> i - 1)) b2;
      Alcotest.(check (list int)) "empty batch" [] (Pool.run t []))

let test_default_jobs_env () =
  (* default comes from DYNNET_JOBS; absent/garbage mean sequential *)
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "default is at least 1" true (d >= 1);
  Alcotest.(check string) "env var name" "DYNNET_JOBS" Pool.env_var

(* ------------------------------------------------------------------ *)
(* experiment tables are identical at any -j                           *)

let render_experiment name ~jobs =
  let f =
    match List.assoc_opt name Experiments.all with
    | Some f -> f
    | None -> Alcotest.failf "unknown experiment %s" name
  in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let ctx = Experiments.make_ctx ~jobs ~ppf () in
  f ctx;
  Format.pp_print_flush ppf ();
  let t = ctx.Experiments.tally in
  (* alloc_bytes is intentionally excluded: per-domain GC accounting drifts
     by a few bytes between placements; the deterministic contract covers
     the simulation counters and the rendered table *)
  ( Buffer.contents buf,
    [
      t.Experiments.Results.messages;
      t.Experiments.Results.moves;
      t.Experiments.Results.bits;
      t.Experiments.Results.rows;
    ] )

let test_experiments_deterministic () =
  List.iter
    (fun name ->
      let text1, tally1 = render_experiment name ~jobs:1 in
      let text4, tally4 = render_experiment name ~jobs:4 in
      Alcotest.(check string) (name ^ ": table identical at -j 4") text1 text4;
      Alcotest.(check (list int))
        (name ^ ": messages/moves/bits/rows identical at -j 4")
        tally1 tally4)
    [ "e6"; "e10"; "e13"; "e14" ]

(* ------------------------------------------------------------------ *)
(* Explore.sweep is identical at any -j                                *)

let sweep_scenario ~discipline ~seed =
  let m = 60 and w = 20 in
  let s =
    Controller.Dist_harness.run ~seed ~scheduler:discipline
      ~shape:(Workload.Shape.Random 30) ~mix:Workload.Mix.churn ~m ~w
      ~requests:(m + 40) ()
  in
  let v = ref [] in
  if s.Controller.Dist_harness.granted > m then
    v := Printf.sprintf "granted %d > M" s.Controller.Dist_harness.granted :: !v;
  (!v, s.Controller.Dist_harness.reorders)

(* State shared between cells (a generator hoisted out of the per-cell
   closure) shows only when the domains interleave, so the parallel sweep
   runs three times at the default shard size and three times with one
   pool task per cell, the most interleaved placement. *)
let test_sweep_deterministic () =
  let seeds = [ 401; 402 ] in
  let r1 = Explore.sweep ~jobs:1 ~seeds sweep_scenario in
  List.iter
    (fun shard_size ->
      let r4 = Explore.sweep ~jobs:4 ?shard_size ~seeds sweep_scenario in
      Alcotest.(check int) "same length" (List.length r1) (List.length r4);
      List.iter2
        (fun (a : Explore.run) (b : Explore.run) ->
          Alcotest.(check string) "discipline order preserved"
            (Scheduler.name a.Explore.discipline)
            (Scheduler.name b.Explore.discipline);
          Alcotest.(check int) "seed order preserved" a.Explore.seed
            b.Explore.seed;
          Alcotest.(check (list string)) "violations identical"
            a.Explore.violations b.Explore.violations;
          Alcotest.(check int) "reorders identical" a.Explore.reorders
            b.Explore.reorders)
        r1 r4)
    [ None; Some 1; None; Some 1; None; Some 1 ]

(* Shard boundaries are a function of the cell list alone, so the rendered
   sweep output must be byte-identical whatever the (jobs, shard_size)
   combination — including shards that don't divide the cell count. *)
let test_sweep_sharding_byte_identical () =
  let seeds = [ 401; 402; 403 ] in
  let render runs =
    String.concat "\n"
      (List.map (fun r -> Format.asprintf "%a" Explore.pp_run r) runs)
  in
  let reference = render (Explore.sweep ~jobs:1 ~seeds sweep_scenario) in
  List.iter
    (fun (jobs, shard_size) ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d shard_size=%d" jobs shard_size)
        reference
        (render (Explore.sweep ~jobs ~shard_size ~seeds sweep_scenario)))
    [ (1, 1); (4, 1); (4, 2); (4, 3); (4, 64) ];
  match Explore.sweep ~jobs:1 ~shard_size:0 ~seeds sweep_scenario with
  | _ -> Alcotest.fail "shard_size:0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The fan-out discipline, stated positively: a closure that shares one
   accumulator across tasks (a ref or buffer captured from outside) races,
   and the -j witnesses above and in bin/jobs_witness.sh catch it by its
   effect; the per-task-owned formulation below is the sanctioned one, and
   it is byte-identical at every parallelism. *)

let test_per_task_state_deterministic () =
  let items = List.init 64 (fun i -> (i * 37) mod 101) in
  let digest jobs =
    (* each task owns its accumulator (a fresh Buffer per item); the only
       cross-task combination happens at the deterministic join *)
    let parts =
      Pool.map ~jobs
        (fun x ->
          let buf = Buffer.create 8 in
          Buffer.add_string buf (string_of_int (x * x));
          Buffer.add_char buf ';';
          Buffer.contents buf)
        items
    in
    String.concat "" parts
  in
  let d1 = digest 1 in
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1" d1 (digest 4);
  Alcotest.(check string) "jobs=16 byte-identical to jobs=1" d1 (digest 16)

let suite =
  ( "pool",
    [
      Alcotest.test_case "map: order and results" `Quick test_map_order_and_results;
      Alcotest.test_case "per-task state identical at any -j" `Quick
        test_per_task_state_deterministic;
      Alcotest.test_case "map: exception propagation" `Quick
        test_map_exception_propagation;
      Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
      Alcotest.test_case "default jobs from env" `Quick test_default_jobs_env;
      Alcotest.test_case "experiments identical at -j 4" `Quick
        test_experiments_deterministic;
      Alcotest.test_case "sweep identical at -j 4" `Quick test_sweep_deterministic;
      Alcotest.test_case "sweep sharding byte-identical" `Quick
        test_sweep_sharding_byte_identical;
    ] )
