(* perfbench: run one workload and print its metrics.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result object; the line before
   it records the run's environment and every deterministic counter. The
   exit code is 1 when a check failed. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads below");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  how long to repeat episodes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or per-layer trace (1)");
      ("--tiny", Arg.Set tiny, " tiny inputs, for a fast functional run");
    ]
  in
  let usage =
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\nworkloads: "
    ^ String.concat ", " (List.map Workloads.to_string Workloads.all)
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Workloads.of_string !workload with
  | None ->
      prerr_endline usage;
      exit 2
  | Some name when !trace = 0 || !trace = 1 ->
      let trace = !trace = 1 in
      let scale = if !tiny then Workloads.Tiny else Workloads.Full in
      let r = Suite.run ~scale ~name ~seed:!seed ~seconds:!seconds ~trace () in
      List.iter (fun f -> prerr_endline ("check failed: " ^ f)) r.Suite.failures;
      print_endline (Suite.meta_json ~scale name ~seed:!seed ~trace r);
      print_endline (Suite.result_json r);
      if not r.Suite.correct then exit 1
  | Some _ ->
      prerr_endline usage;
      exit 2
