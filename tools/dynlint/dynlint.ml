(* dynlint — determinism & domain-safety lint for this repo.

   Usage: dynlint [--rules] [--root DIR] [--allow FILE] [--cmt DIR]...
                  [--sarif FILE] [--time-budget-ms N] [PATH...]

   Each PATH (relative to --root, default ".") is a directory walked
   recursively or a single .ml file; the parsetree pass (D1-D4, D6) runs
   over those. Each --cmt DIR is searched (relative to the working
   directory, where dune leaves _build artifacts) for .cmt files, and the
   typed pass, D11's zero-alloc proof, runs over them. A --cmt DIR
   yielding no .cmt files is a hard error (exit 2), because silently
   skipping the typed pass would green-wash a broken build graph. Source
   files referenced by the cmts are resolved against --root for
   inline-allow suppression. After every pass, any allow-file entry or
   inline allow comment that suppressed nothing is itself reported (D10),
   as is an inline allow naming no rule, so dead exceptions cannot
   accumulate.

   --rules prints the rule table and exits. Per-pass wall time is
   reported on stderr as "dynlint: timings(ms) parsetree=... load=...
   alloc=... total=..."; --time-budget-ms N exits 3 when the
   total exceeds N, which CI uses to keep the lint gate honest about its
   own cost.

   Prints one "file:line:col [id name] message" per finding, writes the
   findings as SARIF 2.1.0 when --sarif is given (also when clean), and
   exits 1 when there are any findings, 0 on a clean tree. The SARIF file
   is written before any failing exit. See tools/dynlint/lint.mli and
   DESIGN.md "Static analysis" for the rule set and the allowlist
   syntax. *)

let usage =
  "dynlint [--rules] [--root DIR] [--allow FILE] [--cmt DIR]... [--sarif \
   FILE] [--time-budget-ms N] [PATH...]"

let () =
  let root = ref "." in
  let allow_file = ref None in
  let sarif_file = ref None in
  let time_budget_ms = ref None in
  let cmt_dirs = ref [] in
  let paths = ref [] in
  let spec =
    [
      ( "--rules",
        Arg.Unit
          (fun () ->
            print_string (Lint.rules_table ());
            exit 0),
        "  print the rule table (id, allow-key, pass, summary) and exit" );
      ("--root", Arg.Set_string root, "DIR  resolve PATHs and cmt source files relative to DIR (default .)");
      ( "--allow",
        Arg.String (fun f -> allow_file := Some f),
        "FILE  allowlist file: lines of [pin] <rule-name> <path-suffix>" );
      ( "--cmt",
        Arg.String (fun d -> cmt_dirs := d :: !cmt_dirs),
        "DIR  search DIR for .cmt files and run the typed pass (repeatable)" );
      ( "--sarif",
        Arg.String (fun f -> sarif_file := Some f),
        "FILE  also write the findings as SARIF 2.1.0 to FILE" );
      ( "--time-budget-ms",
        Arg.Int (fun n -> time_budget_ms := Some n),
        "N  exit 3 when the total lint wall time exceeds N milliseconds" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths = List.rev !paths and cmt_dirs = List.rev !cmt_dirs in
  if paths = [] && cmt_dirs = [] then (
    prerr_endline usage;
    exit 2);
  let allow =
    match !allow_file with
    | None -> Lint.no_allow
    | Some f -> (
        try Lint.load_allow_file f
        with Sys_error m | Failure m ->
          Printf.eprintf "dynlint: %s\n" m;
          exit 2)
  in
  let t_start = Unix.gettimeofday () in
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (name, Unix.gettimeofday () -. t0) :: !timings;
    r
  in
  let tracker = Lint.new_tracker () in
  let syntactic =
    timed "parsetree" (fun () ->
        if paths = [] then []
        else Lint.lint_tree ~allow ~tracker ~root:!root paths)
  in
  let typed =
    if cmt_dirs = [] then []
    else begin
      (* An empty --cmt DIR means @check didn't run (or the dir is wrong):
         the typed pass (D11) would silently vacuously pass. *)
      List.iter
        (fun d ->
          if Cmt_load.collect_cmt_files [ d ] = [] then (
            Printf.eprintf
              "dynlint: --cmt %s contains no .cmt files; run `dune build \
               @check` first (typed rule D11 cannot run without cmts)\n"
              d;
            exit 2))
        cmt_dirs;
      let units = timed "load" (fun () -> Cmt_load.load_dirs cmt_dirs) in
      let emitter = Lint.make_emitter ~allow ~tracker ~source_root:!root () in
      timed "alloc" (fun () -> Lint_alloc.check_units ~emitter units);
      Lint.emitter_findings emitter
    end
  in
  let in_scope rule =
    match rule with
    | Lint.Zero_alloc -> cmt_dirs <> []
    | Lint.Stale_allow -> true
    | _ -> paths <> []
  in
  let stale = Lint.stale_findings ~in_scope ~allow tracker in
  let findings = List.sort Lint.compare_findings (syntactic @ typed @ stale) in
  List.iter (fun f -> print_endline (Lint.finding_to_string f)) findings;
  (match !sarif_file with
  | Some f -> Sarif.write ~file:f findings
  | None -> ());
  let total_ms = (Unix.gettimeofday () -. t_start) *. 1000. in
  Printf.eprintf "dynlint: timings(ms) %s total=%.1f\n"
    (String.concat " "
       (List.rev_map
          (fun (name, s) -> Printf.sprintf "%s=%.1f" name (s *. 1000.))
          !timings))
    total_ms;
  (match !time_budget_ms with
  | Some budget when total_ms > float_of_int budget ->
      Printf.eprintf
        "dynlint: wall time %.1fms exceeds the --time-budget-ms %d gate\n"
        total_ms budget;
      exit 3
  | _ -> ());
  match findings with
  | [] -> ()
  | fs ->
      Printf.eprintf "dynlint: %d finding(s)\n" (List.length fs);
      exit 1
