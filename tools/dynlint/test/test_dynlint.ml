(* dynlint's own test suite: a fixture corpus with one bad + one
   allow-annotated file per rule, exact rule-id assertions, the allow-file
   and context gates, the typed (cmt) fixtures for D7/D9/D11, SARIF
   output, stale-suppression and unknown-vocabulary reporting, rule-table
   sync across --rules / SARIF / DESIGN.md, and clean-tree silence on the
   repo's lib/ under every pass. *)

let lib_ctx = { Lint.lib = true; test = false }

let ids ?allow ?(ctx = lib_ctx) path =
  List.map (fun f -> Lint.rule_id f.Lint.rule) (Lint.lint_file ?allow ~ctx path)

let check_ids name expected got =
  Alcotest.(check (list string)) name expected got

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_bad_fixtures () =
  check_ids "d1_bad" [ "D1"; "D1"; "D1"; "D1" ] (ids "fixtures/d1_bad.ml");
  check_ids "d2_bad" [ "D2"; "D2"; "D2" ] (ids "fixtures/d2_bad.ml");
  check_ids "d3_bad" [ "D3"; "D3"; "D3" ] (ids "fixtures/d3_bad.ml");
  check_ids "d4_bad" [ "D4"; "D4"; "D4" ] (ids "fixtures/d4_bad.ml");
  check_ids "d6_bad" [ "D6"; "D6"; "D6" ] (ids "fixtures/d6_bad.ml")

let test_allow_fixtures () =
  List.iter
    (fun p -> check_ids p [] (ids ("fixtures/" ^ p)))
    [ "d1_allow.ml"; "d2_allow.ml"; "d3_allow.ml"; "d4_allow.ml"; "d6_allow.ml" ]

let test_mli () =
  (match Lint.check_mli "fixtures/d5_missing/orphan.ml" with
  | Some f ->
      Alcotest.(check string) "orphan rule" "D5" (Lint.rule_id f.Lint.rule)
  | None -> Alcotest.fail "orphan.ml should be a D5 finding");
  (match Lint.check_mli "fixtures/d5_missing/allowed.ml" with
  | None -> ()
  | Some _ -> Alcotest.fail "allowed.ml carries a dynlint: allow mli header");
  match Lint.check_mli "fixtures/d5_covered/covered.ml" with
  | None -> ()
  | Some _ -> Alcotest.fail "covered.ml has a matching .mli"

let test_context_gates () =
  (* lib-only rules are silent outside lib/ ... *)
  let exe_ctx = { Lint.lib = false; test = false } in
  check_ids "d1 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d1_bad.ml");
  check_ids "d2 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d2_bad.ml");
  check_ids "d3 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d3_bad.ml");
  check_ids "d6 outside lib" [] (ids ~ctx:exe_ctx "fixtures/d6_bad.ml");
  (* ... but D4 still applies to any non-test code ... *)
  check_ids "d4 outside lib" [ "D4"; "D4"; "D4" ]
    (ids ~ctx:exe_ctx "fixtures/d4_bad.ml");
  (* ... and not to tests *)
  let test_ctx = { Lint.lib = false; test = true } in
  check_ids "d4 in tests" [] (ids ~ctx:test_ctx "fixtures/d4_bad.ml")

let test_ctx_of_path () =
  let check path lib test =
    let c = Lint.ctx_of_path path in
    Alcotest.(check bool) (path ^ " lib") lib c.Lint.lib;
    Alcotest.(check bool) (path ^ " test") test c.Lint.test
  in
  check "lib/core/dist.ml" true false;
  check "test/main.ml" false true;
  check "tools/dynlint/test/fixtures/d1_bad.ml" false true;
  check "bench/experiments.ml" false false

let test_allow_file () =
  let allow = Lint.load_allow_file "fixtures/test.allow" in
  (* suffix entry "d2_bad.ml" suppresses the whole file *)
  check_ids "allow-file ambient" [] (ids ~allow "fixtures/d2_bad.ml");
  (* multi-component suffix "fixtures/d4_bad.ml" matches too *)
  check_ids "allow-file unsafe" [] (ids ~allow "fixtures/d4_bad.ml");
  (* entries are per rule: D1/D3/D6 fixtures are untouched by this file *)
  check_ids "allow-file scoped" [ "D3"; "D3"; "D3" ]
    (ids ~allow "fixtures/d3_bad.ml")

let test_report_format () =
  match Lint.lint_file ~ctx:lib_ctx "fixtures/d1_bad.ml" with
  | f :: _ ->
      let line = Lint.finding_to_string f in
      let prefix = "fixtures/d1_bad.ml:4:12 [D1 global-state]" in
      let lp = String.length prefix in
      Alcotest.(check string) "report prefix" prefix
        (if String.length line >= lp then String.sub line 0 lp else line)
  | [] -> Alcotest.fail "d1_bad.ml should have findings"

(* ---------------------------------------------------------------- *)
(* Typed (cmt) passes: D7/D9/D11 over the fixtures_typed mini-projects.
   Each fixture is a real dune library; its cmts live under .objs in the
   test's own build directory. *)

let typed_findings ?allow ?tracker dir =
  Lint_typed.lint_cmt_dirs ?allow ?tracker ~source_root:"../../.."
    [ "fixtures_typed/" ^ dir ]

let typed_ids dir =
  List.map (fun f -> Lint.rule_id f.Lint.rule) (typed_findings dir)

let test_d7 () =
  (* the local ref, the module-level Hashtbl, the Buffer under Pool.run,
     and the Hashtbl captured by the ident-bound closure Pool.map chases *)
  check_ids "d7_bad" [ "D7"; "D7"; "D7"; "D7" ] (typed_ids "d7_bad");
  (match
     List.find_opt
       (fun f -> contains f.Lint.msg "'seen'")
       (typed_findings "d7_bad")
   with
  | Some _ -> ()
  | None -> Alcotest.fail "ident-bound closure capture of 'seen' not chased");
  check_ids "d7_allow" [] (typed_ids "d7_allow")

let test_d7_cross_module () =
  match typed_findings "d7_cross" with
  | [ f ] ->
      Alcotest.(check string) "rule" "D7" (Lint.rule_id f.Lint.rule);
      Alcotest.(check bool) "names the foreign unit's value" true
        (contains f.Lint.msg "Shared.total")
  | fs ->
      Alcotest.failf "d7_cross: expected exactly 1 finding, got %d"
        (List.length fs)

let test_d9 () =
  (match typed_findings "d9_bad" with
  | [ use; binding; smuggle ] ->
      check_ids "d9_bad ids" [ "D9"; "D9"; "D9" ]
        [
          Lint.rule_id use.Lint.rule;
          Lint.rule_id binding.Lint.rule;
          Lint.rule_id smuggle.Lint.rule;
        ];
      Alcotest.(check bool) "cross-module read flagged" true
        (contains use.Lint.file "fixture.ml" && contains use.Lint.msg "Globals.ambient");
      Alcotest.(check bool) "module-level binding flagged" true
        (contains binding.Lint.file "globals.ml" && contains binding.Lint.msg "ambient");
      Alcotest.(check bool) "record-field smuggling flagged" true
        (contains smuggle.Lint.file "globals.ml"
        && contains smuggle.Lint.msg "hidden"
        && contains smuggle.Lint.msg "smuggles")
  | fs ->
      Alcotest.failf "d9_bad: expected exactly 3 findings, got %d"
        (List.length fs));
  check_ids "d9_allow" [] (typed_ids "d9_allow")

let test_d11 () =
  let findings = typed_findings "d11_bad" in
  check_ids "d11_bad"
    [ "D11"; "D11"; "D11"; "D11"; "D11"; "D11"; "D11"; "D11"; "D11"; "D11" ]
    (List.map (fun f -> Lint.rule_id f.Lint.rule) findings);
  let has sub = List.exists (fun f -> contains f.Lint.msg sub) findings in
  (* one spot-check per allocation kind, in fixture order *)
  Alcotest.(check bool) "closure capture named" true
    (has "closure capturing 'n'");
  Alcotest.(check bool) "tuple construction" true (has "tuple construction");
  Alcotest.(check bool) "float boxing" true (has "returns float");
  Alcotest.(check bool) "partial application" true (has "partial application");
  Alcotest.(check bool) "escaping ref" true (has "ref cell 'r' escapes");
  Alcotest.(check bool) "record literal" true (has "record literal");
  Alcotest.(check bool) "array literal" true (has "array literal");
  Alcotest.(check bool) "poly compare" true (has "polymorphic compare");
  Alcotest.(check bool) "constructor payload" true
    (has "constructor Some with payload");
  (* the same-unit chase reports the callee's allocation at the call site *)
  Alcotest.(check bool) "chased callee" true (has "calls 'helper'");
  (* findings name the annotated owner *)
  Alcotest.(check bool) "owner attribution" true
    (has "(in zero-alloc Fixture.pair)");
  check_ids "d11_good" [] (typed_ids "d11_good")

let test_d11_cross_module () =
  match typed_findings "d11_cross" with
  | [ f ] ->
      Alcotest.(check string) "rule" "D11" (Lint.rule_id f.Lint.rule);
      Alcotest.(check bool) "flagged in the caller" true
        (contains f.Lint.file "caller.ml");
      Alcotest.(check bool) "names the unproven callee" true
        (contains f.Lint.msg "Callee.boxes")
  | fs ->
      Alcotest.failf "d11_cross: expected exactly 1 finding, got %d"
        (List.length fs)

let test_d11_assume () = check_ids "d11_assume" [] (typed_ids "d11_assume")

let test_d11_allow () =
  let tracker = Lint.new_tracker () in
  check_ids "d11_allow suppressed" []
    (List.map
       (fun f -> Lint.rule_id f.Lint.rule)
       (typed_findings ~tracker "d11_allow"));
  let d11_only = function Lint.Zero_alloc -> true | _ -> false in
  match Lint.stale_findings ~in_scope:d11_only ~allow:Lint.no_allow tracker with
  | [ stale ] ->
      Alcotest.(check string) "stale is D10" "D10" (Lint.rule_id stale.Lint.rule);
      Alcotest.(check bool) "stale comment located" true
        (contains stale.Lint.file "d11_allow/fixture.ml");
      Alcotest.(check int) "stale comment line" 11 stale.Lint.line
  | fs ->
      Alcotest.failf "d11_allow: expected exactly 1 stale finding, got %d"
        (List.length fs)

(* The D12/D13 passes are retired: an inline allow or an attribute left
   over from them suppresses nothing and is reported by D10. *)
let test_retired_allow () =
  let tracker = Lint.new_tracker () in
  let findings =
    Lint.lint_file ~tracker ~ctx:lib_ctx "fixtures/retired_allow.ml"
  in
  (* the message-flow allow does not hide the print on its line *)
  check_ids "retired allows suppress nothing" [ "D10"; "D10"; "D6"; "D10" ]
    (List.map (fun f -> Lint.rule_id f.Lint.rule) findings);
  Alcotest.(check (list int)) "finding lines" [ 3; 4; 9; 10 ]
    (List.map (fun f -> f.Lint.line) findings);
  (match Lint.stale_findings ~allow:Lint.no_allow tracker with
  | [ pool; flow ] ->
      check_ids "both are D10" [ "D10"; "D10" ]
        [ Lint.rule_id pool.Lint.rule; Lint.rule_id flow.Lint.rule ];
      Alcotest.(check int) "pool-discipline line" 6 pool.Lint.line;
      Alcotest.(check bool) "pool-discipline named" true
        (contains pool.Lint.msg "allow pool-discipline\" names no dynlint rule");
      Alcotest.(check int) "message-flow line" 9 flow.Lint.line;
      Alcotest.(check bool) "message-flow named" true
        (contains flow.Lint.msg "allow message-flow\" names no dynlint rule")
  | fs ->
      Alcotest.failf "retired_allow.ml: expected exactly 2 stale findings, got [%s]"
        (String.concat "; " (List.map Lint.finding_to_string fs)));
  (* a run that does not include D10 leaves unknown names alone *)
  let d11_only = function Lint.Zero_alloc -> true | _ -> false in
  Alcotest.(check int) "unknown names need D10 in scope" 0
    (List.length
       (Lint.stale_findings ~in_scope:d11_only ~allow:Lint.no_allow tracker))

(* ---------------------------------------------------------------- *)
(* D10: stale-suppression and unknown-vocabulary reporting. *)

let test_stale_allow () =
  let allow = Lint.load_allow_file "fixtures/stale.allow" in
  let tracker = Lint.new_tracker () in
  (* exercises the "unsafe d4_bad.ml" entry ... *)
  check_ids "entry still suppresses" []
    (List.map
       (fun f -> Lint.rule_id f.Lint.rule)
       (Lint.lint_file ~allow ~tracker ~ctx:lib_ctx "fixtures/d4_bad.ml"));
  (* ... and the used inline comment in stale_inline.ml, whose only
     findings are its two [@@dynlint.*] attributes that name nothing
     dynlint checks: the misspelt one would otherwise switch D11 off *)
  (match
     Lint.lint_file ~allow ~tracker ~ctx:lib_ctx "fixtures/stale_inline.ml"
   with
  | [ typo; leftover ] ->
      check_ids "unknown attributes are D10" [ "D10"; "D10" ]
        [ Lint.rule_id typo.Lint.rule; Lint.rule_id leftover.Lint.rule ];
      Alcotest.(check int) "typo line" 8 typo.Lint.line;
      Alcotest.(check bool) "typo named" true
        (contains typo.Lint.msg "dynlint.zero_aloc");
      Alcotest.(check int) "leftover line" 9 leftover.Lint.line;
      Alcotest.(check bool) "leftover named" true
        (contains leftover.Lint.msg "dynlint.pool_acquire")
  | fs ->
      Alcotest.failf "stale_inline.ml: expected exactly 2 findings, got [%s]"
        (String.concat "; " (List.map Lint.finding_to_string fs)));
  (match Lint.stale_findings ~allow tracker with
  | [ entry; inline; unknown ] ->
      check_ids "all are D10" [ "D10"; "D10"; "D10" ]
        (List.map (fun f -> Lint.rule_id f.Lint.rule) [ entry; inline; unknown ]);
      (* the dead entry, at its line in the allow file; the pinned
         never-matching entry is exempt *)
      Alcotest.(check string) "entry file" "fixtures/stale.allow" entry.Lint.file;
      Alcotest.(check int) "entry line" 5 entry.Lint.line;
      Alcotest.(check bool) "entry named" true (contains entry.Lint.msg "never_matches.ml");
      (* the dead inline comment on line 1 (line 3's suppressed a D6) *)
      Alcotest.(check string) "inline file" "fixtures/stale_inline.ml" inline.Lint.file;
      Alcotest.(check int) "inline line" 1 inline.Lint.line;
      (* an inline allow naming no rule (here a retired one) is reported,
         not ignored *)
      Alcotest.(check int) "unknown line" 5 unknown.Lint.line;
      Alcotest.(check bool) "unknown named" true
        (contains unknown.Lint.msg "allow pool-discipline\" names no dynlint rule")
  | fs ->
      Alcotest.failf "expected exactly 3 stale findings, got %d"
        (List.length fs));
  (* a typed-only run must not call parsetree-rule suppressions stale *)
  let typed_only =
    function Lint.Parallel_race | Lint.Rng_taint -> true | _ -> false
  in
  Alcotest.(check int) "out-of-scope suppressions are not stale" 0
    (List.length (Lint.stale_findings ~in_scope:typed_only ~allow tracker))

(* ---------------------------------------------------------------- *)
(* The rule table must read the same everywhere it is rendered: the
   --rules subcommand, the SARIF driver block, and DESIGN.md's table. *)

let test_rules_table_sync () =
  let table = Lint.rules_table () in
  let sarif = Sarif.render [] in
  let design = read_file "../../../DESIGN.md" in
  List.iter
    (fun r ->
      let id = Lint.rule_id r and name = Lint.rule_name r in
      Alcotest.(check bool) (id ^ " row in --rules table") true
        (contains table (id ^ " ") && contains table name);
      Alcotest.(check bool) (id ^ " pass column in --rules table") true
        (contains table (Lint.rule_pass r));
      Alcotest.(check bool) (id ^ " in SARIF rule table") true
        (contains sarif ("\"id\": \"" ^ id ^ "\""));
      Alcotest.(check bool) (id ^ " row in DESIGN.md") true
        (contains design ("| " ^ id ^ " | `" ^ name ^ "` |")))
    Lint.all_rules;
  (* retired ids stay retired: reusing one would give old SARIF
     fingerprints a new meaning *)
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " not in --rules table") false
        (contains table ("\n" ^ id ^ " "));
      Alcotest.(check bool) (id ^ " not in SARIF rule table") false
        (contains sarif ("\"id\": \"" ^ id ^ "\"")))
    [ "D8"; "D12"; "D13" ]

(* ---------------------------------------------------------------- *)
(* The installed executable: --rules output, and the hard error on a
   cmt directory that contains no cmts (a silently-empty typed pass used
   to exit 0 and vacuously pass the gate). *)

let exe = "../dynlint.exe"

let test_exe_rules () =
  let out = Filename.temp_file "dynlint_rules" ".txt" in
  let rc = Sys.command (Printf.sprintf "%s --rules > %s" exe (Filename.quote out)) in
  Alcotest.(check int) "--rules exits 0" 0 rc;
  let printed = read_file out in
  Sys.remove out;
  Alcotest.(check string) "--rules prints the live table"
    (Lint.rules_table ()) printed

let test_exe_empty_cmt () =
  let rc =
    Sys.command
      (Printf.sprintf "%s --cmt no_such_dir fixtures 2> /dev/null" exe)
  in
  Alcotest.(check int) "missing/empty --cmt dir is exit 2" 2 rc

let test_exe_time_budget () =
  (* budget exceeded trumps the findings exit code: CI must see the gate's
     own cost blowing up, not just the lint verdict *)
  let rc =
    Sys.command
      (Printf.sprintf "%s --time-budget-ms 0 fixtures > /dev/null 2> /dev/null"
         exe)
  in
  Alcotest.(check int) "blown budget is exit 3" 3 rc

(* ---------------------------------------------------------------- *)
(* SARIF output. *)

(* One finding source per typed rule: D7, D9 and D11. *)
let golden_findings () =
  typed_findings "d7_bad" @ typed_findings "d9_bad" @ typed_findings "d11_cross"

(* Regenerate with
     DYNLINT_REGEN_GOLDEN=1 dune build @tools/dynlint/runtest
     cp _build/default/tools/dynlint/test/fixtures/sarif_golden.json \
        tools/dynlint/test/fixtures/sarif_golden.json
   (the test writes into its own sandbox; the copy promotes it). *)
let test_sarif_golden () =
  let rendered = Sarif.render (golden_findings ()) in
  if Sys.getenv_opt "DYNLINT_REGEN_GOLDEN" <> None then begin
    let oc = open_out "fixtures/sarif_golden.json" in
    output_string oc rendered;
    close_out oc
  end;
  Alcotest.(check string) "sarif golden"
    (read_file "fixtures/sarif_golden.json")
    rendered

let test_sarif_structure () =
  let findings = golden_findings () in
  let module J = Telemetry.Json in
  let json = J.of_string (Sarif.render findings) in
  let as_list name = function
    | J.List l -> l
    | _ -> Alcotest.failf "%s is not an array" name
  in
  Alcotest.(check string) "version" "2.1.0" (J.to_str (J.member "version" json));
  let run = List.hd (as_list "runs" (J.member "runs" json)) in
  let driver = J.member "driver" (J.member "tool" run) in
  Alcotest.(check string) "driver name" "dynlint"
    (J.to_str (J.member "name" driver));
  Alcotest.(check int) "full rule table" (List.length Lint.all_rules)
    (List.length (as_list "rules" (J.member "rules" driver)));
  let results = as_list "results" (J.member "results" run) in
  Alcotest.(check int) "one result per finding" (List.length findings)
    (List.length results);
  List.iter2
    (fun r (f : Lint.finding) ->
      Alcotest.(check string) "ruleId" (Lint.rule_id f.rule)
        (J.to_str (J.member "ruleId" r));
      Alcotest.(check string) "message" f.msg
        (J.to_str (J.member "text" (J.member "message" r)));
      let loc =
        J.member "physicalLocation"
          (List.hd (as_list "locations" (J.member "locations" r)))
      in
      Alcotest.(check string) "uri" f.file
        (J.to_str (J.member "uri" (J.member "artifactLocation" loc)));
      let region = J.member "region" loc in
      Alcotest.(check int) "startLine" f.line (J.to_int (J.member "startLine" region));
      (* SARIF columns are 1-based; findings are 0-based *)
      Alcotest.(check int) "startColumn" (f.col + 1)
        (J.to_int (J.member "startColumn" region));
      (* the fingerprint is line-free: md5 of rule + file + message only *)
      let fp =
        J.to_str
          (J.member "dynlintFinding/v1" (J.member "partialFingerprints" r))
      in
      Alcotest.(check string) "partialFingerprint"
        (Digest.to_hex
           (Digest.string
              (String.concat "\x00" [ Lint.rule_id f.rule; f.file; f.msg ])))
        fp)
    results findings


(* ---------------------------------------------------------------- *)
(* The real tree must stay silent under both passes: same invocation
   shape as the @lint alias, restricted to lib/ (bin/ and bench/ are not
   test deps). *)

let test_clean_tree () =
  let allow = Lint.load_allow_file "../../../dynlint.allow" in
  let findings = Lint.lint_tree ~allow ~root:"../../.." [ "lib" ] in
  Alcotest.(check (list string)) "lib/ is dynlint-clean" []
    (List.map Lint.finding_to_string findings)

let test_clean_tree_typed () =
  let allow = Lint.load_allow_file "../../../dynlint.allow" in
  let findings =
    Lint_typed.lint_cmt_dirs ~allow ~source_root:"../../.." [ "../../../lib" ]
  in
  Alcotest.(check (list string)) "lib/ cmts are dynlint-clean" []
    (List.map Lint.finding_to_string findings)

let () =
  Alcotest.run "dynlint"
    [
      ( "rules",
        [
          Alcotest.test_case "bad fixtures hit their rule" `Quick
            test_bad_fixtures;
          Alcotest.test_case "allow comments silence findings" `Quick
            test_allow_fixtures;
          Alcotest.test_case "mli coverage (D5)" `Quick test_mli;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "parallel-race fixtures (D7)" `Quick test_d7;
          Alcotest.test_case "cross-module capture (D7)" `Quick
            test_d7_cross_module;
          Alcotest.test_case "rng taint (D9)" `Quick test_d9;
          Alcotest.test_case "stale suppressions (D10)" `Quick
            test_stale_allow;
          Alcotest.test_case "zero-alloc (D11)" `Quick test_d11;
          Alcotest.test_case "cross-module call (D11)" `Quick
            test_d11_cross_module;
          Alcotest.test_case "assume escape hatch (D11)" `Quick
            test_d11_assume;
          Alcotest.test_case "inline allow + stale (D11)" `Quick
            test_d11_allow;
          Alcotest.test_case "inline allow + stale (D12/D13)" `Quick
            test_retired_allow;
        ] );
      ( "gates",
        [
          Alcotest.test_case "rule applicability by context" `Quick
            test_context_gates;
          Alcotest.test_case "path classification" `Quick test_ctx_of_path;
          Alcotest.test_case "allow file suppression" `Quick test_allow_file;
        ] );
      ( "output",
        [
          Alcotest.test_case "finding format" `Quick test_report_format;
          Alcotest.test_case "rule table in sync everywhere" `Quick
            test_rules_table_sync;
          Alcotest.test_case "exe --rules" `Quick test_exe_rules;
          Alcotest.test_case "exe rejects cmt-less dir" `Quick
            test_exe_empty_cmt;
          Alcotest.test_case "exe enforces its time budget" `Quick
            test_exe_time_budget;
          Alcotest.test_case "sarif golden" `Quick test_sarif_golden;
          Alcotest.test_case "sarif structure" `Quick test_sarif_structure;
          Alcotest.test_case "clean tree is silent" `Quick test_clean_tree;
          Alcotest.test_case "clean tree is silent (typed)" `Quick
            test_clean_tree_typed;
        ] );
    ]
