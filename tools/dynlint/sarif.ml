(* SARIF 2.1.0 rendering for dynlint findings.

   Hand-rolled JSON (the tool stays dependency-free beyond compiler-libs):
   one run, one driver, the full rule table (so ruleIndex is stable
   whether or not a rule fired), one result per finding. Columns are
   1-based per the SARIF spec; dynlint's text output is 0-based, so
   startColumn = col + 1. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Line- and column-free fingerprint over (rule, file, message): a finding
   keeps its identity when unrelated edits shift it down the file, so a
   stacked PR can diff SARIF uploads and surface only genuinely new
   findings. Versioned key per the SARIF partialFingerprints convention. *)
let fingerprint (f : Lint.finding) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ Lint.rule_id f.rule; f.file; f.msg ]))

let rule_index rule =
  let rec idx i = function
    | [] -> 0
    | r :: _ when r = rule -> i
    | _ :: rest -> idx (i + 1) rest
  in
  idx 0 Lint.all_rules

let render findings =
  let b = Buffer.create 4096 in
  let str s = buf_add_json_string b s in
  let raw s = Buffer.add_string b s in
  raw "{\n  \"version\": \"2.1.0\",\n  \"$schema\": ";
  str "https://json.schemastore.org/sarif-2.1.0.json";
  raw ",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n";
  raw "          \"name\": \"dynlint\",\n";
  raw "          \"informationUri\": ";
  str "https://example.invalid/dynlint";
  raw ",\n          \"rules\": [\n";
  List.iteri
    (fun i rule ->
      raw "            {\"id\": ";
      str (Lint.rule_id rule);
      raw ", \"name\": ";
      str (Lint.rule_name rule);
      raw ", \"shortDescription\": {\"text\": ";
      str (Lint.rule_help rule);
      raw "}}";
      if i < List.length Lint.all_rules - 1 then raw ",";
      raw "\n")
    Lint.all_rules;
  raw "          ]\n        }\n      },\n      \"results\": [\n";
  List.iteri
    (fun i (f : Lint.finding) ->
      raw "        {\"ruleId\": ";
      str (Lint.rule_id f.rule);
      raw (Printf.sprintf ", \"ruleIndex\": %d" (rule_index f.rule));
      raw ", \"partialFingerprints\": {\"dynlintFinding/v1\": ";
      str (fingerprint f);
      raw "}";
      raw ", \"level\": \"error\", \"message\": {\"text\": ";
      str f.msg;
      raw "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": ";
      str f.file;
      raw (Printf.sprintf "}, \"region\": {\"startLine\": %d, \"startColumn\": %d}}}]}" f.line (f.col + 1));
      if i < List.length findings - 1 then raw ",";
      raw "\n")
    findings;
  raw "      ]\n    }\n  ]\n}\n";
  Buffer.contents b

let write ~file findings =
  let oc = open_out file in
  output_string oc (render findings);
  close_out oc
