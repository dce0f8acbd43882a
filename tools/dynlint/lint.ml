type rule =
  | Global_state
  | Ambient
  | Poly_compare
  | Unsafe
  | Mli
  | Stdout
  | Parallel_race
  | Rng_taint
  | Zero_alloc
  | Stale_allow

let rule_id = function
  | Global_state -> "D1"
  | Ambient -> "D2"
  | Poly_compare -> "D3"
  | Unsafe -> "D4"
  | Mli -> "D5"
  | Stdout -> "D6"
  | Parallel_race -> "D7"
  | Rng_taint -> "D9"
  | Stale_allow -> "D10"
  | Zero_alloc -> "D11"

let rule_name = function
  | Global_state -> "global-state"
  | Ambient -> "ambient"
  | Poly_compare -> "poly-compare"
  | Unsafe -> "unsafe"
  | Mli -> "mli"
  | Stdout -> "stdout"
  | Parallel_race -> "parallel-race"
  | Rng_taint -> "rng-taint"
  | Stale_allow -> "stale-allow"
  | Zero_alloc -> "zero-alloc"

let rule_help = function
  | Global_state ->
      "Top-level mutable allocation in lib/ is shared across Pool domains."
  | Ambient ->
      "Ambient randomness or wall-clock time breaks seeded replay; only the \
       seeded Rng and simulated Net time exist in the model."
  | Poly_compare ->
      "Polymorphic compare/hash is visit-order dependent on mutable values; \
       use a monomorphic comparator."
  | Unsafe -> "Obj.magic, Marshal and unannotated assert false are forbidden."
  | Mli -> "Every lib module declares its surface in an .mli."
  | Stdout -> "lib/ code must not write to stdout; use telemetry or return values."
  | Parallel_race ->
      "A closure handed to Pool.map/Pool.run/Explore.sweep captures a mutable \
       value defined outside it: that value is shared across domains and the \
       -j N = -j 1 byte-determinism contract breaks."
  | Rng_taint ->
      "Every Rng.t must flow from a function parameter or an explicit \
       Rng.create ~seed, never from a module-level binding: module-level RNG \
       state is drawn from in whatever order domains interleave."
  | Stale_allow ->
      "This allowlist entry or inline allow comment suppresses nothing, or \
       this inline allow or [@@dynlint.*] attribute names no rule dynlint \
       knows; dead or misspelled exceptions accumulate until they hide a real \
       regression."
  | Zero_alloc ->
      "A function annotated [@@dynlint.zero_alloc] must allocate nothing on \
       any non-raising path: no closures, tuples, records, boxed floats, \
       refs, partial applications, polymorphic compares, or calls into \
       functions not themselves proven or assumed zero-alloc."

let all_rules =
  [
    Global_state; Ambient; Poly_compare; Unsafe; Mli; Stdout; Parallel_race;
    Rng_taint; Stale_allow; Zero_alloc;
  ]

(* Which phase of the tool owns the rule — the `--rules` table prints it,
   the driver's per-pass timing summary uses the same names, and the D10
   in_scope gating mirrors it. *)
let rule_pass = function
  | Global_state | Ambient | Poly_compare | Unsafe | Mli | Stdout -> "parsetree"
  | Parallel_race | Rng_taint -> "typedtree"
  | Zero_alloc -> "alloc"
  | Stale_allow -> "driver"

(* The `dynlint --rules` table: one line per rule. Kept as data (not
   Printf.printf'd in the driver) so the test suite can assert it against
   the SARIF rule table and the DESIGN.md table without spawning a
   process. *)
let rules_table () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-4s %-20s %-10s %s\n" "ID" "ALLOW-KEY" "PASS" "SUMMARY");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-4s %-20s %-10s %s\n" (rule_id r) (rule_name r)
           (rule_pass r) (rule_help r)))
    all_rules;
  Buffer.contents b

let rule_of_name s = List.find_opt (fun r -> rule_name r = s) all_rules

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
}

let finding_to_string f =
  Printf.sprintf "%s:%d:%d [%s %s] %s" f.file f.line f.col (rule_id f.rule)
    (rule_name f.rule) f.msg

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> Int.compare a.col b.col
      | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* allowlisting                                                        *)

type allow_entry = {
  arule : rule;
  suffix : string;
  pin : bool;  (* standing-policy entry, exempt from staleness *)
  aline : int;  (* 1-indexed line in the allow file, for stale reports *)
}

type allow = { entries : allow_entry list; allow_path : string }

let no_allow = { entries = []; allow_path = "" }

(* Which suppressions actually suppressed something, plus every inline
   allow-comment site seen, so the driver can report stale ones. All three
   lists are deduplicated on insert; the scale is tens of entries. *)
type tracker = {
  mutable used_entries : (rule * string) list;
  mutable used_inline : (string * int) list;  (* file, comment line *)
  mutable inline_sites : (string * int * string) list;  (* file, line, name *)
}

let new_tracker () = { used_entries = []; used_inline = []; inline_sites = [] }

let mark_entry tracker (e : allow_entry) =
  match tracker with
  | None -> ()
  | Some t ->
      let k = (e.arule, e.suffix) in
      if not (List.mem k t.used_entries) then t.used_entries <- k :: t.used_entries

let mark_inline tracker file line =
  match tracker with
  | None -> ()
  | Some t ->
      let k = (file, line) in
      if not (List.mem k t.used_inline) then t.used_inline <- k :: t.used_inline

let is_path_suffix ~suffix path =
  (* [suffix] matches [path] on whole /-separated components from the end *)
  let lp = String.length path and ls = String.length suffix in
  ls <= lp
  && String.sub path (lp - ls) ls = suffix
  && (ls = lp || path.[lp - ls - 1] = '/')

let file_allowed ?tracker allow rule path =
  List.exists
    (fun e ->
      if e.arule = rule && is_path_suffix ~suffix:e.suffix path then begin
        mark_entry tracker e;
        true
      end
      else false)
    allow.entries

let load_allow_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let raw = input_line ic in
           incr lineno;
           let line =
             match String.index_opt raw '#' with
             | Some i -> String.sub raw 0 i
             | None -> raw
           in
           let entry ~pin name suffix =
             match rule_of_name name with
             | Some r ->
                 entries := { arule = r; suffix; pin; aline = !lineno } :: !entries
             | None ->
                 failwith (Printf.sprintf "%s: unknown dynlint rule %S" path name)
           in
           match String.split_on_char ' ' (String.trim line) with
           | [ "" ] -> ()
           | [ name; suffix ] -> entry ~pin:false name suffix
           | [ "pin"; name; suffix ] -> entry ~pin:true name suffix
           | _ ->
               failwith
                 (Printf.sprintf
                    "%s: malformed allow entry %S (want: [pin] <rule-name> \
                     <path>)"
                    path raw)
         done
       with End_of_file -> ());
      { entries = List.rev !entries; allow_path = path })

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* A finding on line [l] is suppressed by "dynlint: allow <rule-name>" on
   line [l] or [l-1] (1-indexed). *)
let line_allowed ?tracker ~file lines rule l =
  let tag = "dynlint: allow " ^ rule_name rule in
  let has l = l >= 1 && l <= Array.length lines && contains_substring lines.(l - 1) tag in
  if has l then begin
    mark_inline tracker file l;
    true
  end
  else if has (l - 1) then begin
    mark_inline tracker file (l - 1);
    true
  end
  else false

(* Register every "dynlint: allow <name>" site in [lines] with the
   tracker, so unused ones can be reported as stale. The name is the
   longest [a-z-] token following the marker; one that names no rule is
   kept too, and reported as unknown vocabulary rather than ignored. *)
let inline_marker = "dynlint: allow "

let scan_inline_allows ?tracker ~file lines =
  match tracker with
  | None -> ()
  | Some t ->
      Array.iteri
        (fun i line ->
          let lm = String.length inline_marker in
          let ll = String.length line in
          let rec find_from ofs =
            if ofs + lm > ll then ()
            else if String.sub line ofs lm = inline_marker then begin
              let start = ofs + lm in
              let stop = ref start in
              while
                !stop < ll
                && (match line.[!stop] with 'a' .. 'z' | '-' -> true | _ -> false)
              do
                incr stop
              done;
              let k = (file, i + 1, String.sub line start (!stop - start)) in
              if not (List.mem k t.inline_sites) then
                t.inline_sites <- k :: t.inline_sites;
              find_from !stop
            end
            else find_from (ofs + 1)
          in
          find_from 0)
        lines

(* Stale-suppression report: allow-file entries (unless pinned) and inline
   allow comments that suppressed no finding across every pass the tracker
   saw, plus inline allows naming no rule at all. [in_scope] restricts the
   report to rules a pass actually ran — a typed-only invocation must not
   call the parsetree rules' suppressions stale (and vice versa). *)
let stale_findings ?(in_scope = fun _ -> true) ~allow tracker =
  let entry_findings =
    List.filter_map
      (fun e ->
        if
          e.pin
          || (not (in_scope e.arule))
          || List.mem (e.arule, e.suffix) tracker.used_entries
        then None
        else
          Some
            {
              file = allow.allow_path;
              line = e.aline;
              col = 0;
              rule = Stale_allow;
              msg =
                Printf.sprintf
                  "allow entry \"%s %s\" suppresses nothing; delete it or mark \
                   it \"pin\" with a written policy reason"
                  (rule_name e.arule) e.suffix;
            })
      allow.entries
  in
  let inline_findings =
    List.filter_map
      (fun (file, line, name) ->
        let stale msg = Some { file; line; col = 0; rule = Stale_allow; msg } in
        match rule_of_name name with
        | None when in_scope Stale_allow ->
            stale
              (Printf.sprintf
                 "inline \"dynlint: allow %s\" names no dynlint rule (see \
                  dynlint --rules); it suppresses nothing"
                 name)
        | None -> None
        | Some r ->
            if (not (in_scope r)) || List.mem (file, line) tracker.used_inline
            then None
            else
              stale
                (Printf.sprintf
                   "inline \"dynlint: allow %s\" suppresses nothing on this \
                    or the next line; delete it"
                   name))
      tracker.inline_sites
  in
  List.sort compare_findings (entry_findings @ inline_findings)

(* ------------------------------------------------------------------ *)
(* parsetree helpers                                                   *)

open Parsetree

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

(* normalize away an explicit Stdlib. prefix so Stdlib.Sys.time = Sys.time *)
let path_of_lid lid =
  match flatten_lid lid with "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* ------------------------------------------------------------------ *)
(* ident classification per rule                                       *)

(* D1: allocators of shared mutable state; flagged in application position
   at module top level *)
let is_mutable_alloc = function
  | [ "ref" ]
  | [ "Hashtbl"; "create" ]
  | [ "Buffer"; "create" ]
  | [ "Queue"; "create" ]
  | [ "Stack"; "create" ]
  | [ "Atomic"; "make" ] ->
      true
  | _ -> false

(* D2: ambient nondeterminism — wall clock and the global Random state *)
let ambient_msg = function
  | "Random" :: _ ->
      Some "ambient Random: draw from a seeded Rng.t threaded from the caller"
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ]
  | [ "Unix"; "gmtime" ] | [ "Unix"; "localtime" ] ->
      Some "wall-clock time: only simulated Net time exists in the model"
  | _ -> None

(* D3 (ident part): polymorphic compare/hash *)
let poly_compare_msg = function
  | [ "compare" ] ->
      Some
        "bare polymorphic compare is visit-order dependent on mutable \
         records; use a monomorphic comparator (Int.compare, \
         String.compare, ...)"
  | [ "Hashtbl"; "hash" ] | [ "Hashtbl"; "seeded_hash" ] ->
      Some "polymorphic Hashtbl.hash on node-carrying values; hash a stable key instead"
  | _ -> None

(* D4 (ident part) *)
let unsafe_ident_msg = function
  | [ "Obj"; "magic" ] -> Some "Obj.magic defeats the type system"
  | "Marshal" :: _ ->
      Some "Marshal is representation-dependent and breaks abstraction"
  | _ -> None

(* D6: stdout writers *)
let stdout_print_names =
  [
    "print_string"; "print_bytes"; "print_int"; "print_float"; "print_char";
    "print_endline"; "print_newline";
  ]

let stdout_msg = function
  | [ n ] when List.mem n stdout_print_names ->
      Some (n ^ " writes to stdout; emit telemetry or return the value")
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] ->
      Some "printf writes to stdout; emit telemetry or return the value"
  | [ "Format"; n ] when String.length n >= 6 && String.sub n 0 6 = "print_" ->
      Some ("Format." ^ n ^ " writes to std_formatter (stdout)")
  | _ -> None

let equality_ops = [ "="; "<>"; "=="; "!=" ]

let rec strip_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_expr e
  | _ -> e

let is_record_literal e =
  match (strip_expr e).pexp_desc with Pexp_record _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* the per-file pass                                                   *)

type ctx = { lib : bool; test : bool }

let ctx_of_path path =
  let parts = String.split_on_char '/' path in
  let lib = match parts with "lib" :: _ -> true | _ -> false in
  let test =
    List.exists (fun seg -> seg = "test" || seg = "tests") parts
  in
  { lib; test }

let parse_structure path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let source_lines path =
  Array.of_list (String.split_on_char '\n' (read_file path))

let lint_structure ?(allow = no_allow) ?tracker ~ctx ~path ~lines str =
  let findings = ref [] in
  let flag rule loc msg =
    let line, col = loc_pos loc in
    if
      (not (line_allowed ?tracker ~file:path lines rule line))
      && not (file_allowed ?tracker allow rule path)
    then
      findings := { file = path; line; col; rule; msg } :: !findings
  in
  (* D1: scan a top-level binding's RHS, stopping at function boundaries —
     allocation inside a function body happens per call, not at module
     init. *)
  let scan_toplevel_rhs e0 =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> ()
            | Pexp_apply (f, _) ->
                (match (strip_expr f).pexp_desc with
                | Pexp_ident { txt; loc } ->
                    let p = path_of_lid txt in
                    if is_mutable_alloc p then
                      flag Global_state loc
                        (String.concat "." p
                       ^ " at module top level is shared mutable state and \
                          races under Pool domains; allocate inside the \
                          value's owner or annotate with (* dynlint: allow \
                          global-state -- reason *)")
                | _ -> ());
                Ast_iterator.default_iterator.expr self e
            | _ -> Ast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it e0
  in
  (* Everything else: one full walk. *)
  let on_ident lid loc =
    let p = path_of_lid lid in
    if ctx.lib then (
      (match ambient_msg p with Some m -> flag Ambient loc m | None -> ());
      (match poly_compare_msg p with
      | Some m -> flag Poly_compare loc m
      | None -> ());
      match stdout_msg p with Some m -> flag Stdout loc m | None -> ());
    if not ctx.test then
      match unsafe_ident_msg p with
      | Some m -> flag Unsafe loc m
      | None -> ()
  in
  let expr_rule self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> on_ident txt loc
    | Pexp_assert inner when not ctx.test -> (
        match (strip_expr inner).pexp_desc with
        | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
            flag Unsafe e.pexp_loc
              "assert false: if the branch is truly unreachable, annotate \
               with (* dynlint: allow unsafe -- reason *)"
        | _ -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
      when ctx.lib -> (
        match (path_of_lid txt, args) with
        | [ op ], [ (_, a); (_, b) ]
          when List.mem op equality_ops
               && (is_record_literal a || is_record_literal b) ->
            flag Poly_compare loc
              (Printf.sprintf
                 "polymorphic %s on a record literal is visit-order \
                  dependent when fields are mutable; compare a stable \
                  projection instead"
                 op)
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let structure_item_rule self item =
    (match item.pstr_desc with
    | Pstr_value (_, bindings) when ctx.lib ->
        List.iter (fun vb -> scan_toplevel_rhs vb.pvb_expr) bindings
    | _ -> ());
    (* default iterator recurses into nested modules' structure items, so
       bindings inside [module M = struct ... end] are still top level for
       D1 purposes — but bindings inside expressions are not, because we
       only hook structure items. *)
    Ast_iterator.default_iterator.structure_item self item
  in
  (* D10: zero_alloc is the only attribute any pass reads (D11), and an
     unknown one is ignored by every pass, so a typo such as
     [@@dynlint.zero_aloc] would silently switch D11's proof off. *)
  let attribute_rule self (a : attribute) =
    let name = a.attr_name.txt in
    if String.starts_with ~prefix:"dynlint." name && name <> "dynlint.zero_alloc"
    then
      flag Stale_allow a.attr_name.loc
        (Printf.sprintf
           "attribute [@@%s] is read by no dynlint pass (the only one is \
            [@@dynlint.zero_alloc]); it is silently ignored"
           name);
    Ast_iterator.default_iterator.attribute self a
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = expr_rule;
      structure_item = structure_item_rule;
      attribute = attribute_rule;
    }
  in
  it.structure it str;
  List.rev !findings

let lint_file ?(allow = no_allow) ?tracker ?display ~ctx path =
  let display = Option.value display ~default:path in
  let source = read_file path in
  let lines = Array.of_list (String.split_on_char '\n' source) in
  scan_inline_allows ?tracker ~file:display lines;
  match parse_structure path source with
  | str -> lint_structure ~allow ?tracker ~ctx ~path:display ~lines str
  | exception exn ->
      let line, col, detail =
        match Location.error_of_exn exn with
        | Some (`Ok err) ->
            let l, c = loc_pos err.main.loc in
            (l, c, Format.asprintf "%t" err.main.txt)
        | _ -> (1, 0, Printexc.to_string exn)
      in
      [
        {
          file = display;
          line;
          col;
          rule = Unsafe;
          msg = "file does not parse: " ^ detail;
        };
      ]

let check_mli ?(allow = no_allow) ?tracker ?display path =
  let display = Option.value display ~default:path in
  if file_allowed ?tracker allow Mli display then None
  else
    let mli = Filename.remove_extension path ^ ".mli" in
    if Sys.file_exists mli then None
    else
      (* a leading "dynlint: allow mli" comment also suppresses *)
      let head_allows =
        match read_file path with
        | source ->
            let rec first_lines n = function
              | x :: tl when n > 0 -> x :: first_lines (n - 1) tl
              | _ -> []
            in
            let rec scan i = function
              | [] -> None
              | l :: tl ->
                  if contains_substring l "dynlint: allow mli" then Some i
                  else scan (i + 1) tl
            in
            scan 1 (first_lines 3 (String.split_on_char '\n' source))
        | exception Sys_error _ -> None
      in
      match head_allows with
      | Some l ->
          mark_inline tracker display l;
          None
      | None ->
          Some
            {
              file = display;
              line = 1;
              col = 0;
              rule = Mli;
              msg =
                "missing interface " ^ Filename.basename mli
                ^ ": every lib module declares its surface";
            }

(* ------------------------------------------------------------------ *)
(* tree walk                                                           *)

let rec walk_dir acc dir =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if name = "" || name.[0] = '.' || name = "_build" then acc
      else
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk_dir acc p
        else if Filename.check_suffix name ".ml" then p :: acc
        else acc)
    acc entries

let lint_tree ?(allow = no_allow) ?tracker ~root dirs =
  let files =
    List.concat_map
      (fun d ->
        let abs = Filename.concat root d in
        if Sys.file_exists abs && Sys.is_directory abs then
          List.rev (walk_dir [] abs)
        else if Sys.file_exists abs then [ abs ]
        else [])
      dirs
  in
  let rel path =
    let prefix = root ^ "/" in
    let lp = String.length prefix in
    if String.length path >= lp && String.sub path 0 lp = prefix then
      String.sub path lp (String.length path - lp)
    else path
  in
  let findings =
    List.concat_map
      (fun abs ->
        let path = rel abs in
        let ctx = ctx_of_path path in
        let fs = lint_file ~allow ?tracker ~display:path ~ctx abs in
        if ctx.lib && not ctx.test then
          match check_mli ~allow ?tracker ~display:path abs with
          | Some f -> fs @ [ f ]
          | None -> fs
        else fs)
      files
  in
  List.sort compare_findings findings

(* ------------------------------------------------------------------ *)
(* the shared typed-pass emitter                                       *)

(* Both typed passes (the D7/D9 scan and D11 alloc) emit through one of
   these: it owns the allow-file and inline-allow suppression (sharing the
   tracker for D10 staleness), caches source lines so each linted source
   is read once across both passes, and accumulates the surviving
   findings. *)
type emitter = {
  em_allow : allow;
  em_tracker : tracker option;
  em_source_root : string;
  em_lines : (string, string array option) Hashtbl.t;
  mutable em_findings : finding list;
}

let make_emitter ?(allow = no_allow) ?tracker ?(source_root = ".") () =
  {
    em_allow = allow;
    em_tracker = tracker;
    em_source_root = source_root;
    em_lines = Hashtbl.create 16;
    em_findings = [];
  }

(* Lines of a linted source, for inline-allow suppression; registering its
   allow sites with the tracker on first touch. Sources that cannot be
   found (a cmt linted outside its workspace) fall back to allow-file-only
   suppression. *)
let emitter_touch_source em file =
  match Hashtbl.find_opt em.em_lines file with
  | Some l -> l
  | None ->
      let l =
        let p = Filename.concat em.em_source_root file in
        if Sys.file_exists p then (
          let lines = source_lines p in
          scan_inline_allows ?tracker:em.em_tracker ~file lines;
          Some lines)
        else None
      in
      Hashtbl.add em.em_lines file l;
      l

let emit em rule (loc : Location.t) msg =
  let p = loc.loc_start in
  let f =
    { file = p.pos_fname; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; rule; msg }
  in
  if not (file_allowed ?tracker:em.em_tracker em.em_allow rule f.file) then
    match emitter_touch_source em f.file with
    | Some lines
      when line_allowed ?tracker:em.em_tracker ~file:f.file lines rule f.line ->
        ()
    | _ -> em.em_findings <- f :: em.em_findings

let emitter_findings em = List.sort_uniq Stdlib.compare em.em_findings
