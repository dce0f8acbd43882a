(** dynlint: repo-specific determinism & domain-safety lint rules.

    Each rule is motivated by a bug this repo already shipped (or nearly
    shipped); see DESIGN.md "Static analysis". D1-D4 and D6 operate on the
    parsetree (compiler-libs [Parse] + [Ast_iterator]) — no typing pass —
    so they are fast and run on any file that parses, at the cost of a few
    syntactic heuristics. D11 needs types and cross-module visibility and
    is the one typed pass ({!Lint_alloc}, reading [.cmt] files); D10 is
    computed by the driver from the {!tracker} both passes share. D5, D7,
    D8, D9, D12 and D13 are retired and their ids are not reused: the
    compiler's warning 70, D1, the type system, the [.mli] boundary and
    runtime witnesses cover them (see DESIGN.md "Static analysis").

    {2 Rules}

    - [D1 global-state]: top-level bindings in [lib/] that allocate mutable
      state ([ref]/[Hashtbl.create]/[Buffer.create]/[Queue.create]/
      [Stack.create]/[Atomic.make]) or a random generator
      ([Rng.create]/[Rng.split]), including inside nested modules, record
      fields and [lazy]; the walk stops at function boundaries. These race
      under [Pool] domains and once broke [-j] byte-determinism.
    - [D2 ambient]: [Random.*], [Sys.time], [Unix.gettimeofday]/[time]/
      [gmtime]/[localtime] in [lib/] outside [lib/util/rng.ml]. Only the
      seeded [Rng] and simulated time exist in the paper's model.
    - [D3 poly-compare]: bare polymorphic [compare]/[Stdlib.compare]/
      [Hashtbl.hash], and [=]/[<>]/[==]/[!=] applied directly to a record
      literal. Structural compare on records with mutable fields is
      visit-order dependent; hot paths want monomorphic compares anyway.
    - [D4 unsafe]: [Obj.magic], [Marshal.*], [assert false] in non-test
      code. [assert false] is fine where truly unreachable — annotate it.
    - [D6 stdout]: [print_*]/[Printf.printf]/[Format.printf] in [lib/];
      output must go through telemetry sinks or returned values.
    - [D10 stale-allow] (driver): an allow-file entry or inline allow
      comment that suppressed no finding across the whole run; an inline
      allow naming no rule; a [[@@dynlint.<x>]] attribute other than
      [zero_alloc] (reported by the parsetree pass).
    - [D11 zero-alloc] (typed, {!Lint_alloc}): a function annotated
      [[@@dynlint.zero_alloc]] is conservatively verified to allocate
      nothing on any non-raising path; [[@@dynlint.zero_alloc assume]]
      vouches for externals and wrappers the checker cannot see into.

    {2 Allowlisting}

    A finding on line [l] is suppressed when line [l] or line [l-1]
    contains [dynlint: allow <rule-name>] (in a comment by convention; the
    scan is textual). Whole files are suppressed through an allow file
    (see {!load_allow_file}): lines of the form [[pin] <rule-name> <path>],
    [#]-comments and blanks ignored; the path matches any linted file whose
    [/]-separated path ends with it. The optional [pin] keyword marks a
    standing-policy entry that is exempt from D10 staleness — the entry
    documents a contract even while nothing currently violates it. *)

type rule =
  | Global_state  (** D1 *)
  | Ambient  (** D2 *)
  | Poly_compare  (** D3 *)
  | Unsafe  (** D4 *)
  | Stdout  (** D6 *)
  | Zero_alloc  (** D11, alloc pass *)
  | Stale_allow  (** D10, driver *)

val rule_id : rule -> string
(** ["D1"]-["D4"], ["D6"], ["D10"] and ["D11"]; retired ids are never
    reused. *)

val rule_name : rule -> string
(** The allowlist token: ["global-state"], ["ambient"], ["poly-compare"],
    ["unsafe"], ["stdout"], ["stale-allow"], ["zero-alloc"]. *)

val rule_help : rule -> string
(** One-sentence rationale, used as the SARIF rule description. *)

val all_rules : rule list
(** Every rule, in id order. *)

val rule_pass : rule -> string
(** Which phase owns the rule: ["parsetree"] (D1-D4, D6), ["alloc"] (D11)
    or ["driver"] (D10). The driver's per-pass timing summary uses the same
    names. *)

val rules_table : unit -> string
(** The [dynlint --rules] listing: a header line plus one line per rule
    (id, allow-key, pass, one-line summary), in {!all_rules} order. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  msg : string;
}

val finding_to_string : finding -> string
(** [file:line:col [id rule-name] msg] — the exact line the executable
    prints. *)

val compare_findings : finding -> finding -> int
(** Order by (file, line, col). *)

type allow
(** Parsed allow file: (rule, path-suffix) entries, with pin flags. *)

val no_allow : allow

val load_allow_file : string -> allow
(** @raise Sys_error if the file cannot be read.
    @raise Failure on a malformed line (unknown rule name). *)

type tracker
(** Mutable record of which suppressions (allow-file entries and inline
    allow comments) actually fired, and of every inline allow site seen.
    Share one tracker across the parsetree and typed passes, then call
    {!stale_findings} for the D10 report. *)

val new_tracker : unit -> tracker

val stale_findings :
  ?in_scope:(rule -> bool) -> allow:allow -> tracker -> finding list
(** D10: non-[pin] allow entries and inline allow comments that suppressed
    nothing across everything the tracker saw, plus inline allows whose
    name is no rule (reported whenever D10 itself is in scope). [in_scope] (default:
    everything) restricts the report to rules that actually ran — a
    typed-only invocation must not call a parsetree rule's suppressions
    stale. Sorted by (file, line). *)

(** Which rule groups apply to a file, by where it lives in the tree. *)
type ctx = {
  lib : bool;  (** under [lib/]: D1, D2, D3, D6 *)
  test : bool;  (** test code: D4 does not apply *)
}

val ctx_of_path : string -> ctx
(** Classify a [/]-separated path: [lib/...] is lib code, [test/...] or any
    [.../test/...] segment is test code. *)

val lint_file :
  ?allow:allow -> ?tracker:tracker -> ?display:string -> ctx:ctx -> string ->
  finding list
(** Parse one [.ml] file and run every applicable syntactic rule (D1-D4,
    D6, and D10's unknown-attribute check). A file that does not parse yields a single D4 finding at the error
    location (an unparseable file cannot be vouched for). Findings are in
    source order and carry [display] (default: the path itself) as their
    file. *)

val lint_tree :
  ?allow:allow -> ?tracker:tracker -> root:string -> string list ->
  finding list
(** Walk the given directories (relative to [root]) recursively in sorted
    order and lint every [.ml] with {!lint_file} under its {!ctx_of_path}
    classification. [_build], [.git]
    and hidden directories are skipped. Findings are sorted by
    (file, line, col). *)

type emitter
(** The finding sink of the typed pass: owns allow-file and inline-allow
    suppression (sharing the tracker for D10 staleness), caches source
    lines so each linted source is read once, and accumulates the
    surviving findings. Make one, hand it to {!Lint_alloc.check_units},
    then collect with {!emitter_findings}. *)

val make_emitter :
  ?allow:allow -> ?tracker:tracker -> ?source_root:string -> unit -> emitter
(** [source_root] (default ["."]) prefixes the workspace-relative source
    paths recorded in cmts when reading sources for inline-allow
    suppression. *)

val emit : emitter -> rule -> Location.t -> string -> unit
(** Record one finding at a typedtree location unless an allow-file entry
    or inline allow comment suppresses it. *)

val emitter_touch_source : emitter -> string -> string array option
(** Read (and cache) a linted source's lines, registering its inline allow
    sites with the tracker — call for every scanned unit so finding-free
    files still report stale allows. [None] when the source is missing. *)

val emitter_findings : emitter -> finding list
(** Everything emitted so far, sorted and deduplicated. *)
