(** D11 [zero-alloc]: conservative static verification that functions
    annotated [[@@dynlint.zero_alloc]] allocate nothing on any non-raising
    path.

    Flagged: closure creation (unless the closure is closed — no free
    variables — and therefore static), tuple/record/array/variant-with-
    payload construction (unless fully constant), [ref] (unless let-bound
    and eliminable to a stack slot), boxed-float results (float-returning
    calls into unproven callees, flat-float-record field reads), partial
    application, polymorphic compare, [lazy]/objects/first-class modules,
    and calls into functions that are neither no-alloc primitives nor
    annotated ([check] or [assume]) in any scanned unit.

    Exempt: branches that always raise, calls through function-typed
    values (parameters, stored continuations — the supplier's contract),
    and string/float literals (allocated once at link time, not per call).

    Interprocedural reasoning: same-unit callees reached by ident are
    chased and memoized, with failures reported at the annotated call
    site; cross-module callees resolve through the summary table built
    from every scanned [.cmt].
    [[@@dynlint.zero_alloc assume]] enters the table unverified — the
    escape hatch for externals. See DESIGN.md "Allocation discipline". *)

val check_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** D11 over preloaded units. First sweep: every
    [[@@dynlint.zero_alloc]]-annotated value binding or external, check and
    assume alike, enters a trusted table keyed by (unwrapped unit name,
    value name). Second sweep: every [check]-mode value is verified against
    that table, one finding per allocation site, so cross-module calls
    resolve whatever the scan order. Every unit's source is touched through
    the emitter, so finding-free files still register their inline allow
    sites for D10. *)

val lint_cmt_files :
  ?allow:Lint.allow ->
  ?tracker:Lint.tracker ->
  ?source_root:string ->
  string list ->
  Lint.finding list
(** {!check_units} over the given [.cmt] files, loaded with
    {!Cmt_load.load_files}. [source_root] (default ["."]) prefixes the
    workspace-relative source paths recorded in the cmts when reading
    sources for inline-allow suppression; when a source cannot be found,
    only allow-file suppression applies. Findings are sorted by
    (file, line, col). *)

val lint_cmt_dirs :
  ?allow:Lint.allow ->
  ?tracker:Lint.tracker ->
  ?source_root:string ->
  string list ->
  Lint.finding list
(** {!Cmt_load.collect_cmt_files} composed with {!lint_cmt_files}. *)
