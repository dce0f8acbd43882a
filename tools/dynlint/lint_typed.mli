(** The typedtree pass: D7 (parallel-race), D9 (rng-taint) and D11
    (zero-alloc) over the [.cmt] files that [dune build @check] produces.

    - [D7]: a closure passed to [Pool.map]/[Pool.run]/[Pool.iter]/
      [Explore.sweep] captures a value of mutable type ([ref], [Hashtbl.t],
      [Buffer.t], [Queue.t], [Stack.t], [Atomic.t], [Net.t], [Rng.t],
      [Dtree.t], [Metrics.t], [Sink.t]) bound outside the closure, or reads
      module-level mutable state — either way the value is shared across
      Pool domains. Closures need not be literal at the call site: a
      closure bound to a local ident first ([let worker x = ... in
      Pool.map worker items]) is chased through the binding, with a
      visited set guarding cycles. Limitation: only idents let-bound in
      the same compilation unit are chased; a closure imported from
      another unit is not.
    - [D9]: an [Rng.t] bound at module level (including nested modules), or
      read from another module's value, is flagged; generators must flow
      from function parameters or a local [Rng.create ~seed]. A module-
      level value whose pattern says nothing about Rng but whose defining
      expression carries an [Rng.t] inside a record field or tuple slot is
      flagged too (the walk stops at function boundaries — a module-level
      function creating a local generator is the sanctioned shape).
    - [D11]: functions annotated [[@@dynlint.zero_alloc]] are verified
      allocation-free by {!Lint_alloc}. The sweep over the cmts collects
      per-unit summaries (check and assume alike), and verification runs
      once all units are in, so cross-module calls between annotated
      functions resolve regardless of scan order.

    Path and type heads are matched by suffix on "__"-split components, so
    wrapped libraries ([Mylib__Pool.map]) and module aliases both match.

    Findings respect the same allow file and inline [dynlint: allow]
    comments as the parsetree pass; pass the shared {!Lint.tracker} so D10
    staleness accounting covers both passes. *)

val scan_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** D7 and D9 over preloaded units. Touches every unit's source through
    the emitter so finding-free files still register their inline allow
    sites for D10. *)

val alloc_units : emitter:Lint.emitter -> Cmt_load.unit_info list -> unit
(** D11 over the same preloaded units: collect every
    [[@@dynlint.zero_alloc]] summary, then verify the checked ones against
    the cross-module trusted table. *)

val lint_cmt_files :
  ?allow:Lint.allow ->
  ?tracker:Lint.tracker ->
  ?source_root:string ->
  string list ->
  Lint.finding list
(** Run D7/D9/D11 over the given [.cmt] files. Units are deduplicated by
    source file; interfaces, packed modules and generated ([.ml-gen])
    units are skipped, as are unreadable cmts. [source_root] (default
    ["."]) prefixes the workspace-relative source paths recorded in the
    cmts when reading sources for inline-allow suppression; when a source
    cannot be found, only allow-file suppression applies. Findings are
    sorted by (file, line, col). *)

val lint_cmt_dirs :
  ?allow:Lint.allow ->
  ?tracker:Lint.tracker ->
  ?source_root:string ->
  string list ->
  Lint.finding list
(** {!Cmt_load.collect_cmt_files} composed with {!lint_cmt_files}. *)
