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

type summary
(** One annotated value from one compilation unit: its name, mode
    (check/assume), body, and the unit's binding environment for the
    same-unit chase. *)

val collect : unit_name:string -> Typedtree.structure -> summary list
(** First sweep: every [[@@dynlint.zero_alloc]]-annotated value binding or
    external in the structure. [unit_name] is the unwrapped compilation
    unit name ("Net", "Dtree", ...) used for cross-module lookup. *)

val verify : emit:(Location.t -> string -> unit) -> summary list -> unit
(** Second sweep: verify every [check]-mode summary against the trusted
    table formed by all summaries (check and assume alike), emitting one
    finding per allocation site. *)
