(** Package domains (Section 3.2) — analysis-only instrumentation.

    The correctness proof of the controller associates every existing mobile
    package with a {e domain}: a set of (possibly already deleted) nodes. The
    algorithm itself never communicates about domains; they exist purely to
    prove liveness. This module materializes them so the test suite can check
    the three domain invariants after every controller step:

    + the domain of a level-[k] package contains exactly [2^(k-1) psi] nodes;
    + domains of same-level packages are disjoint;
    + the currently existing nodes of a domain form a path hanging down from
      a child of the package's host.

    The controller drives the tracker through the formation / cancellation /
    relocation events of Section 3.2 (Cases 1–5). *)

type t

val create :
  ?telemetry:Telemetry.Sink.t ->
  ?clock:(unit -> int) ->
  params:Params.t ->
  tree:Dtree.t ->
  unit ->
  t
(** With a [telemetry] sink the tracker records [Domain_assign] /
    [Domain_cancel] / [Domain_resize] events (timestamped by [clock], which
    defaults to the constant 0 — centralized controllers pass their request
    tick), from which the sink derives the [domains_tracked] gauge and the
    [domain_resizes_total] counter. *)

val assign : t -> Package.t -> host:Dtree.node -> requester:Dtree.node -> unit
(** Domain at formation (Case 2): the [domain_size] nodes strictly below
    [host] on the path towards [requester]. *)

val cancel : t -> Package.t -> unit
(** The package split, became static, or was consumed: its domain vanishes.
    No-op for packages that never had a domain. *)

val host_moved : t -> Package.t -> Dtree.node -> unit
(** The package's host was deleted and the package now lives at the host's
    parent. No-op for untracked packages. *)

val on_add_internal : t -> new_node:Dtree.node -> child:Dtree.node -> unit
(** Case 4: [new_node] was inserted as the parent of [child]; every domain
    containing [child] gains [new_node] (just above [child]) and loses its
    bottom-most currently-existing node. Call after the tree change. *)

val tracked : t -> int
(** Number of packages currently holding a domain. *)

val check : t -> (unit, string) result
(** Verify the three domain invariants; [Error] carries a description of the
    first violation. *)
