(** The distributed fixed-[U] [(M,W)]-controller of Section 4.

    The arrival of a request at a node [u] creates a mobile agent at [u]
    (carried by [O(log N)]-bit messages over the {!Net} simulator). The agent
    locks [u], climbs the tree locking every node, waiting FIFO at nodes
    locked by other agents, until it reaches a filler node with respect to
    [u] or the root. It then distributes the found (or root-created) package
    down the locked path exactly as the centralized [Proc], grants the
    request at [u], climbs back to the topmost node it reached and descends
    once more, unlocking every node (Section 4.3.1). If it meets a node
    carrying a reject package, it walks home placing reject packages at every
    intermediate node and delivers a reject.

    When the root cannot pay for a package, the behaviour depends on the
    exhaustion mode:
    - [`Wave] (the controller with a reject wave): a reject agent floods a
      reject package to every node;
    - [`Hold] (used to build terminating controllers, Observation 2.1): the
      requesting agent releases its locks and the request is reported
      [Exhausted] — unanswered, for the orchestrating layer to queue.

    Granted topological changes are applied "gracefully" once no lock
    conflicts remain: a deleted node's packages (and its whiteboard) are
    absorbed by its parent, in-flight messages are rerouted by {!Net}'s
    parent-resolution, and reject packages are re-flooded to adopted
    children. With [auto_apply] (default) the controller performs the change
    itself; otherwise the caller orchestrates (needed when one topological
    request must obtain permits from two controllers at once, Appendix A). *)

type t

type config = {
  auto_apply : bool;  (** apply granted topological ops internally *)
  exhaustion : [ `Wave | `Hold ];
  name : string;  (** message-tag prefix, to separate paired controllers *)
  on_permits_down : node:Dtree.node -> size:int -> unit;
      (** fires whenever [size] permits enter [node] moving {e down} the
          tree (including creation out of the root's storage): the free
          observation channel the subtree estimator of Lemma 5.3 rides *)
}

val default_config : config

val create : ?config:config -> params:Params.t -> net:Net.t -> unit -> t
(** The tree is [Net.tree net]. Telemetry rides the network's sink
    ([Net.sink]): each request records a [Permit_span] event at its answer
    (submit-to-answer latency in simulated time, also observed by the
    [permit_latency_time{ctrl}] histogram and the
    [ctrl_requests_total{ctrl,outcome}] counter), and the package life cycle
    records [Package_created] / [Package_split] (plus
    [pkg_splits_total{level}]) / [Package_static] / [Package_join] /
    [Reject_wave] events tagged with the controller's [config.name]. *)

type suffix =
  | Agent_down
  | Agent_reject
  | Agent_release
  | Agent_return
  | Agent_unlock
  | Agent_up
  | Reject_wave
      (** The wire-tag universe as a variant: a send names a constructor,
          so a tag outside the universe is a type error — conformance is a
          compiler guarantee up to the one string boundary below. *)

val suffix_to_string : suffix -> string
(** The wire suffix of a constructor; the full tag is
    [config.name ^ "-" ^ suffix_to_string s]. Its match arms are the
    declared tag universe: [test_conformance] checks at runtime that
    every tag in [Net.messages_by_tag] is in it, and that a covering set
    of runs sends every constructor. *)

val tag_suffixes : string list
(** [suffix_to_string] of every constructor, sorted — the string view of
    the universe for reporting and runtime conformance checks. *)

val tag_universe : name:string -> string list
(** The full wire tags of a controller whose [config.name] is [name]. *)

val tags : t -> string list
(** {!tag_universe} for this controller's configured name. *)

val submit : t -> Workload.op -> k:(Types.outcome -> unit) -> unit
(** Inject a request at its arrival site (asynchronously; drive the net to
    progress). [k] fires exactly once: [Granted] after the permit was
    delivered {e and} (under [auto_apply]) the event occurred; [Rejected]
    after a reject was delivered; [Exhausted] only in [`Hold] mode. *)

val granted : t -> int
val rejected : t -> int
val outstanding : t -> int
val storage : t -> int

val leftover : t -> int
(** Permits not granted: root storage plus all whiteboard contents. *)

val wave_started : t -> bool

val can_apply : t -> Workload.op -> bool
(** No lock conflict with the graceful application of [op] right now. *)

val note_applied : t -> Workload.applied -> unit
(** The caller applied a topological change to the shared tree (having
    checked {!can_apply} on every controller sharing it): update this
    controller's whiteboards and reject flooding. Only meaningful with
    [auto_apply = false]. *)

val reset_whiteboards : t -> int
(** Clear every whiteboard (packages return to conceptual storage) and
    return the number of nodes visited — the broadcast cost charged by
    epoch-based wrappers. Outstanding requests must be drained first.
    @raise Invalid_argument if requests are outstanding. *)

val wb_bits : t -> Dtree.node -> int
(** Current whiteboard size in bits under the paper's encoding
    (Claim 4.8). *)

val max_wb_bits : t -> int
(** High-water mark of [wb_bits] across nodes and time (sampled at every
    whiteboard mutation). *)

val locked_count : t -> int

val check_locks : t -> (unit, string) result
(** Verify the locking discipline's structural invariant: the locked nodes
    decompose into disjoint vertical chains — every locked node's
    down-pointer is either a locked child of it or the chain's (unlocked)
    origin end — and no dead node is locked. Used by the step-wise property
    tests. *)

val snapshot : t -> (Dtree.node * int list * int) list
(** Non-empty whiteboards, sorted by node: [(node, mobile package levels with
    multiplicity (ascending), static permit count)]. Used by tests to compare
    against the centralized controller's stores. *)
