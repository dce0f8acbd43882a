(** Rooted dynamic tree substrate.

    The network of the paper is spanned by a rooted tree [T] whose root is
    never deleted. [T] undergoes four kinds of topological changes (paper,
    Section 2.1.2): add-leaf, remove-leaf, add-internal-node and
    remove-internal-node. Node identifiers are small integers, by default
    never reused; deleted nodes keep their identifier so that traces and
    "domains" (which may contain deleted nodes) can refer to them.

    The representation is an int-indexed arena: flat integer columns for
    parent / first-child / next-sibling / prev-sibling with Buffer-style
    doubling growth (see DESIGN.md "Arena tree layout"). Ids index the
    columns directly, climbs and traversals are array reads with no
    per-step allocation, and every traversal below is iterative — a
    degenerate path of 10^6+ nodes is fine where a recursive
    representation overflows the stack.

    All operations run in time O(1) except [remove_internal] which is
    O(number of adopted children), matching the cost the paper itself charges
    for moving a deleted node's state to its parent. *)

type node = int
(** Stable node identifier. The root of a fresh tree is node [0]. A node's
    id never changes while it is live. *)

type t
(** A mutable rooted dynamic tree. *)

val create : ?reuse_ids:bool -> unit -> t
(** A tree containing only its root. With [~reuse_ids:true] the ids of
    deleted nodes are recycled (most recently deleted first), bounding the
    arena by the peak live size instead of by the total number of nodes
    ever created; the default [false] keeps ids unique forever, which the
    controller's domain bookkeeping relies on. Either way [ever_created]
    counts logical creations. *)

val root : t -> node

val add_leaf : t -> parent:node -> node
(** ["Add-leaf"]: attach a fresh degree-one node under [parent].
    @raise Invalid_argument if [parent] is not live. *)

val remove_leaf : t -> node -> unit
(** ["Remove-leaf"]: delete a non-root leaf.
    @raise Invalid_argument if the node is the root, not live, or not a
    leaf. *)

val add_internal : t -> above:node -> node
(** ["Add internal node"]: split the tree edge between [above] and its
    parent, inserting a fresh node as the new parent of [above].
    @raise Invalid_argument if [above] is the root or not live. *)

val remove_internal : t -> node -> unit
(** ["Remove internal node"]: delete a non-root internal node; its children
    become children of its parent.
    @raise Invalid_argument if the node is the root, not live, or a leaf. *)

val live : t -> node -> bool
(** Whether the node currently exists in the tree. *)

val parent : t -> node -> node option
(** Current parent; [None] for the root.
    @raise Invalid_argument if the node is not live. *)

val parent_id : t -> node -> node
(** Current parent as a bare id, [-1] for the root: the allocation-free
    variant of [parent] for hot climbing loops.
    @raise Invalid_argument if the node is not live. *)

val children : t -> node -> node list
(** Current children, in unspecified order. Allocates the list; hot paths
    should prefer [iter_children]/[fold_children]. *)

val iter_children : t -> node -> f:(node -> unit) -> unit
(** Iterate over the current children without building a list. [f] may
    delete the child it is handed (the link is read before the call) but
    must not otherwise change [v]'s child list. *)

val fold_children : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Fold over the current children without building a list. [f] must not
    change [v]'s child list. *)

val child_degree : t -> node -> int
(** Number of children (the paper's [deg(v)]). *)

val is_leaf : t -> node -> bool

val size : t -> int
(** Current number of live nodes, the paper's [n]. *)

val ever_created : t -> int
(** Total number of nodes ever to exist, including deleted ones (the
    quantity bounded by the paper's [U]). *)

val change_count : t -> int
(** Number of topological changes applied so far. *)

val depth : t -> node -> int
(** Hop distance to the root. O(depth). *)

val ancestor_at : t -> node -> int -> node option
(** [ancestor_at t v d] is the ancestor of [v] at distance exactly [d],
    or [None] if [depth t v < d]. A node is its own ancestor
    ([d = 0] returns [v]). *)

val ancestors : t -> node -> node list
(** Path from [v] (inclusive) to the root (inclusive). *)

val is_ancestor : t -> anc:node -> desc:node -> bool
(** Transitive-reflexive closure of parenthood. *)

val lowest_common_ancestor : t -> node -> node -> node

val subtree_size : t -> node -> int
(** Number of live nodes in the subtree rooted at [v], including [v]. *)

val fold_dfs : t -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Depth-first (preorder) fold over live nodes, children in the order
    reported by [children]. *)

val iter_nodes : t -> f:(node -> unit) -> unit
(** Iterate over all live nodes in unspecified order. *)

val live_nodes : t -> node list

val leaves : t -> node list

val any_leaf : t -> node
(** Some live leaf, found by descending first children from the root —
    O(depth), unlike [List.hd (leaves t)] which scans every node ever
    created. Returns the root itself when the tree is a singleton.
    Deterministic for a given tree history (sibling order is a function of
    the op sequence). *)

val internal_nodes : t -> node list
(** Live non-root nodes of tree degree > 1 (removable as internal nodes). *)

val port_to_parent : t -> node -> int
(** Adversarially assigned port number at [v] of the edge to its parent
    (paper, Section 2.1.2). @raise Invalid_argument on the root. *)

val check : t -> unit
(** Validate internal invariants (parent/child symmetry, acyclicity,
    connectivity, live-set consistency; under [~reuse_ids:true], the free
    list holds exactly the deleted slots, so a leaked slot is caught).
    @raise Failure on violation. Intended for tests. *)

val pp : Format.formatter -> t -> unit
(** Render the tree, one node per line, indented by depth. *)
