type node = int

(* Int-indexed arena. One slot per node; the tree lives in flat integer
   columns (parent / first-child / next-sibling / prev-sibling / port /
   degree) so that every climb or descent is a bounds-checked array read
   and the traversals allocate nothing per step. Slot [v] of every column
   belongs to node [v]; [nil] (-1) marks "none". Children form a
   doubly-linked sibling list headed at [first_child], newest child first,
   so insertion and (leaf) deletion under a high-degree parent stay O(1)
   and iteration order is a deterministic function of the op history.

   Columns double in capacity when the high-water mark [next_slot] hits
   [cap] (Buffer-style growth: amortized O(1) per node, at most 2x over
   the peak). Deleted slots keep their id by default -- traces and the
   controller's "domains" may refer to deleted nodes -- but a tree created
   with [~reuse_ids:true] threads deleted slots onto a LIFO free list
   (through the [next_sibling] column) and recycles them, bounding the
   arena by the peak live size instead of by U. *)

let nil = -1

type t = {
  mutable parent : int array;
  mutable first_child : int array;
  mutable next_sibling : int array;
  mutable prev_sibling : int array;
  mutable port : int array;  (* port at v of the edge to its parent *)
  mutable degree : int array;  (* number of children *)
  mutable state : Bytes.t;  (* '\000' never used, '\001' live, '\002' deleted *)
  mutable cap : int;
  mutable next_slot : int;  (* slots [0, next_slot) have been allocated *)
  mutable free_head : int;  (* deleted-slot LIFO, threaded through next_sibling *)
  reuse_ids : bool;
  mutable created : int;  (* nodes ever created: the paper's U *)
  mutable live_count : int;
  mutable changes : int;
  mutable port_counter : int;
}

let root _t = 0 [@@dynlint.zero_alloc]

let fresh_port t =
  (* The paper lets an adversary pick port numbers; any distinct O(log N)-bit
     values are legal, so a global counter serves. *)
  t.port_counter <- t.port_counter + 1;
  t.port_counter
  [@@dynlint.zero_alloc]

let initial_cap = 64

let grow t =
  let cap = 2 * t.cap in
  let extend a =
    let b = Array.make cap nil in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.parent <- extend t.parent;
  t.first_child <- extend t.first_child;
  t.next_sibling <- extend t.next_sibling;
  t.prev_sibling <- extend t.prev_sibling;
  t.port <- extend t.port;
  t.degree <- extend t.degree;
  let s = Bytes.make cap '\000' in
  Bytes.blit t.state 0 s 0 t.cap;
  t.state <- s;
  t.cap <- cap

(* Allocate a slot (recycling the free list when id reuse is on), reset its
   columns and mark it live. *)
let alloc t =
  let v =
    if t.reuse_ids && t.free_head <> nil then begin
      let v = t.free_head in
      t.free_head <- t.next_sibling.(v);
      v
    end
    else begin
      (* dynlint: allow zero-alloc — amortized growth, doubling *)
      if t.next_slot = t.cap then grow t;
      let v = t.next_slot in
      t.next_slot <- v + 1;
      v
    end
  in
  t.created <- t.created + 1;
  t.live_count <- t.live_count + 1;
  t.parent.(v) <- nil;
  t.first_child.(v) <- nil;
  t.next_sibling.(v) <- nil;
  t.prev_sibling.(v) <- nil;
  t.port.(v) <- nil;
  t.degree.(v) <- 0;
  Bytes.set t.state v '\001';
  v
  [@@dynlint.zero_alloc]

let free_slot t v =
  Bytes.set t.state v '\002';
  t.parent.(v) <- nil;
  t.prev_sibling.(v) <- nil;
  t.port.(v) <- nil;
  t.degree.(v) <- 0;
  if t.reuse_ids then begin
    t.next_sibling.(v) <- t.free_head;
    t.free_head <- v
  end
  else t.next_sibling.(v) <- nil
  [@@dynlint.zero_alloc]

let create ?(reuse_ids = false) () =
  let t =
    {
      parent = Array.make initial_cap nil;
      first_child = Array.make initial_cap nil;
      next_sibling = Array.make initial_cap nil;
      prev_sibling = Array.make initial_cap nil;
      port = Array.make initial_cap nil;
      degree = Array.make initial_cap 0;
      state = Bytes.make initial_cap '\000';
      cap = initial_cap;
      next_slot = 0;
      free_head = nil;
      reuse_ids;
      created = 0;
      live_count = 0;
      changes = 0;
      port_counter = 0;
    }
  in
  ignore (alloc t : node);
  t

let check_known t v =
  if v < 0 || v >= t.next_slot then
    invalid_arg (Printf.sprintf "Dtree: unknown node %d" v)
  [@@dynlint.zero_alloc]

let check_live op t v =
  check_known t v;
  if Bytes.get t.state v <> '\001' then
    invalid_arg (Printf.sprintf "Dtree.%s: node %d is not live" op v)
  [@@dynlint.zero_alloc]

let live t v =
  v >= 0 && v < t.next_slot && Bytes.get t.state v = '\001'
  [@@dynlint.zero_alloc]

let link_child t ~parent:p v =
  t.parent.(v) <- p;
  t.prev_sibling.(v) <- nil;
  let fc = t.first_child.(p) in
  t.next_sibling.(v) <- fc;
  if fc <> nil then t.prev_sibling.(fc) <- v;
  t.first_child.(p) <- v;
  t.degree.(p) <- t.degree.(p) + 1
  [@@dynlint.zero_alloc]

let unlink_child t v =
  let p = t.parent.(v) in
  let prev = t.prev_sibling.(v) and next = t.next_sibling.(v) in
  if prev <> nil then t.next_sibling.(prev) <- next
  else t.first_child.(p) <- next;
  if next <> nil then t.prev_sibling.(next) <- prev;
  t.prev_sibling.(v) <- nil;
  t.next_sibling.(v) <- nil;
  t.degree.(p) <- t.degree.(p) - 1
  [@@dynlint.zero_alloc]

let add_leaf t ~parent =
  check_live "add_leaf" t parent;
  let v = alloc t in
  link_child t ~parent v;
  t.port.(v) <- fresh_port t;
  t.changes <- t.changes + 1;
  v
  [@@dynlint.zero_alloc]

let is_leaf t v =
  check_live "is_leaf" t v;
  t.first_child.(v) = nil
  [@@dynlint.zero_alloc]

let remove_leaf t v =
  if v = 0 then invalid_arg "Dtree.remove_leaf: cannot remove the root";
  check_live "remove_leaf" t v;
  if t.first_child.(v) <> nil then
    invalid_arg (Printf.sprintf "Dtree.remove_leaf: node %d is not a leaf" v);
  unlink_child t v;
  free_slot t v;
  t.live_count <- t.live_count - 1;
  t.changes <- t.changes + 1
  [@@dynlint.zero_alloc]

let add_internal t ~above =
  if above = 0 then invalid_arg "Dtree.add_internal: cannot insert above the root";
  check_live "add_internal" t above;
  let p = t.parent.(above) in
  let u = alloc t in
  t.port.(u) <- fresh_port t;
  (* Splice [u] into [above]'s position in [p]'s child list -- the edge
     split keeps sibling order intact -- then push [above] down as [u]'s
     only child. *)
  let prev = t.prev_sibling.(above) and next = t.next_sibling.(above) in
  t.parent.(u) <- p;
  t.prev_sibling.(u) <- prev;
  t.next_sibling.(u) <- next;
  if prev <> nil then t.next_sibling.(prev) <- u else t.first_child.(p) <- u;
  if next <> nil then t.prev_sibling.(next) <- u;
  t.first_child.(u) <- above;
  t.degree.(u) <- 1;
  t.parent.(above) <- u;
  t.prev_sibling.(above) <- nil;
  t.next_sibling.(above) <- nil;
  t.port.(above) <- fresh_port t;
  t.changes <- t.changes + 1;
  u
  [@@dynlint.zero_alloc]

let remove_internal t v =
  if v = 0 then invalid_arg "Dtree.remove_internal: cannot remove the root";
  check_live "remove_internal" t v;
  if t.first_child.(v) = nil then
    invalid_arg (Printf.sprintf "Dtree.remove_internal: node %d is a leaf" v);
  let p = t.parent.(v) in
  unlink_child t v;
  (* Adopt [v]'s children: reparent and re-port each (the O(adopted
     children) cost the paper charges), then splice the whole sibling list
     at the front of [p]'s children in one step. *)
  let first = t.first_child.(v) in
  let adopted = ref 0 in
  let last = ref first in
  let c = ref first in
  while !c <> nil do
    t.parent.(!c) <- p;
    t.port.(!c) <- fresh_port t;
    incr adopted;
    last := !c;
    c := t.next_sibling.(!c)
  done;
  let fc = t.first_child.(p) in
  t.next_sibling.(!last) <- fc;
  if fc <> nil then t.prev_sibling.(fc) <- !last;
  t.first_child.(p) <- first;
  t.degree.(p) <- t.degree.(p) + !adopted;
  t.first_child.(v) <- nil;
  free_slot t v;
  t.live_count <- t.live_count - 1;
  t.changes <- t.changes + 1
  [@@dynlint.zero_alloc]

let parent t v =
  check_live "parent" t v;
  let p = t.parent.(v) in
  if p = nil then None else Some p

let parent_id t v =
  check_live "parent_id" t v;
  t.parent.(v)
  [@@dynlint.zero_alloc]

let iter_children t v ~f =
  check_live "iter_children" t v;
  let c = ref t.first_child.(v) in
  while !c <> nil do
    (* read the link before calling [f], so [f] may delete the visited
       child without derailing the walk *)
    let next = t.next_sibling.(!c) in
    f !c;
    c := next
  done
  [@@dynlint.zero_alloc]

let fold_children t v ~init ~f =
  check_live "fold_children" t v;
  let acc = ref init in
  let c = ref t.first_child.(v) in
  while !c <> nil do
    acc := f !acc !c;
    c := t.next_sibling.(!c)
  done;
  !acc
  [@@dynlint.zero_alloc]

let children t v =
  (* tail-recursive both ways: a star tree puts the whole arena in one list *)
  List.rev (fold_children t v ~init:[] ~f:(fun acc c -> c :: acc))

let child_degree t v =
  check_live "child_degree" t v;
  t.degree.(v)
  [@@dynlint.zero_alloc]

let size t = t.live_count [@@dynlint.zero_alloc]
let ever_created t = t.created [@@dynlint.zero_alloc]
let change_count t = t.changes [@@dynlint.zero_alloc]

let depth t v =
  check_live "depth" t v;
  let d = ref 0 and w = ref t.parent.(v) in
  while !w <> nil do
    incr d;
    w := t.parent.(!w)
  done;
  !d
  [@@dynlint.zero_alloc]

let ancestor_at t v d =
  check_live "ancestor_at" t v;
  let w = ref v and k = ref d in
  while !k > 0 && !w <> nil do
    w := t.parent.(!w);
    decr k
  done;
  if !w = nil then None else Some !w

let ancestors t v =
  check_live "ancestors" t v;
  let acc = ref [] and w = ref v in
  while !w <> nil do
    acc := !w :: !acc;
    w := t.parent.(!w)
  done;
  List.rev !acc

let is_ancestor t ~anc ~desc =
  check_live "is_ancestor" t anc;
  check_live "is_ancestor" t desc;
  let w = ref desc and found = ref false in
  while (not !found) && !w <> nil do
    if !w = anc then found := true else w := t.parent.(!w)
  done;
  !found
  [@@dynlint.zero_alloc]

let lowest_common_ancestor t u v =
  (* Lift both nodes to equal depth, then climb in lockstep. *)
  let du = depth t u and dv = depth t v in
  let lift w k =
    let w = ref w in
    for _ = 1 to k do
      w := t.parent.(!w)
    done;
    !w
  in
  let u = ref (if du >= dv then lift u (du - dv) else u)
  and v = ref (if du >= dv then v else lift v (dv - du)) in
  while !u <> !v do
    u := t.parent.(!u);
    v := t.parent.(!v)
  done;
  !u

let iter_nodes t ~f =
  for v = 0 to t.next_slot - 1 do
    if Bytes.get t.state v = '\001' then f v
  done
  [@@dynlint.zero_alloc]

let live_nodes t =
  let acc = ref [] in
  for v = t.next_slot - 1 downto 0 do
    if Bytes.get t.state v = '\001' then acc := v :: !acc
  done;
  !acc

let leaves t =
  let acc = ref [] in
  for v = t.next_slot - 1 downto 0 do
    if Bytes.get t.state v = '\001' && t.first_child.(v) = nil then
      acc := v :: !acc
  done;
  !acc

let any_leaf t =
  let v = ref 0 in
  while t.first_child.(!v) <> nil do
    v := t.first_child.(!v)
  done;
  !v
  [@@dynlint.zero_alloc]

let internal_nodes t =
  let acc = ref [] in
  for v = t.next_slot - 1 downto 0 do
    if v <> 0 && Bytes.get t.state v = '\001' && t.first_child.(v) <> nil then
      acc := v :: !acc
  done;
  !acc

(* Stackless preorder walk over the subtree of [v0]: descend to the first
   child while one exists, otherwise climb towards [v0] until an ancestor
   has an unvisited next sibling. O(1) memory and no per-step allocation,
   so a degenerate million-node path traverses without touching the OCaml
   stack -- the seed representation's recursive version overflowed there.
   [f] must not change the topology. *)
let fold_subtree t v0 ~init ~f =
  let acc = ref init in
  let cur = ref v0 and stop = ref false in
  while not !stop do
    acc := f !acc !cur;
    if t.first_child.(!cur) <> nil then cur := t.first_child.(!cur)
    else if !cur = v0 then stop := true
    else begin
      let w = ref !cur in
      let moved = ref false in
      while (not !moved) && not !stop do
        if !w = v0 then stop := true
        else if t.next_sibling.(!w) <> nil then begin
          cur := t.next_sibling.(!w);
          moved := true
        end
        else w := t.parent.(!w)
      done
    end
  done;
  !acc
  [@@dynlint.zero_alloc]

let subtree_size t v =
  check_live "subtree_size" t v;
  fold_subtree t v ~init:0 ~f:(fun n _ -> n + 1)
  [@@dynlint.zero_alloc]

let fold_dfs t ~init ~f = fold_subtree t 0 ~init ~f [@@dynlint.zero_alloc]

let port_to_parent t v =
  if v = 0 then invalid_arg "Dtree.port_to_parent: the root has no parent";
  check_live "port_to_parent" t v;
  t.port.(v)
  [@@dynlint.zero_alloc]

let check t =
  let seen = Bytes.make (max 1 t.next_slot) '\000' in
  let visited = ref 0 in
  let stack = ref [ 0 ] in
  let pop () =
    match !stack with
    | [] -> nil
    | v :: rest ->
        stack := rest;
        v
  in
  let rec walk () =
    let v = pop () in
    if v <> nil then begin
      if v < 0 || v >= t.next_slot then failwith "Dtree.check: pointer out of range";
      if Bytes.get seen v = '\001' then failwith "Dtree.check: node visited twice";
      Bytes.set seen v '\001';
      incr visited;
      if Bytes.get t.state v <> '\001' then failwith "Dtree.check: dead node reachable";
      let c = ref t.first_child.(v) in
      let prev = ref nil and steps = ref 0 in
      while !c <> nil do
        incr steps;
        if !steps > t.next_slot then failwith "Dtree.check: cycle detected";
        if !c < 0 || !c >= t.next_slot then
          failwith "Dtree.check: pointer out of range";
        if t.parent.(!c) <> v then failwith "Dtree.check: parent/child asymmetry";
        if t.prev_sibling.(!c) <> !prev then
          failwith "Dtree.check: sibling links broken";
        stack := !c :: !stack;
        prev := !c;
        c := t.next_sibling.(!c)
      done;
      if t.degree.(v) <> !steps then failwith "Dtree.check: degree column stale";
      walk ()
    end
  in
  walk ();
  if !visited <> t.live_count then
    failwith "Dtree.check: live node not reachable from the root";
  for v = 0 to t.next_slot - 1 do
    if Bytes.get t.state v = '\001' && Bytes.get seen v <> '\001' then
      failwith "Dtree.check: orphan live node"
  done;
  if t.reuse_ids then begin
    let c = ref t.free_head and steps = ref 0 in
    while !c <> nil do
      incr steps;
      if !steps > t.next_slot then failwith "Dtree.check: free-list cycle";
      if !c < 0 || !c >= t.next_slot then
        failwith "Dtree.check: free-list pointer out of range";
      if Bytes.get t.state !c <> '\002' then
        failwith "Dtree.check: live node on the free list";
      c := t.next_sibling.(!c)
    done;
    (* Only [free_slot] marks a slot deleted, and it pushes it, so an
       acyclic list of deleted slots as long as the deleted count holds
       every one of them: a leaked slot shows up as a shortfall. *)
    let deleted = ref 0 in
    for v = 0 to t.next_slot - 1 do
      if Bytes.get t.state v = '\002' then incr deleted
    done;
    if !steps <> !deleted then
      failwith
        (Printf.sprintf
           "Dtree.check: %d deleted slot(s) but %d on the free list" !deleted
           !steps)
  end

let pp ppf t =
  let stack = ref [ (0, 0) ] in
  let rec drain () =
    match !stack with
    | [] -> ()
    | (v, d) :: rest ->
        stack := rest;
        Format.fprintf ppf "%s%d@." (String.make (2 * d) ' ') v;
        let cs = List.sort Int.compare (children t v) in
        stack := List.fold_left (fun acc c -> (c, d + 1) :: acc) !stack (List.rev cs);
        drain ()
  in
  drain ()
