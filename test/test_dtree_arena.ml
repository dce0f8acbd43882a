(* The arena representation of Dtree against the seed Hashtbl representation
   (test/dtree_reference.ml): identical op sequences must produce identical
   trees under every structural query. Plus the free-list id-reuse contract
   and the 10^6-node degenerate-path regression (the recursive seed
   traversals overflowed the stack there). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module R = Dtree_reference

let sorted = List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* Randomized differential replay                                      *)

(* Target selection scans the reference's sorted live list so the choice
   depends only on the RNG and the (shared) logical tree state — never on
   either implementation's internal iteration order. *)
let pick_live rng r =
  let live = Array.of_list (sorted (R.live_nodes r)) in
  live.(Rng.int rng (Array.length live))

let compare_trees step t r =
  check_int (Printf.sprintf "step %d: size" step) (R.size r) (Dtree.size t);
  check_int
    (Printf.sprintf "step %d: ever_created" step)
    (R.ever_created r) (Dtree.ever_created t);
  check_int
    (Printf.sprintf "step %d: change_count" step)
    (R.change_count r) (Dtree.change_count t);
  let live_r = sorted (R.live_nodes r) in
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: live set" step)
    live_r
    (sorted (Dtree.live_nodes t));
  Alcotest.(check (list int))
    (Printf.sprintf "step %d: leaves" step)
    (sorted (R.leaves r))
    (sorted (Dtree.leaves t));
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "step %d: parent %d" step v)
        (R.parent r v) (Dtree.parent t v);
      Alcotest.(check (list int))
        (Printf.sprintf "step %d: children %d" step v)
        (sorted (R.children r v))
        (sorted (Dtree.children t v));
      check_int
        (Printf.sprintf "step %d: degree %d" step v)
        (R.child_degree r v) (Dtree.child_degree t v);
      check_int
        (Printf.sprintf "step %d: depth %d" step v)
        (R.depth r v) (Dtree.depth t v);
      check_int
        (Printf.sprintf "step %d: subtree %d" step v)
        (R.subtree_size r v) (Dtree.subtree_size t v);
      check_bool
        (Printf.sprintf "step %d: is_leaf %d" step v)
        (R.is_leaf r v) (Dtree.is_leaf t v))
    live_r;
  R.check r;
  Dtree.check t

let compare_lcas rng step t r =
  let live = Array.of_list (sorted (R.live_nodes r)) in
  for _ = 1 to 16 do
    let u = live.(Rng.int rng (Array.length live)) in
    let v = live.(Rng.int rng (Array.length live)) in
    check_int
      (Printf.sprintf "step %d: lca %d %d" step u v)
      (R.lowest_common_ancestor r u v)
      (Dtree.lowest_common_ancestor t u v)
  done

let replay ~seed ~steps =
  let rng = Rng.create ~seed in
  let t = Dtree.create () in
  let r = R.create () in
  for step = 1 to steps do
    let v = pick_live rng r in
    (match Rng.int rng 4 with
    | 0 ->
        let a = Dtree.add_leaf t ~parent:v in
        let b = R.add_leaf r ~parent:v in
        check_int (Printf.sprintf "step %d: fresh leaf id" step) b a
    | 1 ->
        if v <> R.root r && R.is_leaf r v then begin
          Dtree.remove_leaf t v;
          R.remove_leaf r v
        end
    | 2 ->
        if v <> R.root r then begin
          let a = Dtree.add_internal t ~above:v in
          let b = R.add_internal r ~above:v in
          check_int (Printf.sprintf "step %d: fresh internal id" step) b a
        end
    | _ ->
        if v <> R.root r && not (R.is_leaf r v) then begin
          Dtree.remove_internal t v;
          R.remove_internal r v
        end);
    if step mod 64 = 0 then begin
      compare_trees step t r;
      compare_lcas rng step t r
    end
  done;
  compare_trees steps t r;
  compare_lcas rng steps t r

let test_differential () =
  List.iter (fun seed -> replay ~seed ~steps:512) [ 7001; 7002; 7003 ]

(* ------------------------------------------------------------------ *)
(* Free-list id reuse                                                  *)

let test_no_reuse_by_default () =
  let t = Dtree.create () in
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:(Dtree.root t) in
  Dtree.remove_leaf t b;
  Dtree.remove_leaf t a;
  let c = Dtree.add_leaf t ~parent:(Dtree.root t) in
  check_int "fresh id, no recycling" 3 c;
  check_bool "a stays dead" false (Dtree.live t a);
  check_int "ever_created counts all" 4 (Dtree.ever_created t);
  Dtree.check t

let test_reuse_lifo () =
  let t = Dtree.create ~reuse_ids:true () in
  let ids = Array.init 10 (fun _ -> Dtree.add_leaf t ~parent:(Dtree.root t)) in
  Alcotest.(check (list int))
    "bump allocation first" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (Array.to_list ids);
  (* free 10, then 9, then 8: the free list is LIFO, so 8 comes back first *)
  Dtree.remove_leaf t 10;
  Dtree.remove_leaf t 9;
  Dtree.remove_leaf t 8;
  check_int "size dropped" 8 (Dtree.size t);
  check_bool "freed id is dead" false (Dtree.live t 8);
  let a = Dtree.add_leaf t ~parent:(Dtree.root t) in
  let b = Dtree.add_leaf t ~parent:1 in
  let c = Dtree.add_internal t ~above:b in
  check_int "most recently freed first" 8 a;
  check_int "then the next" 9 b;
  check_int "internal insertion recycles too" 10 c;
  check_bool "recycled id live again" true (Dtree.live t 8);
  check_int "no slot growth past the peak" 11 (Dtree.size t);
  (* logical creations keep counting through recycling *)
  check_int "ever_created counts creations" 14 (Dtree.ever_created t);
  Dtree.check t;
  (* exhausting the free list falls back to bump allocation *)
  let d = Dtree.add_leaf t ~parent:(Dtree.root t) in
  check_int "bump allocation resumes" 11 d;
  Dtree.check t

let test_reuse_differential () =
  (* With ids recycled the arena can no longer be compared to the reference
     id-for-id, but every invariant must still hold through heavy churn. *)
  let rng = Rng.create ~seed:7010 in
  let t = Dtree.create ~reuse_ids:true () in
  let peak = ref 1 in
  for _ = 1 to 2000 do
    (match Rng.int rng 3 with
    | 0 | 1 ->
        let live = Array.of_list (Dtree.live_nodes t) in
        ignore (Dtree.add_leaf t ~parent:live.(Rng.int rng (Array.length live)))
    | _ -> (
        match Dtree.leaves t with
        | [] -> ()
        | ls ->
            let ls = List.filter (fun v -> v <> Dtree.root t) ls in
            if ls <> [] then
              Dtree.remove_leaf t (List.nth ls (Rng.int rng (List.length ls)))));
    peak := max !peak (Dtree.size t);
    assert (Dtree.ever_created t >= Dtree.size t)
  done;
  Dtree.check t;
  (* a slot is only minted when the free list is empty, i.e. when every id
     below the watermark is live — so no id can exceed the peak live size *)
  let id_bound = Dtree.fold_dfs t ~init:0 ~f:(fun acc v -> max acc v) in
  check_bool "ids bounded by peak live size" true (id_bound < !peak)

let test_free_list_exact () =
  (* Dtree.check demands that the free list hold exactly the deleted
     slots; run it after every op of a churn that frees slots through both
     removals and refills them through both insertions. The same law,
     seen from outside: refilling as many nodes as were deleted mints no
     slot past the high-water mark, and only the next one does. *)
  let rng = Rng.create ~seed:7020 in
  let t = Dtree.create ~reuse_ids:true () in
  let high = ref 0 in
  let add v = high := max !high v in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  for _ = 1 to 1000 do
    let non_root = List.filter (fun v -> v <> Dtree.root t) in
    (match Rng.int rng 4 with
    | 0 -> add (Dtree.add_leaf t ~parent:(pick (Dtree.live_nodes t)))
    | 1 -> (
        match non_root (Dtree.live_nodes t) with
        | [] -> ()
        | vs -> add (Dtree.add_internal t ~above:(pick vs)))
    | 2 -> (
        match non_root (Dtree.leaves t) with
        | [] -> ()
        | vs -> Dtree.remove_leaf t (pick vs))
    | _ -> (
        match Dtree.internal_nodes t with
        | [] -> ()
        | vs -> Dtree.remove_internal t (pick vs)));
    Dtree.check t
  done;
  let deleted = !high + 1 - Dtree.size t in
  check_bool "the churn deleted something" true (deleted > 0);
  for _ = 1 to deleted do
    let v = Dtree.add_leaf t ~parent:(Dtree.root t) in
    check_bool "a deleted slot comes back" true (v <= !high)
  done;
  Dtree.check t;
  check_int "then the arena grows" (!high + 1)
    (Dtree.add_leaf t ~parent:(Dtree.root t))

(* ------------------------------------------------------------------ *)
(* 10^6-node degenerate path: the seed's recursive traversals           *)
(* overflowed the stack here (subtree_size, fold_dfs, check, pp)        *)

let test_million_node_path () =
  let n = (1 lsl 20) + 1 in
  let t = Dtree.create () in
  let tip = ref (Dtree.root t) in
  for _ = 2 to n do
    tip := Dtree.add_leaf t ~parent:!tip
  done;
  check_int "size" n (Dtree.size t);
  check_int "tip depth" (n - 1) (Dtree.depth t !tip);
  check_int "subtree size at root" n (Dtree.subtree_size t (Dtree.root t));
  check_int "dfs fold sees every node" n
    (Dtree.fold_dfs t ~init:0 ~f:(fun acc _ -> acc + 1));
  check_int "any_leaf finds the tip" !tip (Dtree.any_leaf t);
  check_int "lca of tip and root" (Dtree.root t)
    (Dtree.lowest_common_ancestor t !tip (Dtree.root t));
  Dtree.check t;
  (* unwind the whole path from the tip, exercising remove on the same
     degenerate shape *)
  for _ = 2 to n do
    let v = !tip in
    tip := Dtree.parent_id t v;
    Dtree.remove_leaf t v
  done;
  check_int "unwound to the root" 1 (Dtree.size t);
  Dtree.check t

let suite =
  ( "dtree-arena",
    [
      Alcotest.test_case "differential vs seed representation" `Quick
        test_differential;
      Alcotest.test_case "ids not reused by default" `Quick
        test_no_reuse_by_default;
      Alcotest.test_case "free-list reuse is LIFO" `Quick test_reuse_lifo;
      Alcotest.test_case "invariants under churn with reuse" `Quick
        test_reuse_differential;
      Alcotest.test_case "free list is the deleted set" `Quick
        test_free_list_exact;
      Alcotest.test_case "million-node path traversals" `Quick
        test_million_node_path;
    ] )
