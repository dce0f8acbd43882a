(* Runtime witness for pooled-cell conservation: every cell the network
   mints is either in flight or parked scrubbed in the pool, at every
   point user code can observe the network — between steps, inside a
   delivery continuation, inside a scheduled action, and even after one
   of those raises. The pool primitives are private to net.ml (net.mli
   exports neither acquire nor release), so this witness and that
   boundary together carry the guarantee. It rests on deliver/step
   releasing the cell *before* invoking its closure. *)

exception Kaboom

let small_net ~seed =
  let tree = Dtree.create () in
  let root = Dtree.root tree in
  let a = Dtree.add_leaf tree ~parent:root in
  let b = Dtree.add_leaf tree ~parent:a in
  (tree, root, a, b, Net.create ~seed ~tree ())

let assert_pool_ok net what =
  match Net.pool_check net with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" what m

let test_pool_check_mid_run () =
  let _tree, root, _a, b, net = small_net ~seed:11 in
  let tag = Net.intern_tag net "w" in
  let checks = ref 0 in
  let ok what =
    assert_pool_ok net what;
    incr checks
  in
  ok "fresh net";
  (* each delivery checks the invariant from inside the continuation and
     re-sends, so the pool cycles through acquire/release several times *)
  let rec bounce depth dst =
    Net.send_to net ~src:root ~dst ~tag ~bits:4 (fun d ->
        ok "inside delivery continuation";
        if depth > 0 then bounce (depth - 1) d)
  in
  bounce 5 b;
  Net.schedule net ~delay:3 (fun () -> ok "inside scheduled action");
  while Net.step net do
    ok "between steps"
  done;
  ok "drained";
  Alcotest.(check bool) "invariant observed repeatedly" true (!checks > 10)

let test_pool_survives_raising_continuation () =
  let tree, root, a, b, net = small_net ~seed:12 in
  let tag = Net.intern_tag net "boom" in
  let delivered = ref 0 in
  (* one poisoned delivery among normal ones, plus a poisoned scheduled
     action: both run their closure only after the cell went back to the
     pool, so the exception must not be able to lose or corrupt a cell *)
  Net.send_to net ~src:root ~dst:b ~tag ~bits:1 (fun _ -> raise Kaboom);
  for _ = 1 to 10 do
    Net.send_to net ~src:root ~dst:a ~tag ~bits:1 (fun _ -> incr delivered)
  done;
  Net.schedule net ~delay:2 (fun () -> raise Kaboom);
  let raises = ref 0 in
  let rec drain () =
    match Net.step net with
    | true -> drain ()
    | false -> ()
    | exception Kaboom ->
        incr raises;
        (* the invariant and the tree survive the in-flight exception *)
        assert_pool_ok net "immediately after the raise";
        Dtree.check tree;
        drain ()
  in
  drain ();
  Alcotest.(check int) "both poisoned closures raised" 2 !raises;
  Alcotest.(check int) "unpoisoned deliveries all ran" 10 !delivered;
  assert_pool_ok net "after draining";
  (* the network is still fully usable: the pooled cells recycle *)
  let again = ref 0 in
  Net.send_to net ~src:root ~dst:b ~tag ~bits:1 (fun _ -> incr again);
  Net.run net;
  Alcotest.(check int) "post-exception send delivered" 1 !again;
  assert_pool_ok net "after the post-exception round";
  Dtree.check tree

let suite =
  ( "pool_witness",
    [
      Alcotest.test_case "pool_check holds at every observation point" `Quick
        test_pool_check_mid_run;
      Alcotest.test_case "pool and tree survive a raising continuation" `Quick
        test_pool_survives_raising_continuation;
    ] )
