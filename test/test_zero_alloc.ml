(* Runtime corroboration of the D11 static proofs: every
   [@@dynlint.zero_alloc]-annotated hot path must put exactly zero words
   on the minor heap in steady state. The probe is calibrated — the
   measured delta of each operation loop must equal the delta of an empty
   thunk, so any boxing done by [Gc.minor_words] itself cancels out.
   Warm-up laps run first so amortized growth (arena doubling, heap
   doubling, pool minting, link interning) happens outside the window.

   A second section pins the Rng's 32-bit-halves SplitMix64 against a
   direct Int64 reference: the rewrite that made [next] allocation-free
   must not have moved a single draw, or every seeded baseline in
   BENCH_BASELINE.json silently shifts. *)

let delta f =
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  after -. before

let check_zero name f =
  let baseline = delta (fun () -> ()) in
  Alcotest.(check (float 0.0)) name baseline (delta f)

let laps = 10_000

let test_rng () =
  let r = Rng.create ~seed:42 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  (* warm-up: fault in any lazily-initialized runtime state *)
  for _ = 1 to 100 do
    ignore (Rng.next r)
  done;
  check_zero "Rng.next" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.next r)
      done);
  check_zero "Rng.int" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.int r 1000)
      done);
  check_zero "Rng.int_in" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.int_in r 10 20)
      done);
  check_zero "Rng.bool" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.bool r)
      done);
  check_zero "Rng.pick_arr" (fun () ->
      for _ = 1 to laps do
        ignore (Rng.pick_arr r arr)
      done)

let test_dtree () =
  let t = Dtree.create ~reuse_ids:true () in
  let root = Dtree.root t in
  (* a chain of internal nodes with one leaf at the bottom, so hops have
     depth to climb; reuse_ids + warm-up keeps the arena at peak size *)
  let deep = ref root in
  for _ = 1 to 64 do
    deep := Dtree.add_leaf t ~parent:!deep
  done;
  let leaf = Dtree.add_leaf t ~parent:!deep in
  for _ = 1 to 100 do
    let v = Dtree.add_leaf t ~parent:!deep in
    Dtree.remove_leaf t v
  done;
  check_zero "Dtree hop climb" (fun () ->
      for _ = 1 to laps do
        let v = ref leaf in
        while Dtree.parent_id t !v >= 0 do
          v := Dtree.parent_id t !v
        done
      done);
  check_zero "Dtree reads" (fun () ->
      for _ = 1 to laps do
        ignore (Dtree.is_leaf t leaf);
        ignore (Dtree.child_degree t root);
        ignore (Dtree.depth t leaf);
        ignore (Dtree.is_ancestor t ~anc:root ~desc:leaf);
        ignore (Dtree.size t);
        ignore (Dtree.port_to_parent t leaf)
      done);
  check_zero "Dtree subtree fold" (fun () ->
      for _ = 1 to 100 do
        ignore (Dtree.fold_dfs t ~init:0 ~f:(fun n _ -> n + 1));
        ignore (Dtree.subtree_size t !deep);
        ignore (Dtree.any_leaf t)
      done);
  check_zero "Dtree mutation batch" (fun () ->
      for _ = 1 to laps do
        let v = Dtree.add_leaf t ~parent:!deep in
        Dtree.remove_leaf t v
      done)

let test_event_queue () =
  let q = Event_queue.create ~dummy:(-1) in
  (* warm the heap arrays past the working set *)
  for i = 1 to 256 do
    Event_queue.add q ~time:i i
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop_exn q)
  done;
  check_zero "Event_queue add_prio/pop_exn cycle" (fun () ->
      for i = 1 to laps do
        Event_queue.add_prio q ~time:i ~priority:(i land 7) i;
        Event_queue.add_prio q ~time:(i + 3) ~priority:0 (i + 1);
        ignore (Event_queue.next_time q);
        ignore (Event_queue.pop_exn q);
        ignore (Event_queue.pop_exn q)
      done);
  check_zero "Event_queue omitted-optional add" (fun () ->
      for i = 1 to laps do
        Event_queue.add q ~time:i i;
        ignore (Event_queue.pop_exn q)
      done)

let test_net_round_trip () =
  let tree = Dtree.create () in
  let a = Dtree.add_leaf tree ~parent:(Dtree.root tree) in
  let b = Dtree.add_leaf tree ~parent:a in
  let net = Net.create ~seed:7 ~tree () in
  let tag = Net.intern_tag net "za-probe" in
  (* warm-up mints the pooled cells, grows the link tables and interns
     the links under whichever scheduler discipline is active *)
  for _ = 1 to 256 do
    Net.send_to net ~src:a ~dst:b ~tag ~bits:8 ignore;
    Net.send_up net ~src:b ~tag ~bits:8 ignore;
    Net.run net
  done;
  check_zero "Net send_to/run round trip" (fun () ->
      for _ = 1 to laps do
        Net.send_to net ~src:a ~dst:b ~tag ~bits:8 ignore;
        Net.run net
      done);
  check_zero "Net send_up/run round trip" (fun () ->
      for _ = 1 to laps do
        Net.send_up net ~src:b ~tag ~bits:8 ignore;
        Net.run net
      done)

(* A traced run records two events per message. Into a channel sink that
   is the registry fold (resolved series handles, the per-tag table) plus
   the direct JSONL encoder writing into the sink's buffer: none of it may
   allocate. [flush_bytes] is small so flushes to the channel fall inside
   the window too. *)
let test_sink_record () =
  let module E = Telemetry.Event in
  let oc = open_out_bin Filename.null in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let sink = Telemetry.Sink.to_channel ~flush_bytes:512 oc in
      let send =
        {
          E.time = 123_456;
          ctx = { E.trace = 40; span = 41; parent = 40 };
          kind = E.Send { src = 7; addr = E.Parent_of 9; tag = "agent-up"; bits = 24 };
        }
      and deliver =
        {
          E.time = 123_460;
          ctx = { E.trace = 40; span = 41; parent = 40 };
          kind =
            E.Deliver
              {
                src = 7;
                dst = 3;
                tag = "agent-up";
                seq = -1;
                forwarded = false;
                reordered = false;
              };
        }
      in
      (* warm-up resolves the series handles and grows the buffer *)
      for _ = 1 to 100 do
        Telemetry.Sink.record sink send;
        Telemetry.Sink.record sink deliver
      done;
      check_zero "Sink.record Send/Deliver into a channel" (fun () ->
          for _ = 1 to laps do
            Telemetry.Sink.record sink send;
            Telemetry.Sink.record sink deliver
          done);
      Telemetry.Sink.flush sink)

(* ---------------------------------------------------------------- *)
(* Stream identity: the 32-bit-halves implementation vs Int64 SplitMix64. *)

let ref_step st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let test_splitmix_reference () =
  List.iter
    (fun seed ->
      let r = Rng.create ~seed in
      let st = ref (Int64.of_int seed) in
      for i = 1 to 1000 do
        let expect = ref_step st in
        Alcotest.(check int64)
          (Printf.sprintf "seed %d draw %d (int64)" seed i)
          expect (Rng.int64 r)
      done;
      (* [next] is the same stream's 64-bit output shifted right by two *)
      let r' = Rng.create ~seed in
      let st' = ref (Int64.of_int seed) in
      for i = 1 to 1000 do
        let expect = Int64.to_int (Int64.shift_right_logical (ref_step st') 2) in
        Alcotest.(check int)
          (Printf.sprintf "seed %d draw %d (next)" seed i)
          expect (Rng.next r')
      done)
    [ 0; 1; 42; 123456789; -1; -987654321; max_int ]

let suite =
  ( "zero-alloc",
    [
      Alcotest.test_case "rng draws" `Quick test_rng;
      Alcotest.test_case "dtree traversal and mutation" `Quick test_dtree;
      Alcotest.test_case "event queue cycle" `Quick test_event_queue;
      Alcotest.test_case "net round trip (no sink)" `Quick test_net_round_trip;
      Alcotest.test_case "sink record into a channel" `Quick test_sink_record;
      Alcotest.test_case "splitmix64 reference stream" `Quick
        test_splitmix_reference;
    ] )
