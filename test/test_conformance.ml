(* One conformance battery run against every centralized controller variant:
   the correctness conditions of Section 2.2 are variant-independent. *)

open Controller

module type CTRL = sig
  val name : string
  val exact_window : bool
  (** whether the [M-W, M] liveness window is promised exactly *)

  val grow_only : bool

  type t

  val create : m:int -> w:int -> u:int -> tree:Dtree.t -> t
  val request : t -> Workload.op -> Types.outcome
  val granted : t -> int
end

let variants : (module CTRL) list =
  [
    (module struct
      let name = "central (fixed U)"
      let exact_window = true
      let grow_only = false

      type t = Central.t

      let create ~m ~w ~u ~tree =
        Central.create ~params:(Params.make ~m ~w:(max 1 w) ~u) ~tree ()

      let request = Central.request
      let granted = Central.granted
    end);
    (module struct
      let name = "iterated (Obs 3.4)"
      let exact_window = true
      let grow_only = false

      type t = Iterated.t

      let create ~m ~w ~u ~tree = Iterated.create ~m ~w ~u ~tree ()
      let request = Iterated.request
      let granted = Iterated.granted
    end);
    (module struct
      let name = "adaptive (Thm 3.5(1))"
      let exact_window = true
      let grow_only = false

      type t = Adaptive.t

      let create ~m ~w ~u:_ ~tree = Adaptive.create ~m ~w ~tree ()
      let request = Adaptive.request
      let granted = Adaptive.granted
    end);
    (module struct
      let name = "adaptive (Thm 3.5(2))"
      let exact_window = true
      let grow_only = false

      type t = Adaptive.t

      let create ~m ~w ~u:_ ~tree =
        Adaptive.create ~variant:Adaptive.By_doubling ~m ~w ~tree ()

      let request = Adaptive.request
      let granted = Adaptive.granted
    end);
    (module struct
      let name = "trivial baseline"
      let exact_window = true
      let grow_only = false

      type t = Baseline_trivial.t

      let create ~m ~w:_ ~u:_ ~tree = Baseline_trivial.create ~m ~tree
      let request = Baseline_trivial.request
      let granted = Baseline_trivial.granted
    end);
    (module struct
      let name = "AAPS bins baseline"
      let exact_window = false
      let grow_only = true

      type t = Baseline_aaps.Iterated.t

      let create ~m ~w ~u ~tree = Baseline_aaps.Iterated.create ~m ~w ~u ~tree ()
      let request = Baseline_aaps.Iterated.request
      let granted = Baseline_aaps.Iterated.granted
    end);
  ]

let grid =
  (* (m, w, shape, mix-name) corners of the parameter space *)
  [
    (40, 0, Workload.Shape.Random 30, `Churn);
    (40, 10, Workload.Shape.Random 30, `Churn);
    (150, 25, Workload.Shape.Path 60, `Grow);
    (150, 75, Workload.Shape.Star 40, `Shrink);
    (7, 2, Workload.Shape.Caterpillar 25, `Churn);
    (300, 1, Workload.Shape.Balanced (3, 40), `Grow);
  ]

let mix_of = function
  | `Churn -> Workload.Mix.churn
  | `Grow -> Workload.Mix.grow_only
  | `Shrink -> Workload.Mix.shrink_heavy

let run_cell (module C : CTRL) (m, w, shape, mix_tag) =
  let mix = if C.grow_only then Workload.Mix.grow_only else mix_of mix_tag in
  let steps = (2 * m) + 60 in
  let rng = Rng.create ~seed:(m + w) in
  let tree = Workload.Shape.build rng shape in
  let ctrl = C.create ~m ~w ~u:(Dtree.size tree + steps) ~tree in
  let wl = Workload.make ~seed:(m + w + 1) ~mix () in
  let first_reject_granted = ref None in
  for _ = 1 to steps do
    match C.request ctrl (Workload.next_op wl tree) with
    | Types.Granted | Types.Exhausted -> ()
    | Types.Rejected ->
        if !first_reject_granted = None then first_reject_granted := Some (C.granted ctrl)
  done;
  (* safety: never more than M *)
  if C.granted ctrl > m then
    Alcotest.failf "%s: safety violated (%d > M = %d)" C.name (C.granted ctrl) m;
  (* the budget is large enough to be exhausted by the step count *)
  (match !first_reject_granted with
  | None -> Alcotest.failf "%s: never exhausted (granted %d of %d)" C.name (C.granted ctrl) m
  | Some g ->
      if C.exact_window && g < m - w then
        Alcotest.failf "%s: liveness violated (%d < M - W = %d)" C.name g (m - w);
      if (not C.exact_window) && g < m / 4 then
        Alcotest.failf "%s: granted fraction collapsed (%d of %d)" C.name g m);
  Dtree.check tree

let cases =
  List.concat_map
    (fun (module C : CTRL) ->
      List.mapi
        (fun i cell ->
          Alcotest.test_case (Printf.sprintf "%s / grid %d" C.name i) `Quick (fun () ->
              run_cell (module C) cell))
        grid)
    variants

(* ------------------------------------------------------------------ *)
(* Runtime protocol conformance. Every distributed protocol here is the
   Dist controller under a name prefix, so its wire universe is the seven
   [Dist.suffix] constructors. The type system keeps a send inside the
   universe; these runs check the two directions at runtime: every tag a
   run puts on the wire is in its declared universe, and across the runs
   below, with the prefix stripped, the suffixes seen on the wire are
   exactly [Dist.tag_suffixes] (no constructor is an orphan). *)

let tags_declared ~universe net =
  match
    List.filter (fun (tag, _) -> not (List.mem tag universe)) (Net.messages_by_tag net)
  with
  | (tag, count) :: _ ->
      Error
        (Printf.sprintf
           "%d message(s) under tag %S, outside the declared universe [%s]" count
           tag (String.concat "; " universe))
  | [] when Net.messages_by_tag net = [] ->
      (* a run that sent nothing would vacuously "conform" *)
      Error "the run sent no tagged messages"
  | [] -> Ok ()

let assert_tags_declared ~proto ~universe net =
  match tags_declared ~universe net with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" proto m

(* The union, over [nets], of the wire suffixes must equal
   [Dist.tag_suffixes]: a tag carrying no suffix, or a constructor no run
   sent, is an error. *)
let suffix_cover nets =
  let suffix tag =
    List.find_opt (fun s -> String.ends_with ~suffix:("-" ^ s) tag) Dist.tag_suffixes
  in
  let tags = List.concat_map (fun net -> List.map fst (Net.messages_by_tag net)) nets in
  match List.find_opt (fun tag -> suffix tag = None) tags with
  | Some tag -> Error (Printf.sprintf "tag %S carries no Dist suffix" tag)
  | None -> (
      let seen = List.filter_map suffix tags in
      match List.filter (fun s -> not (List.mem s seen)) Dist.tag_suffixes with
      | [] -> Ok ()
      | unsent ->
          Error
            (Printf.sprintf "constructor(s) never sent: [%s]"
               (String.concat "; " unsent)))

(* One request in flight at a time, so a freshly drawn op is still valid
   when the protocol applies it — no reservation bookkeeping needed. *)
let drive_churn ~seed ~net ~tree ~requests ~submit =
  let wl = Workload.make ~seed ~mix:Workload.Mix.churn () in
  let submitted = ref 0 in
  let rec pump () =
    if !submitted < requests then begin
      incr submitted;
      submit (Workload.next_op wl tree) pump
    end
  in
  pump ();
  Net.run net

let build_net ~seed size =
  let rng = Rng.create ~seed in
  let tree = Workload.Shape.build rng (Workload.Shape.Random size) in
  let net = Net.create ~seed:(seed + 1) ~tree () in
  (tree, net)

(* Each run returns its declared universe and the drained network. *)

(* The Wave-mode controller: sends every suffix except agent-release,
   which only Hold mode uses. *)
let run_dist_fixed () =
  let tree, net = build_net ~seed:9001 20 in
  let requests = 40 in
  let u = Dtree.size tree + requests in
  let ctrl = Dist.create ~params:(Params.make ~m:12 ~w:4 ~u) ~net () in
  drive_churn ~seed:9003 ~net ~tree ~requests
    ~submit:(fun op k -> Dist.submit ctrl op ~k:(fun _ -> k ()));
  (Dist.tags ctrl, net)

let run_dist_variant () =
  (* the one string boundary of the variant universe: the renderer's
     arms ARE the declared suffix list, and interning a rendered tag
     round-trips through Net's intern table *)
  let rendered =
    List.map Dist.suffix_to_string
      [
        Dist.Agent_down;
        Dist.Agent_reject;
        Dist.Agent_release;
        Dist.Agent_return;
        Dist.Agent_unlock;
        Dist.Agent_up;
        Dist.Reject_wave;
      ]
  in
  Alcotest.(check (list string)) "renderer arms are the suffix universe"
    (List.sort compare rendered)
    (List.sort compare Dist.tag_suffixes);
  let tree, net = build_net ~seed:9061 16 in
  let requests = 30 in
  let u = Dtree.size tree + requests in
  let ctrl = Dist.create ~params:(Params.make ~m:10 ~w:4 ~u) ~net () in
  drive_churn ~seed:9063 ~net ~tree ~requests
    ~submit:(fun op k -> Dist.submit ctrl op ~k:(fun _ -> k ()));
  List.iter
    (fun tag ->
      (* intern is idempotent, so this hits the id the controller
         registered at create; tag_name must render it back *)
      let id = Net.intern_tag net tag in
      Alcotest.(check string) "intern/tag_name round-trip" tag (Net.tag_name net id))
    (Dist.tags ctrl);
  (Dist.tags ctrl, net)

let run_dist_adaptive () =
  let tree, net = build_net ~seed:9011 20 in
  let da = Dist_adaptive.create ~m:30 ~w:10 ~net () in
  drive_churn ~seed:9013 ~net ~tree ~requests:30
    ~submit:(fun op k -> Dist_adaptive.submit da op ~k:(fun _ -> k ()));
  (Dist_adaptive.tag_universe, net)

let run_size_estimation () =
  let tree, net = build_net ~seed:9021 20 in
  let se = Estimator.Size_estimation.create ~net () in
  drive_churn ~seed:9023 ~net ~tree ~requests:25
    ~submit:(fun op k -> Estimator.Size_estimation.submit se op ~k);
  (Estimator.Size_estimation.tag_universe, net)

let run_name_assignment () =
  let tree, net = build_net ~seed:9031 20 in
  let na = Estimator.Name_assignment.create ~net () in
  drive_churn ~seed:9033 ~net ~tree ~requests:25
    ~submit:(fun op k -> Estimator.Name_assignment.submit na op ~k);
  (Estimator.Name_assignment.tag_universe, net)

let run_subtree_estimator () =
  let tree, net = build_net ~seed:9041 20 in
  let st = Estimator.Subtree_estimator_dist.create ~net () in
  drive_churn ~seed:9043 ~net ~tree ~requests:25
    ~submit:(fun op k -> Estimator.Subtree_estimator_dist.submit st op ~k);
  (Estimator.Subtree_estimator_dist.tag_universe, net)

let run_majority_commit () =
  let tree, net = build_net ~seed:9051 12 in
  let mc =
    Estimator.Majority_commit_dist.create ~m:10 ~net
      ~initial_votes:(fun v -> v mod 2 = 0) ()
  in
  (* join under the deepest node: a request at the root itself is
     answered without any agent messages *)
  let deepest () =
    List.fold_left
      (fun best v -> if Dtree.depth tree v > Dtree.depth tree best then v else best)
      (Dtree.root tree) (Dtree.live_nodes tree)
  in
  let joins = ref 0 in
  let rec pump () =
    if !joins < 14 then begin
      incr joins;
      Estimator.Majority_commit_dist.submit_join mc ~parent:(deepest ())
        ~vote:(!joins mod 3 = 0) ~k:(fun _ -> pump ())
    end
  in
  pump ();
  Net.run net;
  (Estimator.Majority_commit_dist.tag_universe, net)

let tag_runs =
  [
    ("dist (fixed U)", run_dist_fixed);
    ("variant renderer boundary", run_dist_variant);
    ("dist adaptive", run_dist_adaptive);
    ("size estimation", run_size_estimation);
    ("name assignment", run_name_assignment);
    ("subtree estimator", run_subtree_estimator);
    ("majority commit", run_majority_commit);
  ]

let expect_error what = function
  | Ok () -> Alcotest.failf "%s: the check accepted a defective run" what
  | Error m -> m

let tag_cases =
  List.map
    (fun (case, run) ->
      Alcotest.test_case ("tags: " ^ case) `Quick (fun () ->
          let universe, net = run () in
          assert_tags_declared ~proto:case ~universe net))
    tag_runs
  @ [
      Alcotest.test_case "tags: suffix union is universe" `Quick
        (fun () ->
          let nets = List.map (fun (_, run) -> snd (run ())) tag_runs in
          match suffix_cover nets with
          | Ok () -> ()
          | Error m -> Alcotest.failf "Dist-family runs: %s" m);
      Alcotest.test_case "tags: rogue tag is rejected" `Quick
        (fun () ->
          (* a run that interns and sends a tag outside its universe *)
          let universe, net = run_dist_fixed () in
          let tree = Net.tree net in
          let rogue = Net.intern_tag net "ctrl-rogue" in
          Net.send_to net ~src:(Dtree.root tree) ~dst:(Dtree.any_leaf tree)
            ~tag:rogue ~bits:1 ignore;
          Net.run net;
          let m = expect_error "rogue tag" (tags_declared ~universe net) in
          Alcotest.(check bool) "names the rogue tag" true
            (String.starts_with ~prefix:"1 message(s) under tag \"ctrl-rogue\"" m));
      Alcotest.test_case "tags: orphan arm is rejected" `Quick
        (fun () ->
          (* the Wave-mode run alone never sends agent-release *)
          let _, net = run_dist_fixed () in
          let m = expect_error "orphan constructor" (suffix_cover [ net ]) in
          Alcotest.(check string) "names exactly the orphan"
            "constructor(s) never sent: [agent-release]" m);
    ]

let suite = ("conformance", cases @ tag_cases)
