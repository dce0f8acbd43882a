module Dist = Controller.Dist
module Params = Controller.Params
module Types = Controller.Types

let protocol_name = "names"
let tag_universe = Dist.tag_universe ~name:protocol_name

type request = { op : Workload.op; k : unit -> unit }

type t = {
  net : Net.t;
  ids : (Dtree.node, int) Hashtbl.t;
  mutable ctrl : Dist.t;
  mutable n_i : int;
  mutable fresh : int;  (* next unassigned integer in [N_i + 1, 3 N_i / 2] *)
  mutable epochs : int;
  mutable rotating : bool;
  mutable applying : int;
  mutable overhead : int;
  mutable max_ratio : float;
  held : request Queue.t;
}

let tree t = Net.tree t.net

let emit t kind =
  match Net.sink t.net with
  | None -> ()
  | Some s -> Telemetry.Sink.event s ~time:(Net.now t.net) kind

let make_ctrl net n_i =
  let budget = max 2 (n_i / 2) in
  let u = max 4 (n_i + budget) in
  Dist.create
    ~config:{ Dist.default_config with auto_apply = false; exhaustion = `Hold; name = protocol_name }
    ~params:(Params.make ~m:budget ~w:(max 1 (n_i / 4)) ~u)
    ~net ()

(* The double DFS renaming: identities move to [3N+1, 4N] and then to
   [1, N]; both passes stay collision-free against the previous range. The
   simulator performs both atomically and charges the two traversals. *)
let renumber t =
  let n = Dtree.size (tree t) in
  Hashtbl.reset t.ids;
  let counter = ref 0 in
  ignore
    (Dtree.fold_dfs (tree t) ~init:() ~f:(fun () v ->
         incr counter;
         Hashtbl.replace t.ids v !counter));
  t.overhead <- t.overhead + (4 * n);
  t.n_i <- n;
  t.fresh <- n + 1

let record_ratio t =
  let n = Dtree.size (tree t) in
  let max_id = Hashtbl.fold (fun _ i acc -> max i acc) t.ids 0 in
  emit t
    (Telemetry.Event.Estimate
       { ctrl = "names"; node = Dtree.root (tree t); value = max_id; truth = n });
  let r = float_of_int max_id /. float_of_int n in
  if r > t.max_ratio then t.max_ratio <- r

let create ~net () =
  let n0 = Dtree.size (Net.tree net) in
  let t =
    {
      net;
      ids = Hashtbl.create 64;
      ctrl = make_ctrl net n0;
      n_i = n0;
      fresh = n0 + 1;
      epochs = 0;
      rotating = false;
      applying = 0;
      overhead = 0;
      max_ratio = 1.0;
      held = Queue.create ();
    }
  in
  renumber t;
  t

let assign_new t v =
  Hashtbl.replace t.ids v t.fresh;
  t.fresh <- t.fresh + 1

let rec apply_change t r =
  if Dist.can_apply t.ctrl r.op then begin
    let info = Workload.apply_info (tree t) r.op in
    (match info with
    | Workload.Leaf_added { leaf; _ } -> assign_new t leaf
    | Workload.Internal_added { fresh; _ } -> assign_new t fresh
    | Workload.Leaf_removed { node; parent } ->
        Hashtbl.remove t.ids node;
        Net.node_deleted t.net node ~parent
    | Workload.Internal_removed { node; parent; _ } ->
        Hashtbl.remove t.ids node;
        Net.node_deleted t.net node ~parent
    | Workload.Event_occurred _ -> ());
    Dist.note_applied t.ctrl info;
    t.applying <- t.applying - 1;
    record_ratio t;
    r.k ()
  end
  else Net.schedule t.net ~delay:2 (fun () -> apply_change t r)

let rec route t r =
  if t.rotating then Queue.push r t.held
  else
    Dist.submit t.ctrl r.op ~k:(fun outcome ->
        match outcome with
        | Types.Granted ->
            t.applying <- t.applying + 1;
            apply_change t r
        | Types.Exhausted ->
            (* park first: the rotation can complete synchronously *)
            Queue.push r t.held;
            start_rotation t
        | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- report mode: the controller never rejects *)

and start_rotation t =
  if not t.rotating then begin
    t.rotating <- true;
    await_drain t
  end

and await_drain t =
  if Dist.outstanding t.ctrl = 0 && t.applying = 0 then rotate t
  else Net.schedule t.net ~delay:2 (fun () -> await_drain t)

and rotate t =
  renumber t;
  (* whiteboard reset between terminating controllers *)
  t.overhead <- t.overhead + Dtree.size (tree t);
  t.epochs <- t.epochs + 1;
  emit t
    (Telemetry.Event.Epoch { ctrl = "names"; epoch = t.epochs; n = t.n_i });
  t.ctrl <- make_ctrl t.net t.n_i;
  t.rotating <- false;
  record_ratio t;
  let parked = Queue.create () in
  Queue.transfer t.held parked;
  Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

let submit t op ~k = Net.schedule t.net ~delay:1 (fun () -> route t { op; k })

let id t v =
  match Hashtbl.find_opt t.ids v with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Name_assignment.id: node %d has no identity" v)

let compare_binding (v1, i1) (v2, i2) =
  match Int.compare v1 v2 with 0 -> Int.compare i1 i2 | c -> c

let ids t =
  Hashtbl.fold (fun v i acc -> (v, i) :: acc) t.ids [] |> List.sort compare_binding

let epochs t = t.epochs
let overhead_messages t = t.overhead
let max_id_ever_ratio t = t.max_ratio
