module Dist = Controller.Dist
module Params = Controller.Params
module Types = Controller.Types

let protocol_name = "size-est"
let tag_universe = Dist.tag_universe ~name:protocol_name

type request = { op : Workload.op; k : unit -> unit }

type t = {
  net : Net.t;
  beta : float;
  mutable ctrl : Dist.t;
  mutable n_i : int;  (* the epoch's exact size, every node's estimate *)
  mutable epochs : int;
  mutable rotating : bool;
  mutable outstanding : int;
  mutable applying : int;
  mutable changes : int;
  mutable overhead : int;
  held : request Queue.t;
}

let tree t = Net.tree t.net

let emit t kind =
  match Net.sink t.net with
  | None -> ()
  | Some s -> Telemetry.Sink.event s ~time:(Net.now t.net) kind

(* floor(alpha n), but at least 1 so that epochs always progress. For
   beta >= 2 this keeps the approximation exact at every size (growth to
   n + max(1, floor(alpha n)) <= beta n even at n = 1); for beta < 2 the
   guarantee needs n >= beta / (beta - 1), as in the paper's asymptotics. *)
let alpha_budget t n =
  let alpha = 1.0 -. (1.0 /. t.beta) in
  max 1 (int_of_float (alpha *. float_of_int n))

let make_ctrl net n_i budget =
  let u = max 4 (n_i + budget) in
  Dist.create
    ~config:{ Dist.default_config with auto_apply = false; exhaustion = `Hold; name = protocol_name }
    ~params:(Params.make ~m:budget ~w:(max 1 (budget / 2)) ~u)
    ~net ()

let create ?(beta = 2.0) ~net () =
  if beta <= 1.0 then invalid_arg "Size_estimation.create: beta must exceed 1";
  let n0 = Dtree.size (Net.tree net) in
  let alpha = 1.0 -. (1.0 /. beta) in
  let budget = max 1 (int_of_float (alpha *. float_of_int n0)) in
  let t =
    {
      net;
      beta;
      ctrl = make_ctrl net n0 budget;
      n_i = n0;
      epochs = 0;
      rotating = false;
      outstanding = 0;
      applying = 0;
      changes = 0;
      overhead = 0;
      held = Queue.create ();
    }
  in
  emit t
    (Telemetry.Event.Estimate
       { ctrl = "size-est"; node = Dtree.root (tree t); value = n0; truth = n0 });
  t

let rec apply_change t r =
  if Dist.can_apply t.ctrl r.op then begin
    let info = Workload.apply_info (tree t) r.op in
    (match info with
    | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
      ->
        Net.node_deleted t.net node ~parent
    | Workload.Leaf_added _ | Workload.Internal_added _ | Workload.Event_occurred _ -> ());
    Dist.note_applied t.ctrl info;
    t.applying <- t.applying - 1;
    t.changes <- t.changes + 1;
    t.outstanding <- t.outstanding - 1;
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
            (* between alpha N_i / 2 and alpha N_i changes happened: the
               terminating controller has terminated; rotate the epoch.
               Park the request first: starting the rotation can complete
               synchronously when this was the last outstanding request. *)
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
  let n = Dtree.size (tree t) in
  (* broadcast + upcast computing and disseminating N_{i+1}, plus the
     whiteboard reset *)
  t.overhead <- t.overhead + (3 * n);
  t.n_i <- n;
  t.epochs <- t.epochs + 1;
  emit t (Telemetry.Event.Epoch { ctrl = "size-est"; epoch = t.epochs; n });
  emit t
    (Telemetry.Event.Estimate
       { ctrl = "size-est"; node = Dtree.root (tree t); value = n; truth = n });
  t.ctrl <- make_ctrl t.net n (alpha_budget t n);
  t.rotating <- false;
  let parked = Queue.create () in
  Queue.transfer t.held parked;
  Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

let submit t op ~k =
  t.outstanding <- t.outstanding + 1;
  let r = { op; k } in
  Net.schedule t.net ~delay:1 (fun () -> route t r)

let estimate t _v = t.n_i
let beta t = t.beta
let epochs t = t.epochs
let overhead_messages t = t.overhead
let changes t = t.changes
