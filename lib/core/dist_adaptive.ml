type request = {
  op : Workload.op;
  k : Types.outcome -> unit;
  mutable main_granted : bool;
}

type stage = Halving | Final

type t = {
  net : Net.t;
  w : int;
  mutable main : Dist.t;
  mutable counter : Dist.t;
  mutable stage : stage;
  mutable stage_budget : int;
  mutable m_i : int;
  mutable epochs : int;
  mutable rotating : bool;
  mutable main_exhausted : bool;  (* reason flag for the pending rotation *)
  mutable dead : bool;
  mutable trivial : bool;  (* W = 0 endgame: one direct root-walk permit *)
  mutable wave_charged : bool;
  mutable outstanding : int;
  mutable applying : int;
  mutable granted : int;
  mutable rejected : int;
  mutable overhead : int;
  held : request Queue.t;  (* requests parked during a rotation *)
}

let tree t = Net.tree t.net

let hold_config name =
  { Dist.default_config with auto_apply = false; exhaustion = `Hold; name }

let tag_universe =
  Dist.tag_universe ~name:"main" @ Dist.tag_universe ~name:"counter"

let make_pair t m_budget stage_w =
  let n = Dtree.size (tree t) in
  let u = max 4 (2 * n) in
  t.main <-
    Dist.create ~config:(hold_config "main")
      ~params:(Params.make ~m:m_budget ~w:stage_w ~u)
      ~net:t.net ();
  t.counter <-
    Dist.create ~config:(hold_config "counter")
      ~params:(Params.make ~m:(u / 2) ~w:(u / 4) ~u)
      ~net:t.net ()

(* Stage selection mirrors Iterate: halve the waste while the budget exceeds
   2W, then one final (L, W) stage, then reject. *)
let pick_stage_w w budget =
  if budget <= 0 then `Dead
  else if w >= 1 then
    if budget <= 2 * w then `Stage (Final, budget, w)
    else `Stage (Halving, budget, budget / 2)
  else if budget = 1 then `Trivial
  else `Stage (Halving, budget, budget / 2)

let pick_stage t budget = pick_stage_w t.w budget

let create ~m ~w ~net () =
  if m < 0 || w < 0 then invalid_arg "Dist_adaptive.create: bad parameters";
  let n = Dtree.size (Net.tree net) in
  let u = max 4 (2 * n) in
  let initial = pick_stage_w w m in
  let budget, stage_w, stage, dead, trivial =
    match initial with
    | `Dead -> (0, 1, Final, true, false)
    | `Trivial -> (0, 1, Final, false, true)
    | `Stage (stage, budget, stage_w) -> (budget, stage_w, stage, false, false)
  in
  {
    net;
    w;
    main =
      Dist.create ~config:(hold_config "main")
        ~params:(Params.make ~m:budget ~w:stage_w ~u)
        ~net ();
    counter =
      Dist.create ~config:(hold_config "counter")
        ~params:(Params.make ~m:(u / 2) ~w:(u / 4) ~u)
        ~net ();
    stage;
    stage_budget = budget;
    m_i = m;
    epochs = 0;
    rotating = false;
    main_exhausted = false;
    dead;
    trivial;
    wave_charged = false;
    outstanding = 0;
    applying = 0;
    granted = 0;
    rejected = 0;
    overhead = 0;
    held = Queue.create ();
  }

let charge_wave t =
  if not t.wave_charged then begin
    t.wave_charged <- true;
    t.overhead <- t.overhead + Dtree.size (tree t)
  end

let finish t r outcome =
  t.outstanding <- t.outstanding - 1;
  (match outcome with
  | Types.Granted -> t.granted <- t.granted + 1
  | Types.Rejected -> t.rejected <- t.rejected + 1
  | Types.Exhausted -> ());
  r.k outcome

let is_topological = function
  | Workload.Add_leaf _ | Workload.Remove_leaf _ | Workload.Add_internal _
  | Workload.Remove_internal _ ->
      true
  | Workload.Non_topological _ -> false

(* Apply a doubly-granted topological change once neither controller has a
   lock conflict. *)
let rec apply_change t r =
  if Dist.can_apply t.main r.op && Dist.can_apply t.counter r.op then begin
    let info = Workload.apply_info (tree t) r.op in
    (match info with
    | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
      ->
        Net.node_deleted t.net node ~parent
    | Workload.Leaf_added _ | Workload.Internal_added _ | Workload.Event_occurred _ -> ());
    Dist.note_applied t.main info;
    Dist.note_applied t.counter info;
    t.applying <- t.applying - 1;
    finish t r Types.Granted
  end
  else Net.schedule t.net ~delay:2 (fun () -> apply_change t r)

let rec route t r =
  if r.main_granted then
    (* The permit is already secured: only change counting and application
       remain. If the epochs have ended (dead, or trivial endgame) there is
       no counter left — apply directly; rejecting now would strand a
       granted permit and break the liveness window. *)
    if t.dead || t.trivial then begin
      t.applying <- t.applying + 1;
      apply_trivial t r
    end
    else if t.rotating then Queue.push r t.held
    else route_counter t r
  else if t.dead then begin
    charge_wave t;
    finish t r Types.Rejected
  end
  else if t.rotating then Queue.push r t.held
  else if t.trivial then begin
    (* the (1,0)-controller: the last permit walks from the root *)
    t.trivial <- false;
    t.dead <- true;
    t.overhead <- t.overhead + Dtree.depth (tree t) (Workload.request_site (tree t) r.op);
    if is_topological r.op then begin
      t.applying <- t.applying + 1;
      apply_trivial t r
    end
    else finish t r Types.Granted
  end
  else
    Dist.submit t.main r.op ~k:(fun outcome ->
        match outcome with
        | Types.Granted ->
            if is_topological r.op then begin
              r.main_granted <- true;
              if t.rotating then Queue.push r t.held else route_counter t r
            end
            else finish t r Types.Granted
        | Types.Exhausted ->
            (* park first: the rotation can complete synchronously *)
            Queue.push r t.held;
            trigger_rotation t ~main_exhausted:true
        | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- main controller runs in report mode and never rejects *)

and apply_trivial t r =
  (* no controller state to consult: apply as soon as the op is valid *)
  if Workload.valid_op (tree t) r.op then begin
    let info = Workload.apply_info (tree t) r.op in
    (match info with
    | Workload.Leaf_removed { node; parent } | Workload.Internal_removed { node; parent; _ }
      ->
        Net.node_deleted t.net node ~parent
    | _ -> ());
    t.applying <- t.applying - 1;
    finish t r Types.Granted
  end
  else Net.schedule t.net ~delay:2 (fun () -> apply_trivial t r)

and route_counter t r =
  Dist.submit t.counter r.op ~k:(fun outcome ->
      match outcome with
      | Types.Granted ->
          t.applying <- t.applying + 1;
          apply_change t r
      | Types.Exhausted ->
          (* between U_i/4 and U_i/2 changes happened: rotate the epoch.
             Park first: the rotation can complete synchronously. *)
          Queue.push r t.held;
          trigger_rotation t ~main_exhausted:false
      | Types.Rejected -> assert false)  (* dynlint: allow unsafe -- counter runs in report mode and never rejects *)

and trigger_rotation t ~main_exhausted =
  t.main_exhausted <- t.main_exhausted || main_exhausted;
  if not t.rotating then begin
    t.rotating <- true;
    await_drain t
  end

and await_drain t =
  if
    Dist.outstanding t.main = 0
    && Dist.outstanding t.counter = 0
    && t.applying = 0
  then rotate t
  else Net.schedule t.net ~delay:2 (fun () -> await_drain t)

and rotate t =
  let n = Dtree.size (tree t) in
  Central.Log.debug (fun m ->
      m "epoch %d rotation: n=%d, budget left %d, main exhausted %b" t.epochs n
        (Dist.leftover t.main) t.main_exhausted);
  (match Net.sink t.net with
  | None -> ()
  | Some s ->
      Telemetry.Sink.event s ~time:(Net.now t.net)
        (Telemetry.Event.Epoch { ctrl = "dist-adaptive"; epoch = t.epochs + 1; n }));
  (* broadcast + upcast to count nodes and unused permits, plus the
     whiteboard-reset broadcast (Appendix A) *)
  t.overhead <- t.overhead + (5 * n);
  let leftover = Dist.leftover t.main in
  t.m_i <- leftover;
  t.epochs <- t.epochs + 1;
  let next =
    if t.main_exhausted then
      match t.stage with
      | Final -> `Dead
      | Halving when leftover >= t.stage_budget ->
          (* no progress: escalate (cannot happen for the paper's base) *)
          if leftover <= 0 then `Dead else `Stage (Final, leftover, max 1 t.w)
      | Halving -> pick_stage t leftover
    else
      (* epoch rotation only: keep the stage kind, re-guess U *)
      match t.stage with
      | Final -> `Stage (Final, leftover, max 1 t.w)
      | Halving -> pick_stage t leftover
  in
  t.main_exhausted <- false;
  (match next with
  | `Dead ->
      t.dead <- true;
      charge_wave t
  | `Trivial -> t.trivial <- true
  | `Stage (stage, budget, stage_w) ->
      t.stage <- stage;
      t.stage_budget <- budget;
      make_pair t budget stage_w);
  t.rotating <- false;
  (* release the parked requests into the new epoch *)
  let parked = Queue.create () in
  Queue.transfer t.held parked;
  Queue.iter (fun r -> Net.schedule t.net ~delay:1 (fun () -> route t r)) parked

let submit t op ~k =
  t.outstanding <- t.outstanding + 1;
  let r = { op; k; main_granted = false } in
  Net.schedule t.net ~delay:1 (fun () -> route t r)

let granted t = t.granted
let rejected t = t.rejected
let outstanding t = t.outstanding
let epochs t = t.epochs
let rejecting t = t.dead
let overhead_messages t = t.overhead
