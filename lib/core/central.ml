let log_src = Logs.Src.create "dynnet.controller" ~doc:"(M,W)-controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type package_event =
  | Created of Package.t
  | Split of { parent : Package.t; left : Package.t; right : Package.t }
  | Became_static of { pkg : Package.t; node : Dtree.node }
  | Store_moved of { from_ : Dtree.node; to_ : Dtree.node }
  | Granted_at of Dtree.node

type hooks = {
  on_grant : Workload.applied -> unit;
  on_package_down :
    requester:Dtree.node -> from_dist:int -> to_dist:int -> size:int -> unit;
  on_package_event : package_event -> unit;
}

let no_hooks =
  {
    on_grant = (fun _ -> ());
    on_package_down = (fun ~requester:_ ~from_dist:_ ~to_dist:_ ~size:_ -> ());
    on_package_event = (fun _ -> ());
  }

type t = {
  params : Params.t;
  tree : Dtree.t;
  stores : (Dtree.node, Store.t) Hashtbl.t;
  alloc : Package.allocator;
  mutable storage : int;
  mutable moves : int;
  mutable granted : int;
  mutable rejected : int;
  mutable wave : bool;
  reject_mode : Types.reject_mode;
  tracker : Domain_tracker.t option;
  hooks : hooks;
  telemetry : Telemetry.Sink.t option;
  ticks : int ref;  (* requests served: the centralized "clock" for events *)
}

let create ?(track_domains = false) ?(reject_mode = Types.Wave) ?(hooks = no_hooks)
    ?telemetry ~params ~tree () =
  let ticks = ref 0 in
  {
    params;
    tree;
    stores = Hashtbl.create 64;
    alloc = Package.allocator ();
    storage = params.Params.m;
    moves = 0;
    granted = 0;
    rejected = 0;
    wave = false;
    reject_mode;
    tracker =
      (if track_domains then
         Some
           (Domain_tracker.create ?telemetry ~clock:(fun () -> !ticks) ~params ~tree ())
       else None);
    hooks;
    telemetry;
    ticks;
  }

let emit t kind =
  match t.telemetry with
  | None -> ()
  | Some s -> Telemetry.Sink.event s ~time:!(t.ticks) kind

let store t v =
  (* exception form rather than [find_opt]: this lookup runs once per hop
     of every climb, and the [Some] the option form allocates per hop was
     a top allocator in the e2-e4 gc_phases profiles *)
  match Hashtbl.find t.stores v with
  | s -> s
  | exception Not_found ->
      let s = Store.empty () in
      Hashtbl.replace t.stores v s;
      s

let moves t = t.moves
let granted t = t.granted
let rejected t = t.rejected
let counters t = { Types.moves = t.moves; granted = t.granted; rejected = t.rejected }
let storage t = t.storage

let leftover t =
  Hashtbl.fold (fun _ s acc -> acc + Store.permits s) t.stores t.storage

let wave_done t = t.wave
let params t = t.params

let fold_stores t ~init ~f =
  Hashtbl.fold (fun v s acc -> if Store.is_empty s then acc else f acc v s) t.stores init

let check_domains t =
  match t.tracker with
  | None -> invalid_arg "Central.check_domains: created without track_domains"
  | Some tr -> Domain_tracker.check tr

let with_tracker t f = match t.tracker with None -> () | Some tr -> f tr

(* Broadcast the reject wave: one reject package per live node, delivered by
   splitting along tree edges — one move per node (Lemma 3.3 charges at most
   U in total for rejects). *)
let reject_wave t =
  if not t.wave then begin
    t.wave <- true;
    Log.debug (fun m ->
        m "reject wave: granted %d of M=%d (leftover %d) over %d nodes" t.granted
          t.params.Params.m (leftover t) (Dtree.size t.tree));
    Dtree.iter_nodes t.tree ~f:(fun v -> Store.set_rejecting (store t v));
    t.moves <- t.moves + Dtree.size t.tree;
    emit t (Telemetry.Event.Reject_wave { ctrl = "central"; node = Dtree.root t.tree })
  end

(* Apply a granted topological change. A deleted node first moves its
   packages (one move for the whole set) to its parent; domains are updated
   per Cases 3-5 of Section 3.2. *)
let apply_event t op =
  (* For removals, the deleted node's packages move to its parent first
     (item 2): one move for the whole set. *)
  (match op with
  | Workload.Remove_leaf v | Workload.Remove_internal v ->
      let s = store t v in
      (if not (Store.is_empty s) then
         match Dtree.parent t.tree v with
         | None -> assert false  (* dynlint: allow unsafe -- removed nodes are never the root, so a parent exists *)
         | Some p ->
             with_tracker t (fun tr ->
                 List.iter (fun pkg -> Domain_tracker.host_moved tr pkg p) (Store.mobiles s));
             Store.absorb (store t p) s;
             t.hooks.on_package_event (Store_moved { from_ = v; to_ = p });
             emit t (Telemetry.Event.Package_join { ctrl = "central"; from_ = v; to_ = p });
             t.moves <- t.moves + 1);
      Hashtbl.remove t.stores v
  | Workload.Add_leaf _ | Workload.Add_internal _ | Workload.Non_topological _ -> ());
  let info = Workload.apply_info t.tree op in
  (match info with
  | Workload.Internal_added { below; fresh } ->
      with_tracker t (fun tr -> Domain_tracker.on_add_internal tr ~new_node:fresh ~child:below)
  | Workload.Leaf_added _ | Workload.Leaf_removed _ | Workload.Internal_removed _
  | Workload.Event_occurred _ ->
      ());
  t.hooks.on_grant info

(* Distribute package [pkg] (level [k], currently at distance [d_w] above the
   requester [u]) down the path, per the corrected Proc of DESIGN.md: a
   level-k package lands at u_{k-1} (distance 3*2^(k-2)*psi), splits, leaves
   one level-(k-1) package there and recurses on the other. *)
let rec proc t ~u pkg ~d_w =
  let k = pkg.Package.level in
  if k = 0 then begin
    t.moves <- t.moves + d_w;
    t.hooks.on_package_down ~requester:u ~from_dist:d_w ~to_dist:0
      ~size:pkg.Package.size;
    with_tracker t (fun tr -> Domain_tracker.cancel tr pkg);
    t.hooks.on_package_event (Became_static { pkg; node = u });
    emit t
      (Telemetry.Event.Package_static
         { ctrl = "central"; node = u; size = pkg.Package.size });
    Store.add_static (store t u) pkg.Package.size
  end
  else begin
    let td = Params.landing_distance t.params (k - 1) in
    assert (td < d_w);
    let target =
      match Dtree.ancestor_at t.tree u td with
      | Some x -> x
      | None -> assert false  (* dynlint: allow unsafe -- landing distance td < d_w <= depth u, so the ancestor exists *)
    in
    t.moves <- t.moves + (d_w - td);
    t.hooks.on_package_down ~requester:u ~from_dist:d_w ~to_dist:td
      ~size:pkg.Package.size;
    with_tracker t (fun tr -> Domain_tracker.cancel tr pkg);
    let p1, p2 = Package.split t.alloc pkg in
    t.hooks.on_package_event (Split { parent = pkg; left = p1; right = p2 });
    emit t (Telemetry.Event.Package_split { ctrl = "central"; level = k });
    Store.add_mobile (store t target) p1;
    with_tracker t (fun tr -> Domain_tracker.assign tr p1 ~host:target ~requester:u);
    proc t ~u p2 ~d_w:td
  end

let grant t u op =
  Store.take_static (store t u);
  t.hooks.on_package_event (Granted_at u);
  t.granted <- t.granted + 1;
  apply_event t op

(* Filler lookup that leaves absent stores absent: a climb over a 10^6-node
   path must not populate the store table with one empty record per hop. *)
let take_filler t w ~d =
  match Hashtbl.find t.stores w with
  | s -> (
      match Store.find_filler s ~params:t.params ~distance:d with
      | Some pkg as found ->
          Store.remove_mobile s pkg;
          found
      | None -> None)
  | exception Not_found -> None

(* Climb from [u] towards the root looking for the closest filler node.
   [parent_id] keeps the per-hop loop allocation-free. *)
let rec climb t ~u w ~d =
  match take_filler t w ~d with
  | Some pkg ->
      proc t ~u pkg ~d_w:d;
      Ok ()
  | None -> (
      match Dtree.parent_id t.tree w with
      | parent when parent >= 0 -> climb t ~u parent ~d:(d + 1)
      | _ ->
          (* w is the root and not a filler: item 3b. *)
          let j = Params.creation_level t.params d in
          let need = Params.mobile_size t.params j in
          if t.storage < need then Error `Exhausted
          else begin
            t.storage <- t.storage - need;
            let pkg = Package.create t.alloc ~params:t.params ~level:j in
            t.hooks.on_package_event (Created pkg);
            emit t
              (Telemetry.Event.Package_created { ctrl = "central"; level = j; size = need });
            proc t ~u pkg ~d_w:d;
            Ok ()
          end)

let serve t op =
  let u = Workload.request_site t.tree op in
  let s = store t u in
  if Store.rejecting s then begin
    t.rejected <- t.rejected + 1;
    (u, Types.Rejected)
  end
  else if Store.static s > 0 then begin
    grant t u op;
    (u, Types.Granted)
  end
  else
    match climb t ~u u ~d:0 with
    | Ok () ->
        grant t u op;
        (u, Types.Granted)
    | Error `Exhausted -> (
        match t.reject_mode with
        | Types.Report -> (u, Types.Exhausted)
        | Types.Wave ->
            reject_wave t;
            t.rejected <- t.rejected + 1;
            (u, Types.Rejected))

let request t op =
  if not (Workload.valid_op t.tree op) then
    invalid_arg (Format.asprintf "Central.request: invalid op %a" Workload.pp_op op);
  match t.telemetry with
  | None ->
      let _, outcome = serve t op in
      outcome
  | Some sink ->
      incr t.ticks;
      let aid = !(t.ticks) in
      let moves_before = t.moves in
      (* Root a causal trace for the request when none is ambient, so the
         package/domain events [serve] emits — and the permit span below —
         share one trace id. (Under [Iterated]/[Adaptive] this same code
         runs as the inner controller; the distributed controllers never
         reach here, their chains root at [Net.schedule].) *)
      let rooted = Telemetry.Sink.current_span sink < 0 in
      if rooted then begin
        let id = Telemetry.Sink.fresh_id sink in
        Telemetry.Sink.set_ambient sink ~trace:id ~span:id
      end;
      let u, outcome = serve t op in
      let outcome_s = Types.outcome_name outcome in
      Telemetry.Sink.event sink ~time:aid
        (Telemetry.Event.Permit_span
           {
             ctrl = "central";
             node = u;
             aid;
             outcome = outcome_s;
             submitted = aid;
             latency = 0;
             moves = t.moves - moves_before;
           });
      if rooted then Telemetry.Sink.clear_ambient sink;
      outcome
