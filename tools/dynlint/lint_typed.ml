(* The typedtree pass: D7/D9/D11 over .cmt files.

   Where lint.ml works purely syntactically, these rules need types (is
   this captured value a Hashtbl.t?) and cross-module visibility (is this
   Rng.t another module's value?), so they read the .cmt files that
   `dune build @check` leaves under _build/**/.objs/byte/. D11's
   allocation checker lives in Lint_alloc; this driver collects its
   per-unit summaries over the same units and runs the verification once
   every unit is in.

   Path matching is by suffix on the normalized component list: a [Path.t]
   is flattened to its dotted components and every component is further
   split on "__", so [Pool.map], [Util.Pool.map] and the wrapped-library
   spelling [Mylib__Pool.map] all normalize to something ending in
   ["Pool"; "map"]. This keeps the rules working across wrapped and
   unwrapped libraries and across local module aliases. *)

open Typedtree

(* ---------- path and type normalization ---------- *)

(* "Mylib__Pool" -> ["Mylib"; "Pool"]; plain "zero_alloc" is untouched
   (only double underscores split). *)
let split_dunder s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if n = 0 then [ s ] else go [] 0 0

let rec path_components acc = function
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components (s :: acc) p
  | Path.Papply (p, _) -> path_components acc p
  | Path.Pextra_ty (p, _) -> path_components acc p

let norm_path p = List.concat_map split_dunder (path_components [] p)
let display_path p = String.concat "." (norm_path p)

let drop_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | c -> c

let ends_with ~suffix comps =
  let lc = List.length comps and ls = List.length suffix in
  lc >= ls
  &&
  let rec drop n l =
    if n = 0 then l else match l with _ :: t -> drop (n - 1) t | [] -> []
  in
  drop (lc - ls) comps = suffix

(* The parallel entry points whose closure arguments run on Pool domains. *)
let parallel_target p =
  let c = norm_path p in
  let hit m f = ends_with ~suffix:[ m; f ] c in
  if hit "Pool" "map" then Some "Pool.map"
  else if hit "Pool" "run" then Some "Pool.run"
  else if hit "Pool" "iter" then Some "Pool.iter"
  else if hit "Explore" "sweep" then Some "Explore.sweep"
  else None

(* Types whose values are mutable through their public API: sharing one
   across Pool domains is a race. "ref" is special-cased (its head is
   Stdlib.ref, not M.t). *)
let mutable_containers =
  [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Atomic"; "Net"; "Rng"; "Dtree"; "Metrics"; "Sink" ]

let mutable_type_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (drop_stdlib (norm_path p)) with
      | "ref" :: _ -> Some "ref"
      | "t" :: m :: _ when List.mem m mutable_containers -> Some (m ^ ".t")
      | _ -> None)
  | _ -> None

let is_rng_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      ends_with ~suffix:[ "Rng"; "t" ] (drop_stdlib (norm_path p))
  | _ -> false


(* ---------- D7: closure-capture analysis ---------- *)

(* Every ident bound anywhere inside the closure: function params, case
   patterns, let patterns, for-loop indices. A used ident NOT in this set
   is a capture from the enclosing scope. *)
let bound_idents_of_closure (e : expression) =
  let bound = Hashtbl.create 16 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> add id
          | Tpat_alias (_, id, _) -> add id
          | _ -> ());
          Tast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) -> add id
          | Texp_function { param; _ } -> add param
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  bound

let closure_findings ~target ~emit (closure : expression) =
  let bound = bound_idents_of_closure closure in
  let reported = Hashtbl.create 8 in
  let once key f = if not (Hashtbl.mem reported key) then (Hashtbl.replace reported key (); f ()) in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when not (Hashtbl.mem bound (Ident.unique_name id)) -> (
              match mutable_type_name e.exp_type with
              | Some ty ->
                  once (Ident.unique_name id) (fun () ->
                      emit Lint.Parallel_race e.exp_loc
                        (Printf.sprintf
                           "closure passed to %s captures mutable %s '%s' defined outside the closure; give each parallel task its own state and merge at join (-j N must stay byte-identical to -j 1)"
                           target ty (Ident.name id)))
              | None -> ())
          | Texp_ident ((Path.Pdot _ as p), _, _) -> (
              match mutable_type_name e.exp_type with
              | Some ty ->
                  let name = display_path p in
                  once name (fun () ->
                      emit Lint.Parallel_race e.exp_loc
                        (Printf.sprintf
                           "closure passed to %s reaches module-level mutable %s '%s'; module state is shared across every Pool domain"
                           target ty name))
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it closure

(* Pre-pass over one compilation unit: every let-bound ident, module- or
   expression-level, keyed by unique name (Ident stamps make shadowing
   unambiguous). The D7 call-site analysis chases these when a closure
   reaches a parallel entry point by name instead of literally. *)
let collect_value_binds (str : structure) =
  let binds = Hashtbl.create 64 in
  let add (vb : value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> Hashtbl.replace binds (Ident.unique_name id) vb.vb_expr
    | Tpat_alias (_, id, _) ->
        Hashtbl.replace binds (Ident.unique_name id) vb.vb_expr
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_let (_, vbs, _) -> List.iter add vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter add vbs
          | _ -> ());
          Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  binds

(* Find the outermost closures in an argument expression (the closure may
   sit under List.map, a tuple, a record, ...) and analyze each. Nested
   closures are covered by the outer analysis: anything they capture from
   outside the outermost closure is still a capture. When the argument is
   (or mentions) a local ident bound earlier — `let worker x = ... in
   Pool.map worker items` — the binding is chased and its closures are
   analyzed the same way; the visited set guards against cycles, and the
   chase is local-ident only (module-level functions from other units are
   out of reach of a single cmt). *)
let analyze_closures ~binds ~target ~emit (e : expression) =
  let visited = Hashtbl.create 8 in
  let rec go e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e' ->
            match e'.exp_desc with
            | Texp_function _ -> closure_findings ~target ~emit e'
            | Texp_ident (Path.Pident id, _, _) -> (
                let key = Ident.unique_name id in
                if not (Hashtbl.mem visited key) then begin
                  Hashtbl.add visited key ();
                  match Hashtbl.find_opt binds key with
                  | Some bound -> go bound
                  | None -> ()
                end)
            | _ -> Tast_iterator.default_iterator.expr self e');
      }
    in
    it.expr it e
  in
  go e

(* ---------- D9 ---------- *)

(* D9 part one: Rng.t bound at module level (top-level structure items and
   nested module structures — not expression-local bindings, which are
   exactly where an Rng *should* live). A binding whose own pattern says
   nothing about Rng can still smuggle a generator inside a record field
   or tuple slot of its value, so when the pattern is clean the defining
   expression is walked too — stopping at function boundaries, since a
   module-level *function* that creates a local generator is exactly the
   sanctioned shape. *)
let rec d9_structure ~emit (str : structure) =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let hit = ref false in
              d9_pattern ~emit:(fun r l m -> hit := true; emit r l m) vb.vb_pat;
              if not !hit then d9_smuggled ~emit vb)
            vbs
      | Tstr_module mb -> d9_module ~emit mb.mb_expr
      | Tstr_recmodule mbs -> List.iter (fun mb -> d9_module ~emit mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and d9_module ~emit (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure s -> d9_structure ~emit s
  | Tmod_constraint (me', _, _, _) -> d9_module ~emit me'
  | _ -> ()

and d9_pattern ~emit (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) when is_rng_type p.pat_type ->
      emit Lint.Rng_taint p.pat_loc
        (Printf.sprintf
           "module-level Rng.t '%s': every generator must flow from a function parameter or a local Rng.create ~seed, or replays stop being reproducible"
           (Ident.name id))
  | Tpat_alias (sub, id, _) ->
      if is_rng_type p.pat_type then
        emit Lint.Rng_taint p.pat_loc
          (Printf.sprintf
             "module-level Rng.t '%s': every generator must flow from a function parameter or a local Rng.create ~seed, or replays stop being reproducible"
             (Ident.name id))
      else d9_pattern ~emit sub
  | Tpat_tuple ps -> List.iter (d9_pattern ~emit) ps
  | Tpat_construct (_, _, ps, _) -> List.iter (d9_pattern ~emit) ps
  | _ -> ()

and d9_smuggled ~emit (vb : value_binding) =
  let name =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
    | _ -> "_"
  in
  let found = ref None in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_function _ -> ()
          | _ ->
              (match !found with
              | None when is_rng_type e.exp_type -> found := Some e.exp_loc
              | _ -> ());
              Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it vb.vb_expr;
  Option.iter
    (fun loc ->
      emit Lint.Rng_taint loc
        (Printf.sprintf
           "module-level value '%s' smuggles an Rng.t inside its structure (a record field or tuple slot); thread the generator through as a parameter instead"
           name))
    !found

(* One walk per structure: D7 at parallel call sites, D9 cross-module Rng
   reads, then D9's module-level bindings. *)
let scan_structure ~emit (str : structure) =
  let binds = collect_value_binds str in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match parallel_target p with
              | Some target ->
                  List.iter
                    (function
                      | _, Some arg -> analyze_closures ~binds ~target ~emit arg
                      | _, None -> ())
                    args
              | None -> ())
          | Texp_ident ((Path.Pdot _ as p), _, _) when is_rng_type e.exp_type ->
              emit Lint.Rng_taint e.exp_loc
                (Printf.sprintf
                   "Rng.t read from module-level value '%s'; thread the generator through as a parameter instead"
                   (display_path p))
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  d9_structure ~emit str

(* ---------- the pass driver over preloaded units ---------- *)

(* D7 and D9 over every unit. The caller loads the cmts once (Cmt_load)
   and shares the unit list — and the emitter — with the alloc pass. *)
let scan_units ~emitter units =
  let emit rule loc msg = Lint.emit emitter rule loc msg in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      (* Touch the source now so its inline allow sites register with the
         tracker even when the file is finding-free. *)
      ignore (Lint.emitter_touch_source emitter u.ui_source);
      scan_structure ~emit u.ui_str)
    units

(* D11 over the same units: harvest every [@@dynlint.zero_alloc] summary,
   then verify each checked one against the trusted table formed by all of
   them, so cross-module calls resolve whatever the scan order. *)
let alloc_units ~emitter units =
  let summaries =
    List.concat_map
      (fun (u : Cmt_load.unit_info) ->
        Lint_alloc.collect ~unit_name:u.ui_name u.ui_str)
      units
  in
  Lint_alloc.verify
    ~emit:(fun loc msg -> Lint.emit emitter Lint.Zero_alloc loc msg)
    summaries

let lint_cmt_files ?allow ?tracker ?source_root cmts =
  let units = Cmt_load.load_files cmts in
  let emitter = Lint.make_emitter ?allow ?tracker ?source_root () in
  scan_units ~emitter units;
  alloc_units ~emitter units;
  Lint.emitter_findings emitter

let lint_cmt_dirs ?allow ?tracker ?source_root dirs =
  lint_cmt_files ?allow ?tracker ?source_root (Cmt_load.collect_cmt_files dirs)
