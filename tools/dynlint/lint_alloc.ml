(* D11 zero-alloc: conservative allocation-freeness verification.

   A function annotated [@@dynlint.zero_alloc] is walked over its typedtree
   body and every construct that allocates on a *non-raising* path is
   reported: closure creation, tuple/record/array/variant-with-payload
   construction, [ref], boxed-float results, partial application,
   polymorphic compare, and calls into functions that are neither
   whitelisted primitives nor themselves annotated (check or assume).

   The analysis mirrors what the compiler actually does to the hot paths
   it guards, so idiomatic allocation-free OCaml verifies without
   contortions:

   - Branches that always raise ([invalid_arg]/[failwith]/[raise]/
     [assert false]) are skipped entirely — precondition guards may build
     their error message however they like, matching the semantics of the
     compiler's own [@zero_alloc] attribute (default, non-strict mode).
   - [let r = ref e in ...] where every use of [r] is [!r], [r := x],
     [incr r] or [decr r] — and none sits under an inner closure — is
     accepted: [Simplif.eliminate_ref] compiles exactly that shape to a
     mutable stack slot, so the loop counters all over the arena code cost
     nothing.
   - A literal closure with no free variables ([fun n _ -> n + 1]) is a
     static constant, not a per-call allocation; its body is still held to
     the zero-alloc standard, because callbacks handed to [iter]/[fold]
     run inside the annotated extent.
   - The curried parameter spine is stripped through nested single-case
     functions and through the [#default] lets the typechecker inserts for
     optional arguments: the compiler collapses both into one multi-arity
     function (verified against -dlambda), so neither costs a closure.
   - Constant structured literals ([None], [(1, 2)], ['a', "x"]) are
     static data.  String and float literals likewise: OCaml allocates
     them once at link time, not per evaluation.

   What D11 deliberately does NOT prove: calls through function-typed
   *values* (parameters, record fields holding continuations) are exempt —
   the provider of the value owns its allocation behaviour. That is the
   same contract as [Dtree.iter_children ~f]: D11 proves the traversal
   free, the call site proves its callback.

   Interprocedural reasoning is two-tier. Same-unit callees reached by
   ident are chased and verified inline (memoized, cycle-safe); a chased
   callee that allocates is reported at the *call site* inside the
   annotated function, so a justified exception ([acquire]'s pool-miss
   path) is one inline allow comment at that call. Cross-module callees
   are looked up in the summary table built from every scanned cmt, keyed
   (unit, value-name); anything not found there is flagged.
   [@@dynlint.zero_alloc assume] enters the table without verification,
   the escape hatch for externals and wrappers the checker cannot see
   into. *)

open Typedtree

(* ---------- path normalization ---------- *)

(* A [Path.t] flattened to its dotted components, each further split on
   "__", so [Net.send] and the wrapped-library spelling [Simnet__Net.send]
   both end in ["Net"; "send"]. *)
let rec path_components acc = function
  | Path.Pident id -> Ident.name id :: acc
  | Path.Pdot (p, s) -> path_components (s :: acc) p
  | Path.Papply (p, _) -> path_components acc p
  | Path.Pextra_ty (p, _) -> path_components acc p

let norm_path p = List.concat_map Cmt_load.split_dunder (path_components [] p)
let drop_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | c -> c

(* ---------- classification tables ---------- *)

(* Primitives that never allocate: array/bytes/string indexing, integer
   and boolean arithmetic, comparisons (caml_compare returns an immediate),
   ref cell access, int-keyed hashtable reads. Everything else is guilty
   until annotated. *)
let no_alloc_prims =
  [
    [ "Array"; "length" ]; [ "Array"; "get" ]; [ "Array"; "set" ];
    [ "Array"; "unsafe_get" ]; [ "Array"; "unsafe_set" ];
    [ "Array"; "blit" ]; [ "Array"; "fill" ];
    [ "Bytes"; "length" ]; [ "Bytes"; "get" ]; [ "Bytes"; "set" ];
    [ "Bytes"; "unsafe_get" ]; [ "Bytes"; "unsafe_set" ];
    [ "Bytes"; "blit" ]; [ "Bytes"; "fill" ];
    [ "Bytes"; "unsafe_blit" ]; [ "Bytes"; "unsafe_fill" ];
    [ "String"; "length" ]; [ "String"; "get" ]; [ "String"; "unsafe_get" ];
    [ "Char"; "code" ]; [ "Char"; "chr" ]; [ "Char"; "unsafe_chr" ];
    [ "Int"; "compare" ]; [ "Int"; "equal" ]; [ "Int"; "min" ];
    [ "Int"; "max" ]; [ "Int"; "abs" ];
    [ "Hashtbl"; "find" ]; [ "Hashtbl"; "mem" ]; [ "Hashtbl"; "length" ];
    [ "Hashtbl"; "remove" ];
    [ "+" ]; [ "-" ]; [ "*" ]; [ "/" ]; [ "mod" ]; [ "land" ]; [ "lor" ];
    [ "lxor" ]; [ "lnot" ]; [ "lsl" ]; [ "lsr" ]; [ "asr" ];
    [ "succ" ]; [ "pred" ]; [ "abs" ]; [ "not" ]; [ "&&" ]; [ "||" ];
    [ "~-" ]; [ "~+" ];
    [ "=" ]; [ "<>" ]; [ "<" ]; [ ">" ]; [ "<=" ]; [ ">=" ];
    [ "==" ]; [ "!=" ];
    [ "!" ]; [ ":=" ]; [ "incr" ]; [ "decr" ]; [ "ignore" ];
    [ "fst" ]; [ "snd" ]; [ "raise" ]; [ "raise_notrace" ];
  ]

(* Polymorphic compare dispatches on runtime representation; besides being
   a D3 concern it is banned here outright — zero-alloc code compares
   through monomorphic primitives whose cost is visible. *)
let poly_compare_heads =
  [ [ "compare" ]; [ "min" ]; [ "max" ]; [ "Hashtbl"; "hash" ] ]

let apply_operators = [ [ "@@" ]; [ "|>" ] ]

let raising_heads =
  [ [ "invalid_arg" ]; [ "failwith" ]; [ "raise" ]; [ "raise_notrace" ];
    [ "exit" ] ]

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> drop_stdlib (norm_path p) = [ "float" ]
  | _ -> false

let is_arrow_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Branches that can only raise are exempt from the allocation discipline:
   the error path may format its message; the steady state never runs it. *)
let rec always_raises e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (drop_stdlib (norm_path p)) raising_heads
  | Texp_assert
      ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
    ->
      true
  | Texp_sequence (_, e2) | Texp_let (_, _, e2) | Texp_open (_, e2) ->
      always_raises e2
  | Texp_ifthenelse (_, t, Some f) -> always_raises t && always_raises f
  | Texp_unreachable -> true
  | _ -> false

(* Constant constructors and fully-constant structured literals are static
   data, shared across evaluations. (Mutable arrays are never static.) *)
let rec is_static e =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, args) -> List.for_all is_static args
  | Texp_tuple es -> List.for_all is_static es
  | Texp_variant (_, arg) -> (
      match arg with None -> true | Some a -> is_static a)
  | _ -> false

(* ---------- the [@@dynlint.zero_alloc] attribute ---------- *)

let zero_alloc_attr = "dynlint.zero_alloc"

type mode = Check | Assume

let attr_mode (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if a.attr_name.txt <> zero_alloc_attr then acc
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_ident { txt = Longident.Lident "assume"; _ };
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            Some Assume
        | _ -> Some Check)
    None attrs

(* ---------- summaries ---------- *)

type summary = {
  s_unit : string;  (* compilation unit, unwrapped: "Net", "Dtree", ... *)
  s_name : string;  (* value name *)
  s_mode : mode;
  s_expr : expression option;  (* None for externals (always assume) *)
  s_binds : (string, expression) Hashtbl.t;  (* unit's let-bound idents *)
  s_verdicts : (string, verdict) Hashtbl.t;  (* per-unit local-chase memo *)
  s_loc : Location.t;
}

and verdict =
  | V_in_progress
  | V_ok
  | V_bad of string  (* one-line reason: "file:line: what allocates" *)

(* Every let-bound ident in the unit, module- and expression-level, keyed
   by unique name (Ident stamps make shadowing unambiguous). *)
let collect_value_binds (str : structure) =
  let binds = Hashtbl.create 64 in
  let add (vb : value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
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

let collect ~unit_name (str : structure) =
  let binds = collect_value_binds str in
  let verdicts = Hashtbl.create 32 in
  let summaries = ref [] in
  let add_value (vb : value_binding) =
    match attr_mode vb.vb_attributes with
    | None -> ()
    | Some mode ->
        let name =
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
          | _ -> "_"
        in
        summaries :=
          {
            s_unit = unit_name;
            s_name = name;
            s_mode = mode;
            s_expr = Some vb.vb_expr;
            s_binds = binds;
            s_verdicts = verdicts;
            s_loc = vb.vb_pat.pat_loc;
          }
          :: !summaries
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_let (_, vbs, _) -> List.iter add_value vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
      structure_item =
        (fun self item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter add_value vbs
          | Tstr_primitive vd -> (
              (* an external has no body to verify: any zero_alloc
                 annotation on it is an assumption by construction *)
              match attr_mode vd.val_attributes with
              | Some _ ->
                  summaries :=
                    {
                      s_unit = unit_name;
                      s_name = vd.val_name.txt;
                      s_mode = Assume;
                      s_expr = None;
                      s_binds = binds;
                      s_verdicts = verdicts;
                      s_loc = vd.val_loc;
                    }
                    :: !summaries
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  List.rev !summaries

(* ---------- eliminable refs ---------- *)

let deref_ops = [ [ "!" ]; [ ":=" ]; [ "incr" ]; [ "decr" ] ]

let is_ref_apply e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some init) ])
    when drop_stdlib (norm_path p) = [ "ref" ] ->
      Some init
  | _ -> None

let ident_occurs key e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when Ident.unique_name id = key ->
              found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* [let r = ref e in body] compiles to a stack slot (Simplif.eliminate_ref)
   exactly when every use of [r] in [body] is a direct [!]/[:=]/[incr]/
   [decr] and none is captured by an inner function. *)
let ref_eliminable key body =
  let ok = ref true in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when Ident.unique_name id = key ->
              ok := false
          | Texp_function _ -> if ident_occurs key e then ok := false
          | Texp_apply
              ( { exp_desc = Texp_ident (p, _, _); _ },
                (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ })
                :: rest )
            when Ident.unique_name id = key
                 && List.mem (drop_stdlib (norm_path p)) deref_ops ->
              List.iter
                (function _, Some a -> self.expr self a | _, None -> ())
                rest
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body;
  !ok

(* ---------- free variables of a literal closure ---------- *)

let bound_idents_within (e : expression) =
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

(* Free idents of a closure: same-unit [Pident] references not bound inside
   it. Cross-module [Pdot] references resolve through the module block, not
   the closure environment, so they never force a capture. *)
let free_idents (e : expression) =
  let bound = bound_idents_within e in
  let free = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when not (Hashtbl.mem bound (Ident.unique_name id)) ->
              let n = Ident.name id in
              if not (List.mem n !free) then free := n :: !free
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  List.rev !free

(* ---------- the verification walk ---------- *)

type vctx = {
  emit : Location.t -> string -> unit;
  proven : (string * string, unit) Hashtbl.t;  (* (unit, name) annotated *)
  binds : (string, expression) Hashtbl.t;
  verdicts : (string, verdict) Hashtbl.t;
  unit_name : string;  (* compilation unit being verified *)
  owner : string;  (* "Unit.fn" being verified, for message context *)
}

let short_loc (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let callee_trusted vctx comps =
  match List.rev comps with
  | f :: m :: _ -> Hashtbl.mem vctx.proven (m, f)
  | [ f ] -> Hashtbl.mem vctx.proven (vctx.unit_name, f)
  | [] -> false

let in_owner vctx base = Printf.sprintf "%s (in zero-alloc %s)" base vctx.owner

let rec check_body vctx e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
      check_body vctx c_rhs
  | Texp_function { cases; _ } ->
      (* a multi-case [function] is the spine's last parameter plus a
         match; its arm bodies are function bodies *)
      List.iter
        (fun c ->
          Option.iter (check_expr vctx) c.c_guard;
          check_expr vctx c.c_rhs)
        cases
  | Texp_let
      ( Nonrecursive,
        [
          ({
             vb_expr =
               {
                 exp_desc =
                   Texp_match
                     ({ exp_desc = Texp_ident (Path.Pident opt, _, _); _ }, _, _);
                 _;
               };
             _;
           } as vb);
        ],
        body )
    when Ident.name opt = "*opt*" ->
      (* the typechecker's optional-argument elaboration (the [?p] layer
         binds an ident literally named "*opt*" and the inserted let
         matches on it): the compiler collapses this into the enclosing
         function's arity, no closure — but the default expression itself
         evaluates per omitted-argument call, so the match is still
         walked *)
      check_expr vctx vb.vb_expr;
      check_body vctx body
  | _ -> check_expr vctx e

and check_expr vctx e =
  if always_raises e then ()
  else
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ | Texp_unreachable -> ()
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, is_ref_apply vb.vb_expr) with
            | Tpat_var (id, _), Some init ->
                check_expr vctx init;
                if not (ref_eliminable (Ident.unique_name id) body) then
                  vctx.emit vb.vb_expr.exp_loc
                    (in_owner vctx
                       (Printf.sprintf
                          "ref cell '%s' escapes direct !/:=/incr/decr use \
                           (or is captured by a closure), so it is a real \
                           heap allocation"
                          (Ident.name id)))
            | _ -> check_expr vctx vb.vb_expr)
          vbs;
        check_expr vctx body
    | Texp_function _ ->
        (match free_idents e with
        | [] -> ()  (* no free variables: a static, closed function *)
        | names ->
            vctx.emit e.exp_loc
              (in_owner vctx
                 (Printf.sprintf
                    "closure capturing %s allocates at every evaluation; \
                     hoist it or pass the state as arguments"
                    (String.concat ", "
                       (List.map (fun n -> "'" ^ n ^ "'") names)))));
        (* callbacks run inside the annotated extent: hold the body to the
           same standard regardless of capture *)
        check_body vctx e
    | Texp_apply (fn, args) ->
        (* [None] args are omitted optionals at a total application — the
           compiler passes the immediate [None] constant, no allocation.
           A supplied optional wraps its value in [Some] right here in the
           typedtree, so a non-constant optional argument is caught by the
           ordinary constructor rule when the args are walked. *)
        List.iter
          (function _, Some a -> check_expr vctx a | _, None -> ())
          args;
        if is_arrow_ty e.exp_type then
          vctx.emit e.exp_loc
            (in_owner vctx
               "partial application allocates a closure for the remaining \
                parameters; apply fully or eta-expand at definition site");
        check_callee vctx e fn
    | Texp_match (scrut, cases, _) ->
        check_expr vctx scrut;
        List.iter
          (fun c ->
            Option.iter (check_expr vctx) c.c_guard;
            check_expr vctx c.c_rhs)
          cases
    | Texp_try (body, cases) ->
        check_expr vctx body;
        List.iter
          (fun c ->
            Option.iter (check_expr vctx) c.c_guard;
            check_expr vctx c.c_rhs)
          cases
    | Texp_tuple es ->
        if not (is_static e) then
          vctx.emit e.exp_loc
            (in_owner vctx
               "tuple construction allocates; return components through \
                mutable fields or separate calls");
        List.iter (check_expr vctx) es
    | Texp_construct (_, cd, args) ->
        if args <> [] && not (is_static e) then
          vctx.emit e.exp_loc
            (in_owner vctx
               (Printf.sprintf "constructor %s with payload allocates a block"
                  cd.cstr_name));
        List.iter (check_expr vctx) args
    | Texp_variant (_, arg) ->
        if not (is_static e) then
          vctx.emit e.exp_loc
            (in_owner vctx "polymorphic variant with payload allocates");
        Option.iter (check_expr vctx) arg
    | Texp_record { fields; extended_expression; _ } ->
        vctx.emit e.exp_loc
          (in_owner vctx
             "record literal allocates; reuse a pooled record and set its \
              fields");
        Array.iter
          (fun (_, def) ->
            match def with
            | Overridden (_, fe) -> check_expr vctx fe
            | Kept _ -> ())
          fields;
        Option.iter (check_expr vctx) extended_expression
    | Texp_field (r, _, ld) ->
        check_expr vctx r;
        (match ld.lbl_repres with
        | Types.Record_float ->
            vctx.emit e.exp_loc
              (in_owner vctx
                 (Printf.sprintf
                    "reading float field '%s' from a flat float record \
                     boxes the value"
                    ld.lbl_name))
        | _ -> ())
    | Texp_setfield (r, _, _, v) ->
        check_expr vctx r;
        check_expr vctx v
    | Texp_array es ->
        if es <> [] then
          vctx.emit e.exp_loc
            (in_owner vctx "array literal allocates a fresh array");
        List.iter (check_expr vctx) es
    | Texp_ifthenelse (c, t, f) ->
        check_expr vctx c;
        check_expr vctx t;
        Option.iter (check_expr vctx) f
    | Texp_sequence (a, b) ->
        check_expr vctx a;
        check_expr vctx b
    | Texp_while (c, b) ->
        check_expr vctx c;
        check_expr vctx b
    | Texp_for (_, _, lo, hi, _, body) ->
        check_expr vctx lo;
        check_expr vctx hi;
        check_expr vctx body
    | Texp_assert (cond, _) -> check_expr vctx cond
    | Texp_lazy _ ->
        vctx.emit e.exp_loc (in_owner vctx "lazy suspension allocates a thunk")
    | Texp_open (_, body) -> check_expr vctx body
    | Texp_letmodule (_, _, _, _, body) ->
        vctx.emit e.exp_loc
          (in_owner vctx "local module expression allocates its block");
        check_expr vctx body
    | Texp_send _ | Texp_new _ | Texp_instvar _ | Texp_setinstvar _
    | Texp_override _ | Texp_letexception _ | Texp_object _ | Texp_pack _
    | Texp_letop _ | Texp_extension_constructor _ ->
        vctx.emit e.exp_loc
          (in_owner vctx
             "construct the checker assumes allocates (objects, first-class \
              modules, let-operators); restructure or add an allow")

(* The callee of an application. Function-typed *values* (parameters,
   stored continuations) are exempt: their allocation behaviour belongs to
   whoever supplied them. Named functions must be whitelisted primitives,
   chased same-unit bindings, or cross-module annotated functions. *)
and check_callee vctx app fn =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
      let comps = drop_stdlib (norm_path p) in
      if is_float_ty app.exp_type && not (callee_trusted vctx comps) then
        vctx.emit app.exp_loc
          (in_owner vctx
             (Printf.sprintf
                "call of %s returns float: the result is boxed on every call"
                (String.concat "." comps)))
      else
        match p with
        | Path.Pident id
          when Hashtbl.mem vctx.proven (vctx.unit_name, Ident.name id) ->
            (* a same-unit annotated function: verified on its own (with
               its own allows), so callers take it on trust *)
            ()
        | Path.Pident id -> (
            let key = Ident.unique_name id in
            match Hashtbl.find_opt vctx.binds key with
            | Some bound -> (
                match chase_local vctx key bound with
                | V_ok | V_in_progress -> ()
                | V_bad reason ->
                    vctx.emit app.exp_loc
                      (in_owner vctx
                         (Printf.sprintf "calls '%s', which allocates (%s)"
                            (Ident.name id) reason)))
            | None -> ()  (* parameter / match-bound: caller's contract *))
        | _ ->
            if List.mem comps apply_operators then
              vctx.emit app.exp_loc
                (in_owner vctx
                   "@@/|> hides the callee from the zero-alloc checker; \
                    call the function directly")
            else if List.mem comps no_alloc_prims then ()
            else if List.mem comps poly_compare_heads then
              vctx.emit app.exp_loc
                (in_owner vctx
                   (Printf.sprintf
                      "polymorphic %s dispatches on runtime representation; \
                       use the monomorphic Int/String equivalent"
                      (String.concat "." comps)))
            else if comps = [ "ref" ] then
              vctx.emit app.exp_loc
                (in_owner vctx "ref allocates a mutable cell on the heap")
            else if not (callee_trusted vctx comps) then
              vctx.emit app.exp_loc
                (in_owner vctx
                   (Printf.sprintf
                      "call into %s, which is neither a no-alloc primitive \
                       nor annotated [@@dynlint.zero_alloc] (or assume) in \
                       any scanned unit"
                      (String.concat "." comps))))
  | _ ->
      vctx.emit app.exp_loc
        (in_owner vctx
           "call through a computed function expression; bind the callee \
            to a name so the checker can follow it")

(* Verify a same-unit let-bound callee once, memoized. Allocations found in
   its body surface at the annotated call site (via V_bad), so a justified
   exception is one allow comment at the call — the callee itself stays
   unannotated. *)
and chase_local vctx key bound =
  match Hashtbl.find_opt vctx.verdicts key with
  | Some v -> v
  | None ->
      Hashtbl.replace vctx.verdicts key V_in_progress;
      let collected = ref [] in
      let sub =
        { vctx with emit = (fun loc msg -> collected := (loc, msg) :: !collected) }
      in
      (match bound.exp_desc with
      | Texp_function _ -> check_body sub bound
      | Texp_ident (p, _, _) -> (
          (* alias: resolve one step *)
          let comps = drop_stdlib (norm_path p) in
          match p with
          | Path.Pident id' -> (
              let key' = Ident.unique_name id' in
              match Hashtbl.find_opt vctx.binds key' with
              | Some bound' -> (
                  match chase_local vctx key' bound' with
                  | V_bad r -> collected := (bound.exp_loc, r) :: !collected
                  | V_ok | V_in_progress -> ())
              | None -> ())
          | _ ->
              if
                not
                  (List.mem comps no_alloc_prims
                  || callee_trusted vctx comps)
              then
                collected :=
                  ( bound.exp_loc,
                    Printf.sprintf "aliases unproven %s"
                      (String.concat "." comps) )
                  :: !collected)
      | _ -> ()  (* a non-function value called later: exempt, see above *));
      let v =
        match List.rev !collected with
        | [] -> V_ok
        | (loc, msg) :: _ -> V_bad (Printf.sprintf "%s: %s" (short_loc loc) msg)
      in
      Hashtbl.replace vctx.verdicts key v;
      v

(* ---------- driver ---------- *)

(* Second sweep: verify every [check]-mode summary against the trusted
   table formed by all summaries, check and assume alike. *)
let verify ~emit summaries =
  let proven = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace proven (s.s_unit, s.s_name) ())
    summaries;
  List.iter
    (fun s ->
      match (s.s_mode, s.s_expr) with
      | Assume, _ | _, None -> ()
      | Check, Some body ->
          let vctx =
            {
              emit;
              proven;
              binds = s.s_binds;
              verdicts = s.s_verdicts;
              unit_name = s.s_unit;
              owner = s.s_unit ^ "." ^ s.s_name;
            }
          in
          check_body vctx body)
    summaries

(* Harvest every unit's summaries first, then verify, so cross-module
   calls resolve whatever the scan order. Every unit's source is touched
   up front so its inline allow sites register with the tracker even when
   the file is finding-free. *)
let check_units ~emitter units =
  let summaries =
    List.concat_map
      (fun (u : Cmt_load.unit_info) ->
        ignore (Lint.emitter_touch_source emitter u.ui_source);
        collect ~unit_name:u.ui_name u.ui_str)
      units
  in
  verify
    ~emit:(fun loc msg -> Lint.emit emitter Lint.Zero_alloc loc msg)
    summaries

let lint_cmt_files ?allow ?tracker ?source_root cmts =
  let emitter = Lint.make_emitter ?allow ?tracker ?source_root () in
  check_units ~emitter (Cmt_load.load_files cmts);
  Lint.emitter_findings emitter

let lint_cmt_dirs ?allow ?tracker ?source_root dirs =
  lint_cmt_files ?allow ?tracker ?source_root (Cmt_load.collect_cmt_files dirs)
