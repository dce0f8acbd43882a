(* The .cmt load for the typed pass (D11 alloc): the driver reads every
   cmt once into [unit_info] values, timed as its own "load" phase. *)

type unit_info = {
  ui_name : string;  (* unwrapped unit name: "Mylib__Net" -> "Net" *)
  ui_source : string;  (* workspace-relative source path from the cmt *)
  ui_str : Typedtree.structure;
}

(* "Mylib__Pool" -> ["Mylib"; "Pool"]; single underscores are untouched. *)
let split_dunder s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if n = 0 then [ s ] else go [] 0 0

let collect_cmt_files dirs =
  let acc = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun e ->
            let p = Filename.concat d e in
            if (try Sys.is_directory p with Sys_error _ -> false) then walk p
            else if Filename.check_suffix e ".cmt" then acc := p :: !acc)
          entries
  in
  List.iter
    (fun d ->
      if (try Sys.is_directory d with Sys_error _ -> false) then walk d
      else if Sys.file_exists d then acc := d :: !acc)
    dirs;
  List.rev !acc

let load_files cmts =
  let seen_sources = Hashtbl.create 16 in
  List.filter_map
    (fun cmt ->
      match Cmt_format.read_cmt cmt with
      | exception _ -> None
      | info -> (
          match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
          | Cmt_format.Implementation str, Some src
            when Filename.check_suffix src ".ml"
                 && not (Hashtbl.mem seen_sources src) ->
              Hashtbl.replace seen_sources src ();
              let ui_name =
                match List.rev (split_dunder info.Cmt_format.cmt_modname) with
                | last :: _ -> last
                | [] -> info.Cmt_format.cmt_modname
              in
              Some { ui_name; ui_source = src; ui_str = str }
          | _ -> None))
    cmts

let load_dirs dirs = load_files (collect_cmt_files dirs)
