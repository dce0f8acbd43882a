(** [.cmt] loading for the typed pass (D11, {!Lint_alloc}).

    The driver reads each cmt exactly once into a {!unit_info} list; the
    [load] entry of dynlint's per-pass wall-time report measures it. *)

type unit_info = {
  ui_name : string;
      (** unwrapped compilation unit name: ["Mylib__Net"] loads as ["Net"],
          matching how call sites spell cross-module references after path
          normalization *)
  ui_source : string;  (** workspace-relative source path from the cmt *)
  ui_str : Typedtree.structure;
}

val split_dunder : string -> string list
(** ["Mylib__Pool"] is [["Mylib"; "Pool"]]: split on double underscores
    only, so ["zero_alloc"] is untouched. Unwraps the module names of
    wrapped libraries. *)

val collect_cmt_files : string list -> string list
(** Walk the given directories (including hidden ones — cmts live under
    [.objs]) and return every [*.cmt] path in sorted order. A path that is
    itself a [.cmt] file is returned as-is; unreadable directories are
    skipped. *)

val load_files : string list -> unit_info list
(** Read the given [.cmt] files. Units are deduplicated by source file;
    interfaces, packed modules and unreadable cmts are skipped. *)

val load_dirs : string list -> unit_info list
(** {!collect_cmt_files} composed with {!load_files}. *)
