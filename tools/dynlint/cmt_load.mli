(** Shared [.cmt] loading for the typed passes (D7, D9, D11).

    The driver reads each cmt exactly once and hands the same
    {!unit_info} list to every pass; the per-pass wall-time report in
    dynlint's summary line keeps the sharing honest. *)

type unit_info = {
  ui_name : string;
      (** unwrapped compilation unit name: ["Mylib__Net"] loads as ["Net"],
          matching how call sites spell cross-module references after path
          normalization *)
  ui_source : string;  (** workspace-relative source path from the cmt *)
  ui_str : Typedtree.structure;
}

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
