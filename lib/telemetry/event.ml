type addr = Exact of int | Parent_of of int

type ctx = { trace : int; span : int; parent : int }

(* Shared constant: the no-causality context. Layers running without a sink
   store this directly (no per-message allocation). *)
let no_ctx = { trace = -1; span = -1; parent = -1 }

let has_ctx c = c.trace >= 0

type kind =
  | Sched of { discipline : string }
  | Send of { src : int; addr : addr; tag : string; bits : int }
  | Deliver of {
      src : int;
      dst : int;
      tag : string;
      seq : int;
      forwarded : bool;
      reordered : bool;
    }
  | Permit_span of {
      ctrl : string;
      node : int;
      aid : int;
      outcome : string;
      submitted : int;
      latency : int;
      moves : int;
    }
  | Package_created of { ctrl : string; level : int; size : int }
  | Package_split of { ctrl : string; level : int }
  | Package_static of { ctrl : string; node : int; size : int }
  | Package_join of { ctrl : string; from_ : int; to_ : int }
  | Domain_assign of { level : int; size : int }
  | Domain_resize of { level : int; size : int }
  | Domain_cancel of { level : int }
  | Reject_wave of { ctrl : string; node : int }
  | Epoch of { ctrl : string; epoch : int; n : int }
  | Estimate of { ctrl : string; node : int; value : int; truth : int }
  | Phase of {
      name : string;
      count : int;
      alloc_bytes : int;
      minor : int;
      major : int;
      top_heap_words : int;
      wall_ns : int;
    }
  | Custom of { name : string; value : int }

type t = { time : int; ctx : ctx; kind : kind }

(* The one renderer: each field goes straight into [buf], keys being
   constant strings that carry their own separator. *)
let int buf key v =
  Buffer.add_string buf key;
  Json.add_int buf v

let str buf key s =
  Buffer.add_string buf key;
  Json.add_string buf s

let bool buf key b =
  Buffer.add_string buf key;
  Buffer.add_string buf (if b then "true" else "false")

let add_line buf { time; ctx; kind } =
  int buf "{\"time\":" time;
  (* Causality fields only appear on events that carry a context, so traces
     from un-instrumented layers (and pre-causality traces) stay compact and
     re-readable: [of_json] defaults every absent field to -1. *)
  if has_ctx ctx then begin
    int buf ",\"trace\":" ctx.trace;
    int buf ",\"span\":" ctx.span;
    if ctx.parent >= 0 then int buf ",\"parent\":" ctx.parent
  end;
  (match kind with
  | Sched { discipline } ->
      Buffer.add_string buf ",\"ev\":\"sched\"";
      str buf ",\"discipline\":" discipline
  | Send { src; addr; tag; bits } ->
      Buffer.add_string buf ",\"ev\":\"send\"";
      int buf ",\"src\":" src;
      (match addr with
      | Exact v ->
          int buf ",\"dst\":" v;
          Buffer.add_string buf ",\"dst_kind\":\"exact\""
      | Parent_of v ->
          int buf ",\"dst\":" v;
          Buffer.add_string buf ",\"dst_kind\":\"parent_of\"");
      str buf ",\"tag\":" tag;
      int buf ",\"bits\":" bits
  | Deliver { src; dst; tag; seq; forwarded; reordered } ->
      Buffer.add_string buf ",\"ev\":\"deliver\"";
      int buf ",\"src\":" src;
      int buf ",\"dst\":" dst;
      str buf ",\"tag\":" tag;
      int buf ",\"seq\":" seq;
      bool buf ",\"forwarded\":" forwarded;
      bool buf ",\"reordered\":" reordered
  | Permit_span { ctrl; node; aid; outcome; submitted; latency; moves } ->
      Buffer.add_string buf ",\"ev\":\"permit_span\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"node\":" node;
      int buf ",\"aid\":" aid;
      str buf ",\"outcome\":" outcome;
      int buf ",\"submitted\":" submitted;
      int buf ",\"latency\":" latency;
      if moves <> 0 then int buf ",\"moves\":" moves
  | Package_created { ctrl; level; size } ->
      Buffer.add_string buf ",\"ev\":\"pkg_created\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"level\":" level;
      int buf ",\"size\":" size
  | Package_split { ctrl; level } ->
      Buffer.add_string buf ",\"ev\":\"pkg_split\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"level\":" level
  | Package_static { ctrl; node; size } ->
      Buffer.add_string buf ",\"ev\":\"pkg_static\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"node\":" node;
      int buf ",\"size\":" size
  | Package_join { ctrl; from_; to_ } ->
      Buffer.add_string buf ",\"ev\":\"pkg_join\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"from\":" from_;
      int buf ",\"to\":" to_
  | Domain_assign { level; size } ->
      Buffer.add_string buf ",\"ev\":\"dom_assign\"";
      int buf ",\"level\":" level;
      int buf ",\"size\":" size
  | Domain_resize { level; size } ->
      Buffer.add_string buf ",\"ev\":\"dom_resize\"";
      int buf ",\"level\":" level;
      int buf ",\"size\":" size
  | Domain_cancel { level } ->
      Buffer.add_string buf ",\"ev\":\"dom_cancel\"";
      int buf ",\"level\":" level
  | Reject_wave { ctrl; node } ->
      Buffer.add_string buf ",\"ev\":\"reject_wave\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"node\":" node
  | Epoch { ctrl; epoch; n } ->
      Buffer.add_string buf ",\"ev\":\"epoch\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"epoch\":" epoch;
      int buf ",\"n\":" n
  | Estimate { ctrl; node; value; truth } ->
      Buffer.add_string buf ",\"ev\":\"estimate\"";
      str buf ",\"ctrl\":" ctrl;
      int buf ",\"node\":" node;
      int buf ",\"value\":" value;
      int buf ",\"truth\":" truth
  | Phase { name; count; alloc_bytes; minor; major; top_heap_words; wall_ns } ->
      Buffer.add_string buf ",\"ev\":\"phase\"";
      str buf ",\"name\":" name;
      int buf ",\"count\":" count;
      int buf ",\"alloc_bytes\":" alloc_bytes;
      int buf ",\"minor\":" minor;
      int buf ",\"major\":" major;
      int buf ",\"top_heap_words\":" top_heap_words;
      int buf ",\"wall_ns\":" wall_ns
  | Custom { name; value } ->
      Buffer.add_string buf ",\"ev\":\"custom\"";
      str buf ",\"name\":" name;
      int buf ",\"value\":" value);
  Buffer.add_char buf '}'

let to_line e =
  let buf = Buffer.create 160 in
  add_line buf e;
  Buffer.contents buf

let to_json e = Json.of_string (to_line e)

let of_json j =
  let open Json in
  let time = to_int (member "time" j) in
  let int k = to_int (member k j) in
  let str k = to_str (member k j) in
  let opt_int ?(absent = -1) k =
    match member k j with Null -> absent | v -> to_int v
  in
  let ctx =
    match opt_int "trace" with
    | -1 -> no_ctx
    | trace -> { trace; span = opt_int "span"; parent = opt_int "parent" }
  in
  let kind =
    match str "ev" with
    | "sched" -> Sched { discipline = str "discipline" }
    | "send" ->
        let addr =
          match str "dst_kind" with
          | "exact" -> Exact (int "dst")
          | "parent_of" -> Parent_of (int "dst")
          | s -> failwith ("Event.of_json: bad dst_kind " ^ s)
        in
        Send { src = int "src"; addr; tag = str "tag"; bits = int "bits" }
    | "deliver" ->
        Deliver
          {
            src = int "src";
            dst = int "dst";
            tag = str "tag";
            seq = int "seq";
            forwarded = to_bool (member "forwarded" j);
            reordered = to_bool (member "reordered" j);
          }
    | "permit_span" ->
        Permit_span
          {
            ctrl = str "ctrl";
            node = int "node";
            aid = int "aid";
            outcome = str "outcome";
            submitted = int "submitted";
            latency = int "latency";
            moves = opt_int ~absent:0 "moves";
          }
    | "pkg_created" ->
        Package_created { ctrl = str "ctrl"; level = int "level"; size = int "size" }
    | "pkg_split" -> Package_split { ctrl = str "ctrl"; level = int "level" }
    | "pkg_static" ->
        Package_static { ctrl = str "ctrl"; node = int "node"; size = int "size" }
    | "pkg_join" -> Package_join { ctrl = str "ctrl"; from_ = int "from"; to_ = int "to" }
    | "dom_assign" -> Domain_assign { level = int "level"; size = int "size" }
    | "dom_resize" -> Domain_resize { level = int "level"; size = int "size" }
    | "dom_cancel" -> Domain_cancel { level = int "level" }
    | "reject_wave" -> Reject_wave { ctrl = str "ctrl"; node = int "node" }
    | "epoch" -> Epoch { ctrl = str "ctrl"; epoch = int "epoch"; n = int "n" }
    | "estimate" ->
        Estimate
          { ctrl = str "ctrl"; node = int "node"; value = int "value"; truth = int "truth" }
    | "phase" ->
        Phase
          {
            name = str "name";
            count = int "count";
            alloc_bytes = int "alloc_bytes";
            minor = int "minor";
            major = int "major";
            top_heap_words = int "top_heap_words";
            wall_ns = int "wall_ns";
          }
    | "custom" -> Custom { name = str "name"; value = int "value" }
    | s -> failwith ("Event.of_json: unknown event kind " ^ s)
  in
  { time; ctx; kind }

let of_line s = of_json (Json.of_string s)
let pp ppf e = Format.pp_print_string ppf (to_line e)
