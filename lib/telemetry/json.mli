(** A minimal JSON value type with a compact printer and a strict parser.

    The telemetry layer emits and re-reads its own traces (JSONL: one value
    per line), so only the constructs it produces are supported: objects,
    arrays, strings with the standard escapes, booleans, [null], and
    numbers. Integers survive a round-trip exactly ([Int] is kept apart from
    [Float]); anything with a fraction or exponent parses as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no spaces) rendering; object fields keep their
    given order. *)

val add_string : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string literal. Escapes the double
    quote, the backslash, newline, carriage return and tab by name and the
    other bytes below 0x20 as [\u00XX]; every other byte, DEL and UTF-8
    included, passes through. A string that needs no escape is copied in
    one blit. The only string escaper: {!to_string} and {!Event.add_line}
    both use it. Allocates nothing beyond the buffer's growth. *)

val add_int : Buffer.t -> int -> unit
(** Append an int in decimal, as [string_of_int] renders it ([min_int]
    included), without allocating. *)

val of_string : string -> t
(** Strict parse of exactly one JSON value (surrounding whitespace allowed).
    @raise Failure on malformed input or trailing garbage. *)

val member : string -> t -> t
(** [member key (Obj ...)] is the field's value, or [Null] when absent.
    @raise Failure when the value is not an object. *)

val to_int : t -> int
(** @raise Failure unless [Int]. *)

val to_str : t -> string
(** @raise Failure unless [String]. *)

val to_bool : t -> bool
(** @raise Failure unless [Bool]. *)
