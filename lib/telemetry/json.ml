type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i = i >= String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let rec add_escaped buf s i =
  if i < String.length s then begin
    (match s.[i] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 15))
    | c -> Buffer.add_char buf c);
    add_escaped buf s (i + 1)
  end

let add_string buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s else add_escaped buf s 0;
  Buffer.add_char buf '"'

(* [n <= 0] throughout, so [min_int] needs no special case. The leading
   digits go out first, two per [Buffer] call where there are two: [pair q]
   is the two ASCII digits of [-q] ([-99 <= q <= 0]) as a little-endian
   16-bit value. [/] and [mod] by constants compile to multiplications. *)
let pair q = (48 - (q / 10)) lor ((48 - (q mod 10)) lsl 8)

let rec add_digits buf n =
  if n <= -100 then begin
    add_digits buf (n / 100);
    Buffer.add_int16_le buf (pair (n mod 100))
  end
  else if n <= -10 then Buffer.add_int16_le buf (pair n)
  else Buffer.add_char buf (Char.unsafe_chr (48 - n))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> add_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)

type state = { s : string; mutable pos : int }

let fail st msg = failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg st.pos)

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
            let hex = String.sub st.s st.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape"
            in
            st.pos <- st.pos + 4;
            (* traces only escape control characters, which are ASCII *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else fail st "non-ASCII \\u escape unsupported";
            go ()
        | _ -> fail st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') ->
        advance st;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.s start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail st "expected , or }"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elems (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail st "expected , or ]"
        in
        List (elems [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> failwith ("Json.member: not an object (looking up " ^ key ^ ")")

let to_int = function Int i -> i | _ -> failwith "Json.to_int: not an integer"
let to_str = function String s -> s | _ -> failwith "Json.to_str: not a string"
let to_bool = function Bool b -> b | _ -> failwith "Json.to_bool: not a boolean"
