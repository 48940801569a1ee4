(* Minimal JSON for the serve protocol.  The repo already writes JSON by
   hand in three places (telemetry sinks, bench emitters); this module
   adds the one thing those don't need — a parser — without pulling a
   dependency into the image.  Integers are kept distinct from floats
   (request ids, counters); numbers with a fraction or exponent parse as
   [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      (* %.17g round-trips every double; strip a trailing ".0" ambiguity
         by never printing integers through this constructor *)
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  let n = String.length st.src in
  while st.pos < n && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.src.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let v = parse_hex4 st in
                (* protocol strings are byte strings: encode the code
                   point as UTF-8 (we only ever emit \u00XX ourselves) *)
                if v < 0x80 then Buffer.add_char buf (Char.chr v)
                else if v < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
                end
            | c -> fail st (Printf.sprintf "bad escape '\\%c'" c));
            loop ())
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  let is_float = ref false in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  while
    st.pos < n
    &&
    match st.src.[st.pos] with
    | '0' .. '9' -> true
    | '.' | 'e' | 'E' | '+' | '-' ->
        is_float := true;
        true
    | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  let lit = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt lit with Some f -> Float f | None -> fail st "bad number"
  else
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> ( match float_of_string_opt lit with Some f -> Float f | None -> fail st "bad number")

let parse_literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let of_string_result s = match of_string s with v -> Ok v | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_str_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
