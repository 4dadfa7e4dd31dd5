type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  (* JSON has no NaN or infinity literals. *)
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s -> add_escaped b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          add b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b k;
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

(* --- parsing --- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let v = ref 0 in
  for i = st.pos to st.pos + 3 do
    let d =
      match st.src.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> Buffer.add_char b '"'; st.pos <- st.pos + 1
        | Some '\\' -> Buffer.add_char b '\\'; st.pos <- st.pos + 1
        | Some '/' -> Buffer.add_char b '/'; st.pos <- st.pos + 1
        | Some 'n' -> Buffer.add_char b '\n'; st.pos <- st.pos + 1
        | Some 'r' -> Buffer.add_char b '\r'; st.pos <- st.pos + 1
        | Some 't' -> Buffer.add_char b '\t'; st.pos <- st.pos + 1
        | Some 'b' -> Buffer.add_char b '\b'; st.pos <- st.pos + 1
        | Some 'f' -> Buffer.add_char b '\012'; st.pos <- st.pos + 1
        | Some 'u' ->
            st.pos <- st.pos + 1;
            add_utf8 b (hex4 st)
        | _ -> fail st "bad escape");
        go ()
    | Some c ->
        Buffer.add_char b c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume () = st.pos <- st.pos + 1 in
  (match peek st with Some '-' -> consume () | _ -> ());
  let rec digits () =
    match peek st with Some '0' .. '9' -> consume (); digits () | _ -> ()
  in
  digits ();
  (match peek st with
  | Some '.' ->
      is_float := true;
      consume ();
      digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek st with Some ('+' | '-') -> consume () | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        (* Integer literal too large for native int. *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin st.pos <- st.pos + 1; Obj [] end
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
          | Some ',' -> st.pos <- st.pos + 1; members ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin st.pos <- st.pos + 1; List [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; elements ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list_opt = function List items -> Some items | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
