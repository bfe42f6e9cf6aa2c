type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Fixed of int * float
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Byte by byte into the buffer: only a control byte allocates. *)
let add_string b s =
  Buffer.add_char b '"';
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | '"' -> Buffer.add_string b "\\\""
    | '\\' -> Buffer.add_string b "\\\\"
    | '\n' -> Buffer.add_string b "\\n"
    | '\t' -> Buffer.add_string b "\\t"
    | '\r' -> Buffer.add_string b "\\r"
    | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
    | c -> Buffer.add_char b c
  done;
  Buffer.add_char b '"'

let seq b first last add_item items =
  Buffer.add_char b first;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char b ',';
      add_item item)
    items;
  Buffer.add_char b last

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Int64 i -> Buffer.add_string b (Int64.to_string i)
  | (Fixed (_, x) | Float x) when not (Float.is_finite x) ->
      Buffer.add_string b "null"
  | Fixed (d, x) -> Printf.bprintf b "%.*f" d x
  | Float x -> Printf.bprintf b "%.6g" x
  | String s -> add_string b s
  | List vs -> seq b '[' ']' (add b) vs
  | Obj kvs -> seq b '{' '}' (member b) kvs

and member b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  add b v

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b
