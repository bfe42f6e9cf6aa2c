type t =
  | Int of int
  | Card of int
  | Bool of bool
  | Bytes of bytes
  | Struct of t list

exception Conformance_error of string

let int x = Int x
let card x = Card x
let bool x = Bool x
let bytes b = Bytes b
let bytes_of_string s = Bytes (Stdlib.Bytes.of_string s)
let struct_ fields = Struct fields

let in_int32 x = x >= Int32.to_int Int32.min_int && x <= Int32.to_int Int32.max_int

let rec type_check ty v =
  match (ty, v) with
  | Types.Int32, Int x ->
      if in_int32 x then Ok () else Error "int out of 32-bit range"
  | Types.Card32, Card x ->
      if x < 0 then Error "negative CARDINAL"
      else if x > 0xFFFF_FFFF then Error "cardinal out of 32-bit range"
      else Ok ()
  | Types.Bool, Bool _ -> Ok ()
  | Types.Fixed_bytes n, Bytes b ->
      if Stdlib.Bytes.length b = n then Ok ()
      else
        Error
          (Printf.sprintf "fixed bytes length %d, expected %d"
             (Stdlib.Bytes.length b) n)
  | Types.Var_bytes max, Bytes b ->
      if Stdlib.Bytes.length b <= max then Ok ()
      else
        Error
          (Printf.sprintf "variable bytes length %d exceeds maximum %d"
             (Stdlib.Bytes.length b) max)
  | Types.Record ftys, Struct fields ->
      if List.length ftys <> List.length fields then
        Error "record arity mismatch"
      else
        List.fold_left2
          (fun acc (_, fty) fv ->
            match acc with Error _ -> acc | Ok () -> type_check fty fv)
          (Ok ()) ftys fields
  | ( ( Types.Int32 | Types.Card32 | Types.Bool | Types.Fixed_bytes _
      | Types.Var_bytes _ | Types.Record _ ),
      _ ) ->
      Error "value does not match declared type"

let check_exn ty v =
  match type_check ty v with Ok () -> () | Error e -> raise (Conformance_error e)

let rec encoded_size ty v =
  match (ty, v) with
  | (Types.Int32 | Types.Card32 | Types.Bool), _ -> 4
  | Types.Fixed_bytes n, _ -> n
  | Types.Var_bytes _, Bytes b -> 4 + Stdlib.Bytes.length b
  | Types.Var_bytes _, _ -> raise (Conformance_error "varbytes expects Bytes")
  | Types.Record ftys, Struct fields ->
      List.fold_left2
        (fun acc (_, fty) fv -> acc + encoded_size fty fv)
        0 ftys fields
  | Types.Record _, _ -> raise (Conformance_error "record expects Struct")

(* Write [v], already checked against [ty], at [off]; returns the bytes
   written, which is [encoded_size ty v]. *)
let rec write ty v buf off =
  match (ty, v) with
  | (Types.Int32, Int x) | (Types.Card32, Card x) ->
      Stdlib.Bytes.set_int32_le buf off (Int32.of_int x);
      4
  | Types.Bool, Bool x ->
      Stdlib.Bytes.set_int32_le buf off (if x then 1l else 0l);
      4
  | Types.Fixed_bytes _, Bytes payload ->
      let n = Stdlib.Bytes.length payload in
      Stdlib.Bytes.blit payload 0 buf off n;
      n
  | Types.Var_bytes _, Bytes payload ->
      let n = Stdlib.Bytes.length payload in
      Stdlib.Bytes.set_int32_le buf off (Int32.of_int n);
      Stdlib.Bytes.blit payload 0 buf (off + 4) n;
      4 + n
  | Types.Record ftys, Struct fields -> write_fields ftys fields buf off 0
  | _ -> assert false (* check_exn rules out mismatches *)

and write_fields ftys fields buf off written =
  match (ftys, fields) with
  | (_, fty) :: ftys, fv :: fields ->
      let n = write fty fv buf off in
      write_fields ftys fields buf (off + n) (written + n)
  | _ -> written

let encode_into ty v buf ~off =
  check_exn ty v;
  write ty v buf off

let encode ty v =
  check_exn ty v;
  let buf = Stdlib.Bytes.create (encoded_size ty v) in
  ignore (write ty v buf 0 : int);
  buf

(* Reads that would cross [stop] raise what the same read from a buffer
   ending at [stop] raises. *)
let int32_at buf ~stop off =
  if off > stop - 4 then invalid_arg "index out of bounds";
  Stdlib.Bytes.get_int32_le buf off

let sub_at buf ~stop off n =
  if off > stop - n then invalid_arg "String.sub / Bytes.sub";
  Stdlib.Bytes.sub buf off n

let rec decode_value ty buf ~off ~stop =
  match ty with
  | Types.Int32 -> Int (Int32.to_int (int32_at buf ~stop off))
  | Types.Card32 ->
      let raw = Int32.to_int (int32_at buf ~stop off) in
      Card (if raw < 0 then raw land 0xFFFF_FFFF else raw)
  | Types.Bool -> Bool (int32_at buf ~stop off <> 0l)
  | Types.Fixed_bytes n -> Bytes (sub_at buf ~stop off n)
  | Types.Var_bytes max ->
      let n = Int32.to_int (int32_at buf ~stop off) in
      if n < 0 || n > max then
        raise (Conformance_error "corrupt variable-size length");
      Bytes (sub_at buf ~stop (off + 4) n)
  | Types.Record ftys -> Struct (decode_fields ftys buf ~off ~stop)

and decode_fields ftys buf ~off ~stop =
  match ftys with
  | [] -> []
  | (_, fty) :: rest ->
      let v = decode_value fty buf ~off ~stop in
      v :: decode_fields rest buf ~off:(off + encoded_size fty v) ~stop

let decode ty buf ~off =
  let v = decode_value ty buf ~off ~stop:(Stdlib.Bytes.length buf) in
  (v, encoded_size ty v)

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Card x, Card y -> x = y
  | Bool x, Bool y -> x = y
  | Bytes x, Bytes y -> Stdlib.Bytes.equal x y
  | Struct xs, Struct ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Int _ | Card _ | Bool _ | Bytes _ | Struct _), _ -> false

let rec pp ppf = function
  | Int x -> Format.fprintf ppf "Int %d" x
  | Card x -> Format.fprintf ppf "Card %d" x
  | Bool x -> Format.fprintf ppf "Bool %b" x
  | Bytes b -> Format.fprintf ppf "Bytes[%d]" (Stdlib.Bytes.length b)
  | Struct fields ->
      Format.fprintf ppf "Struct (%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp)
        fields

let rec payload_bytes = function
  | Int _ | Card _ | Bool _ -> 4
  | Bytes b -> Stdlib.Bytes.length b
  | Struct fields ->
      List.fold_left (fun acc v -> acc + payload_bytes v) 0 fields
