(* JSON helpers shared by the test executables: a syntax checker for
   printed text, and lookups and an Alcotest testable for values. *)

module Json = Lrpc_util.Json

(* A minimal JSON syntax checker: accepts exactly the grammar of
   RFC 8259 minus numbers' full generality (any run of digits, signs,
   points and exponents passes, but nan and inf do not). *)
let well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail ()
  and literal lit =
    String.iter (fun c -> expect c) lit
  and number () =
    let ok = function '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false in
    let rec go () =
      match peek () with Some c when ok c -> advance (); go () | _ -> ()
    in
    go ()
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ()
              done
          | _ -> fail ());
          go ()
      (* A control byte must be escaped. *)
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | ok -> ok
  | exception Exit -> false

let fail_at k v = Alcotest.failf "no key %S in %s" k (Json.to_string v)

(* [field k v]: the member [k] of the object [v]. *)
let field k = function
  | Json.Obj kvs as v -> (
      match List.assoc_opt k kvs with Some x -> x | None -> fail_at k v)
  | v -> fail_at k v

(* The member names of an object, in order. *)
let keys = function
  | Json.Obj kvs -> List.map fst kvs
  | v -> Alcotest.failf "not an object: %s" (Json.to_string v)

(* The elements of an array. *)
let items = function
  | Json.List vs -> vs
  | v -> Alcotest.failf "not an array: %s" (Json.to_string v)

let t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )
