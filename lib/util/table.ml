type align = Left | Right

type row = Cells of string list | Separator

type t = {
  columns : (string * align) list;
  mutable rows : row list; (* reversed *)
}

let create ~columns =
  assert (columns <> []);
  { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let render t ppf =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match row with
            | Separator -> acc
            | Cells cells -> max acc (String.length (List.nth cells i)))
          (String.length h) rows)
      headers
  in
  let rule () =
    List.iter (fun w -> Format.fprintf ppf "+%s" (String.make (w + 2) '-')) widths;
    Format.fprintf ppf "+@."
  in
  let print_cells cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        let _, align = List.nth t.columns i in
        match align with
        | Left -> Format.fprintf ppf "| %-*s " w cell
        | Right -> Format.fprintf ppf "| %*s " w cell)
      cells;
    Format.fprintf ppf "|@."
  in
  rule ();
  print_cells headers;
  rule ();
  List.iter
    (function Separator -> rule () | Cells cells -> print_cells cells)
    rows;
  rule ()

let to_string t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  render t ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let cell_us x = Printf.sprintf "%.1f" x
