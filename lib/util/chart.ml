type series = { name : string; points : (float * float) list }

type t = {
  x_label : string;
  y_label : string;
  mutable series : series list; (* reversed *)
}

let markers = [| '*'; 'o'; '+'; 'x'; '@'; '%' |]

(* The plot area, in characters. *)
let height = 18
let width = 60

let create ~x_label ~y_label () = { x_label; y_label; series = [] }

let add_series t ~name points = t.series <- { name; points } :: t.series

let bounds t =
  let fold f init =
    List.fold_left
      (fun acc s -> List.fold_left (fun acc (x, y) -> f acc x y) acc s.points)
      init t.series
  in
  let x_min = fold (fun a x _ -> Float.min a x) infinity in
  let x_max = fold (fun a x _ -> Float.max a x) neg_infinity in
  let y_max = fold (fun a _ y -> Float.max a y) neg_infinity in
  (x_min, x_max, 0.0, Float.max y_max 1.0)

let render t ppf =
  let series = List.rev t.series in
  if series = [] then Format.fprintf ppf "(empty chart)@."
  else begin
    let x_min, x_max, y_min, y_max = bounds t in
    let x_span = Float.max (x_max -. x_min) 1e-9 in
    let y_span = Float.max (y_max -. y_min) 1e-9 in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si s ->
        let marker = markers.(si mod Array.length markers) in
        List.iter
          (fun (x, y) ->
            let cx =
              int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1))
            in
            let cy =
              int_of_float ((y -. y_min) /. y_span *. float_of_int (height - 1))
            in
            let row = height - 1 - cy in
            if row >= 0 && row < height && cx >= 0 && cx < width then
              grid.(row).(cx) <- marker)
          s.points)
      series;
    Format.fprintf ppf "%s@." t.y_label;
    Array.iteri
      (fun i row ->
        let frac = float_of_int (height - 1 - i) /. float_of_int (height - 1) in
        let y_tick = y_min +. (frac *. y_span) in
        Format.fprintf ppf "%10.0f |%s@." y_tick (String.init width (Array.get row)))
      grid;
    Format.fprintf ppf "%10s +%s@." "" (String.make width '-');
    Format.fprintf ppf "%10s  %-*.1f%*.1f@." "" (width - 8) x_min 8 x_max;
    Format.fprintf ppf "%10s  (%s)@." "" t.x_label;
    List.iteri
      (fun si s ->
        Format.fprintf ppf "  %c = %s@." markers.(si mod Array.length markers) s.name)
      series
  end

let to_string t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  render t ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
