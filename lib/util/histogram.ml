type t = {
  bin_width : int;
  max_value : int;
  bins : int array; (* last slot is the overflow bin *)
  mutable total : int;
}

let create ~bin_width ~max_value =
  assert (bin_width > 0 && max_value > 0);
  let n = (max_value + bin_width - 1) / bin_width in
  { bin_width; max_value; bins = Array.make (n + 1) 0; total = 0 }

let bin_of t v =
  if v >= t.max_value then Array.length t.bins - 1 else v / t.bin_width

let add_many t v n =
  if v < 0 then invalid_arg "Histogram.add: negative sample";
  let i = bin_of t v in
  t.bins.(i) <- t.bins.(i) + n;
  t.total <- t.total + n

let add t v = add_many t v 1

let count t = t.total
let bin_count t = Array.length t.bins
let bin_value t i = t.bins.(i)

let bin_label t i =
  if i = Array.length t.bins - 1 then Printf.sprintf "%d+" t.max_value
  else Printf.sprintf "%d-%d" (i * t.bin_width) (((i + 1) * t.bin_width) - 1)

let cumulative_at t v =
  if t.total = 0 then 0.0
  else begin
    let stop = bin_of t v in
    let acc = ref 0 in
    for i = 0 to stop do
      acc := !acc + t.bins.(i)
    done;
    float_of_int !acc /. float_of_int t.total
  end

let fraction_below t v =
  if t.total = 0 then 0.0
  else if v <= 0 then 0.0
  else begin
    (* Whole bins strictly below v, plus a linear share of the bin
       containing v. *)
    let full = min (v / t.bin_width) (Array.length t.bins - 1) in
    let acc = ref 0 in
    for i = 0 to full - 1 do
      acc := !acc + t.bins.(i)
    done;
    let partial =
      if full >= Array.length t.bins - 1 then 0.0
      else
        let within = v - (full * t.bin_width) in
        float_of_int t.bins.(full)
        *. float_of_int within /. float_of_int t.bin_width
    in
    (float_of_int !acc +. partial) /. float_of_int t.total
  end

let percentile t p =
  assert (p >= 0. && p <= 100.);
  if t.total = 0 then 0
  else begin
    let target = p /. 100. *. float_of_int t.total in
    let acc = ref 0.0 and result = ref t.max_value in
    (try
       for i = 0 to Array.length t.bins - 1 do
         acc := !acc +. float_of_int t.bins.(i);
         if !acc >= target then begin
           result := min t.max_value ((i + 1) * t.bin_width);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let mode_bin t =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > t.bins.(!best) then best := i) t.bins;
  !best

let iter t f =
  Array.iteri
    (fun i count ->
      let lower = i * t.bin_width in
      let upper =
        if i = Array.length t.bins - 1 then None else Some ((i + 1) * t.bin_width)
      in
      f ~lower ~upper ~count)
    t.bins

let render ?(width = 50) ?(unit_label = "samples") t ppf =
  let max_count = Array.fold_left max 1 t.bins in
  Format.fprintf ppf "%12s  %-*s %10s  %s@." "range" width "" "count" "cum%";
  let running = ref 0 in
  Array.iteri
    (fun i c ->
      running := !running + c;
      let bar = c * width / max_count in
      let cum =
        if t.total = 0 then 0.0
        else 100.0 *. float_of_int !running /. float_of_int t.total
      in
      Format.fprintf ppf "%12s  %-*s %10d  %5.1f@." (bin_label t i) width
        (String.make bar '#') c cum)
    t.bins;
  Format.fprintf ppf "total: %d %s@." t.total unit_label
