(* Counts start in a table of [slots] (bin, count) pairs, open-addressed
   at [bin land (slots - 1)] with linear probing: a latency histogram of
   1,025 bins whose samples touch a handful of them keeps 32 ints, not
   1,025. The first sample of a (slots + 1)th distinct bin moves the
   counts, once, into a dense array indexed by bin. Slots are never
   freed, so a probe for a bin stops at the bin or at the first free
   slot. Every query reads either layout without building the other and
   gives the answer the dense array gives. *)

let slots = 16

type t = {
  bin_width : int;
  max_value : int;
  nbins : int; (* the last bin is the overflow bin *)
  mutable keys : int array; (* slot -> bin, or -1 when free; [||] once dense *)
  mutable counts : int array; (* slot -> count; once dense, bin -> count *)
  mutable total : int;
}

let create ~bin_width ~max_value =
  assert (bin_width > 0 && max_value > 0);
  let n = (max_value + bin_width - 1) / bin_width in
  {
    bin_width;
    max_value;
    nbins = n + 1;
    keys = Array.make slots (-1);
    counts = Array.make slots 0;
    total = 0;
  }

let dense t = Array.length t.keys = 0

let bin_of t v = if v >= t.max_value then t.nbins - 1 else v / t.bin_width

(* The slot holding bin [b], or -1 when [b] has no sample. *)
let rec find_slot keys b i probed =
  let k = keys.(i) in
  if k = b then i
  else if k < 0 || probed = slots - 1 then -1
  else find_slot keys b ((i + 1) land (slots - 1)) (probed + 1)

let to_dense t =
  let d = Array.make t.nbins 0 in
  Array.iteri (fun i b -> if b >= 0 then d.(b) <- t.counts.(i)) t.keys;
  t.keys <- [||];
  t.counts <- d

let rec add_slot t b i probed =
  let keys = t.keys in
  let k = keys.(i) in
  if k = b then t.counts.(i) <- t.counts.(i) + 1
  else if k < 0 then begin
    keys.(i) <- b;
    t.counts.(i) <- 1
  end
  else if probed = slots - 1 then begin
    to_dense t;
    t.counts.(b) <- t.counts.(b) + 1
  end
  else add_slot t b ((i + 1) land (slots - 1)) (probed + 1)

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative sample";
  let b = bin_of t v in
  t.total <- t.total + 1;
  if dense t then t.counts.(b) <- t.counts.(b) + 1
  else add_slot t b (b land (slots - 1)) 0

let count t = t.total
let bin_count t = t.nbins

let bin_value t i =
  if dense t then t.counts.(i)
  else if i < 0 || i >= t.nbins then invalid_arg "index out of bounds"
  else
    let s = find_slot t.keys i (i land (slots - 1)) 0 in
    if s < 0 then 0 else t.counts.(s)

(* Samples in bins [0, b]. *)
let count_upto t b =
  let acc = ref 0 in
  if dense t then
    for i = 0 to b do
      acc := !acc + t.counts.(i)
    done
  else
    for s = 0 to slots - 1 do
      let k = t.keys.(s) in
      if k >= 0 && k <= b then acc := !acc + t.counts.(s)
    done;
  !acc

let bin_label t i =
  if i = t.nbins - 1 then Printf.sprintf "%d+" t.max_value
  else Printf.sprintf "%d-%d" (i * t.bin_width) (((i + 1) * t.bin_width) - 1)

let cumulative_at t v =
  if t.total = 0 then 0.0
  else float_of_int (count_upto t (bin_of t v)) /. float_of_int t.total

let fraction_below t v =
  if t.total = 0 then 0.0
  else if v <= 0 then 0.0
  else begin
    (* Whole bins strictly below v, plus a linear share of the bin
       containing v. *)
    let full = min (v / t.bin_width) (t.nbins - 1) in
    let partial =
      if full >= t.nbins - 1 then 0.0
      else
        let within = v - (full * t.bin_width) in
        float_of_int (bin_value t full)
        *. float_of_int within /. float_of_int t.bin_width
    in
    (float_of_int (count_upto t (full - 1)) +. partial) /. float_of_int t.total
  end

(* The first bin at which the running count reaches the target, capped
   at [max_value]. Running counts are sums of ints below 2^53, exact as
   floats, so the order they are summed in cannot move the answer. With
   a target above 0 that bin holds samples: at an empty bin the count
   has not grown since the bin before it, which fell short. One
   function, so that the target float is never boxed for a call. *)
let percentile t p =
  assert (p >= 0. && p <= 100.);
  if t.total = 0 then 0
  else begin
    let target = p /. 100. *. float_of_int t.total in
    let found = ref (-1) in
    if dense t then begin
      let acc = ref 0.0 and i = ref 0 in
      while !found < 0 && !i < t.nbins do
        acc := !acc +. float_of_int t.counts.(!i);
        if !acc >= target then found := !i;
        incr i
      done
    end
    else if target <= 0.0 then found := 0
    else
      for s = 0 to slots - 1 do
        let b = t.keys.(s) in
        if b >= 0 && (!found < 0 || b < !found)
           && float_of_int (count_upto t b) >= target
        then found := b
      done;
    if !found < 0 then t.max_value
    else min t.max_value ((!found + 1) * t.bin_width)
  end

(* The lowest bin of the highest count; bin 0 when empty. *)
let mode_bin t =
  if dense t then begin
    let best = ref 0 in
    Array.iteri (fun i v -> if v > t.counts.(!best) then best := i) t.counts;
    !best
  end
  else begin
    let best = ref 0 and best_count = ref 0 in
    for s = 0 to slots - 1 do
      let b = t.keys.(s) and c = t.counts.(s) in
      if b >= 0 && (c > !best_count || (c = !best_count && b < !best)) then begin
        best := b;
        best_count := c
      end
    done;
    !best
  end

let iter t f =
  for i = 0 to t.nbins - 1 do
    let upper = if i = t.nbins - 1 then None else Some ((i + 1) * t.bin_width) in
    f ~lower:(i * t.bin_width) ~upper ~count:(bin_value t i)
  done

let render ?(unit_label = "samples") t ppf =
  let width = 50 in
  (* Free slots count 0, which the floor of 1 already covers. *)
  let max_count = Array.fold_left max 1 t.counts in
  Format.fprintf ppf "%12s  %-*s %10s  %s@." "range" width "" "count" "cum%";
  let running = ref 0 in
  for i = 0 to t.nbins - 1 do
    let c = bin_value t i in
    running := !running + c;
    let bar = c * width / max_count in
    let cum =
      if t.total = 0 then 0.0
      else 100.0 *. float_of_int !running /. float_of_int t.total
    in
    Format.fprintf ppf "%12s  %-*s %10d  %5.1f@." (bin_label t i) width
      (String.make bar '#') c cum
  done;
  Format.fprintf ppf "total: %d %s@." t.total unit_label
