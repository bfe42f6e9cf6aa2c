open Lrpc_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng -------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false
    (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7L in
  let c = Prng.split a in
  let x = Prng.next_int64 a and y = Prng.next_int64 c in
  Alcotest.(check bool) "split diverges" true (x <> y)

let test_prng_copy () =
  let a = Prng.create ~seed:9L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_int_bounds () =
  let g = Prng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let g = Prng.create ~seed:4L in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_prng_bernoulli_mean () =
  let g = Prng.create ~seed:5L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bernoulli g ~p:0.3 then incr hits
  done;
  let mean = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "roughly 0.3" true (Float.abs (mean -. 0.3) < 0.01)

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:6L in
  let acc = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g ~mean:5.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.2)

let test_prng_zipf_skew () =
  let g = Prng.create ~seed:8L in
  let table = Prng.zipf_table ~n:100 ~s:1.2 in
  let counts = Array.make 101 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Prng.zipf_from_table g table in
    Alcotest.(check bool) "rank in range" true (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true
    (counts.(1) > counts.(2) && counts.(2) > counts.(10))

let test_prng_choose_weights () =
  let g = Prng.create ~seed:10L in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10_000 do
    match Prng.choose g ~weights:[ (9.0, `A); (1.0, `B) ] with
    | `A -> incr a
    | `B -> incr b
  done;
  Alcotest.(check bool) "ratio about 9:1" true (!a > !b * 5)

let test_prng_shuffle_permutation () =
  let g = Prng.create ~seed:11L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* --- Histogram --------------------------------------------------------- *)

let test_histogram_binning () =
  let h = Histogram.create ~bin_width:50 ~max_value:200 in
  List.iter (Histogram.add h) [ 0; 49; 50; 149; 199; 200; 1000 ];
  Alcotest.(check int) "count" 7 (Histogram.count h);
  Alcotest.(check int) "bin 0" 2 (Histogram.bin_value h 0);
  Alcotest.(check int) "bin 1" 1 (Histogram.bin_value h 1);
  Alcotest.(check int) "bin 2" 1 (Histogram.bin_value h 2);
  Alcotest.(check int) "bin 3" 1 (Histogram.bin_value h 3);
  Alcotest.(check int) "overflow" 2 (Histogram.bin_value h 4)

let test_histogram_cumulative () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  List.iter (Histogram.add h) [ 5; 15; 25; 35 ];
  check_float "half at 19" 0.5 (Histogram.cumulative_at h 19);
  check_float "all at 99" 1.0 (Histogram.cumulative_at h 99)

let test_histogram_percentile () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  for v = 0 to 99 do
    Histogram.add h v
  done;
  Alcotest.(check int) "p50" 50 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 100 (Histogram.percentile h 100.0)

let test_histogram_mode () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  List.iter (Histogram.add h) [ 11; 12; 13; 55 ];
  Alcotest.(check int) "mode bin" 1 (Histogram.mode_bin h)

let test_histogram_rejects_negative () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  Alcotest.check_raises "negative" (Invalid_argument "Histogram.add: negative sample")
    (fun () -> Histogram.add h (-1))

let test_histogram_render_smoke () =
  let h = Histogram.create ~bin_width:50 ~max_value:200 in
  List.iter (Histogram.add h) [ 10; 20; 60; 170 ];
  let buf = Buffer.create 64 in
  Histogram.render h (Format.formatter_of_buffer buf);
  Alcotest.(check bool) "mentions total" true
    (let s = Buffer.contents buf in
     String.length s > 0)

let test_histogram_fraction_below () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  List.iter (Histogram.add h) [ 5; 15; 25; 35 ];
  Alcotest.(check (float 1e-9)) "at boundary" 0.25 (Histogram.fraction_below h 10);
  Alcotest.(check (float 1e-9)) "interpolated" 0.375 (Histogram.fraction_below h 15);
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Histogram.fraction_below h 0);
  Alcotest.(check (float 1e-9)) "all" 1.0 (Histogram.fraction_below h 1000)

let test_histogram_iter_covers_all_bins () =
  let h = Histogram.create ~bin_width:25 ~max_value:100 in
  List.iter (Histogram.add h) [ 0; 30; 99; 500 ];
  let seen = ref 0 and counted = ref 0 and overflow = ref None in
  Histogram.iter h (fun ~lower:_ ~upper ~count ->
      incr seen;
      counted := !counted + count;
      if upper = None then overflow := Some count);
  Alcotest.(check int) "bins visited" (Histogram.bin_count h) !seen;
  Alcotest.(check int) "samples counted" 4 !counted;
  Alcotest.(check (option int)) "overflow bin" (Some 1) !overflow

let test_histogram_empty_percentile () =
  let h = Histogram.create ~bin_width:10 ~max_value:100 in
  Alcotest.(check int) "empty p99" 0 (Histogram.percentile h 99.0);
  Alcotest.(check (float 1e-9)) "empty cumulative" 0.0 (Histogram.cumulative_at h 50)

(* --- Histogram against a dense reference ---------------------------------

   A reference model: one count per bin, the overflow bin last, and the
   queries read straight off it. [Histogram] keeps (bin, count) slots
   until its 17th distinct bin; on every input each query must answer
   as this model does. *)

module Dense = struct
  type t = { bw : int; max : int; bins : int array; mutable total : int }

  let create ~bin_width ~max_value =
    let n = (max_value + bin_width - 1) / bin_width in
    { bw = bin_width; max = max_value; bins = Array.make (n + 1) 0; total = 0 }

  let last t = Array.length t.bins - 1
  let bin_of t v = if v >= t.max then last t else v / t.bw

  let add t v =
    let i = bin_of t v in
    t.bins.(i) <- t.bins.(i) + 1;
    t.total <- t.total + 1

  let cumulative_at t v =
    if t.total = 0 then 0.0
    else begin
      let acc = ref 0 in
      for i = 0 to bin_of t v do
        acc := !acc + t.bins.(i)
      done;
      float_of_int !acc /. float_of_int t.total
    end

  let fraction_below t v =
    if t.total = 0 || v <= 0 then 0.0
    else begin
      let full = min (v / t.bw) (last t) in
      let acc = ref 0 in
      for i = 0 to full - 1 do
        acc := !acc + t.bins.(i)
      done;
      let partial =
        if full >= last t then 0.0
        else
          float_of_int t.bins.(full)
          *. float_of_int (v - (full * t.bw))
          /. float_of_int t.bw
      in
      (float_of_int !acc +. partial) /. float_of_int t.total
    end

  let percentile t p =
    if t.total = 0 then 0
    else begin
      let target = p /. 100. *. float_of_int t.total in
      let acc = ref 0.0 and result = ref None in
      Array.iteri
        (fun i c ->
          acc := !acc +. float_of_int c;
          if !result = None && !acc >= target then
            result := Some (min t.max ((i + 1) * t.bw)))
        t.bins;
      Option.value !result ~default:t.max
    end

  let mode_bin t =
    let best = ref 0 in
    Array.iteri (fun i c -> if c > t.bins.(!best) then best := i) t.bins;
    !best
end

let histogram_percentiles = [ 0.0; 0.5; 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

(* Every query of [h] that disagrees with [d], named. *)
let histogram_mismatches h (d : Dense.t) samples =
  let bad = ref [] in
  let check name same = if not same then bad := name :: !bad in
  check "count" (Histogram.count h = d.Dense.total);
  check "bin_count" (Histogram.bin_count h = Array.length d.Dense.bins);
  Array.iteri
    (fun i c -> check (Printf.sprintf "bin_value %d" i) (Histogram.bin_value h i = c))
    d.Dense.bins;
  check "mode_bin" (Histogram.mode_bin h = Dense.mode_bin d);
  List.iter
    (fun p ->
      check (Printf.sprintf "percentile %g" p)
        (Histogram.percentile h p = Dense.percentile d p))
    histogram_percentiles;
  let bw = d.Dense.bw and mx = d.Dense.max in
  let probes =
    [ min_int; -bw - 1; -1; 0; 1; bw - 1; bw; bw + 1; mx - 1; mx; mx + 1; max_int ]
    @ List.concat_map (fun v -> [ v - 1; v; v + 1 ]) samples
  in
  List.iter
    (fun v ->
      check (Printf.sprintf "cumulative_at %d" v)
        (Histogram.cumulative_at h v = Dense.cumulative_at d v);
      check (Printf.sprintf "fraction_below %d" v)
        (Histogram.fraction_below h v = Dense.fraction_below d v))
    probes;
  let seen = ref [] in
  Histogram.iter h (fun ~lower ~upper ~count -> seen := (lower, upper, count) :: !seen);
  let expected =
    List.init (Array.length d.Dense.bins) (fun i ->
        (i * bw, (if i = Dense.last d then None else Some ((i + 1) * bw)), d.Dense.bins.(i)))
  in
  check "iter" (List.rev !seen = expected);
  (* [render] as the dense layout printed it, from the model's bins. *)
  let render h =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Histogram.render h ppf;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let dense_render =
    let buf = Buffer.create 256 in
    let width = 50 and max_count = Array.fold_left max 1 d.Dense.bins in
    Printf.bprintf buf "%12s  %-*s %10s  %s\n" "range" width "" "count" "cum%";
    let running = ref 0 in
    Array.iteri
      (fun i c ->
        running := !running + c;
        let cum =
          if d.Dense.total = 0 then 0.0
          else 100.0 *. float_of_int !running /. float_of_int d.Dense.total
        in
        Printf.bprintf buf "%12s  %-*s %10d  %5.1f\n" (Histogram.bin_label h i) width
          (String.make (c * width / max_count) '#') c cum)
      d.Dense.bins;
    Printf.bprintf buf "total: %d samples\n" d.Dense.total;
    Buffer.contents buf
  in
  check "render" (render h = dense_render);
  List.rev !bad

let histogram_pair ~bin_width ~max_value samples =
  let h = Histogram.create ~bin_width ~max_value
  and d = Dense.create ~bin_width ~max_value in
  List.iter (fun v -> Histogram.add h v; Dense.add d v) samples;
  (h, d)

let check_against_dense what ~bin_width ~max_value samples =
  let h, d = histogram_pair ~bin_width ~max_value samples in
  Alcotest.(check (list string)) (what ^ ": every query as dense") []
    (histogram_mismatches h d samples);
  h

(* Zero, ones and max: no samples, one sample, every sample in the
   overflow bin, max_int, ties for the mode placed so that slot order
   is not bin order, and exactly 16 and 17 distinct bins. *)
let test_histogram_edges () =
  let h = check_against_dense "empty" ~bin_width:4 ~max_value:4096 [] in
  Alcotest.(check (list int)) "empty percentiles" [ 0; 0 ]
    [ Histogram.percentile h 0.0; Histogram.percentile h 100.0 ];
  let h = check_against_dense "bin 0 empty" ~bin_width:10 ~max_value:100 [ 55 ] in
  Alcotest.(check int) "p0 reads bin_width with bin 0 empty" 10
    (Histogram.percentile h 0.0);
  Alcotest.(check int) "p100" 60 (Histogram.percentile h 100.0);
  let h =
    check_against_dense "all overflow" ~bin_width:10 ~max_value:100
      [ 100; 101; max_int ]
  in
  Alcotest.(check int) "overflow p50" 100 (Histogram.percentile h 50.0);
  Alcotest.(check int) "overflow mode" 10 (Histogram.mode_bin h);
  let h = check_against_dense "ones" ~bin_width:1 ~max_value:1 [ 0 ] in
  Alcotest.(check int) "one sample p100" 1 (Histogram.percentile h 100.0);
  (* bin 17 takes slot 1, bin 2 slot 2: the tie goes to bin 2. *)
  let h = check_against_dense "mode tie" ~bin_width:1 ~max_value:64 [ 17; 2; 40 ] in
  Alcotest.(check int) "lowest tied bin" 2 (Histogram.mode_bin h);
  ignore (check_against_dense "16 bins" ~bin_width:1 ~max_value:64 (List.init 16 (fun i -> 3 * i)));
  ignore
    (check_against_dense "17 bins" ~bin_width:1 ~max_value:64
       (List.init 17 (fun i -> 3 * i) @ [ 0; 48; 63; 64; max_int ]))

let histogram_case =
  QCheck.Gen.(
    let* bin_width = oneof [ int_range 1 4; int_range 1 100 ] in
    let* max_value = oneof [ int_range 1 64; int_range 1 5000 ] in
    let few = int_bound (bin_width * 8) in
    let wide = int_bound (2 * max_value) in
    let over = oneofl [ max_value; max_value + 1; max_int ] in
    let* samples =
      oneof
        [
          list_size (int_range 0 200) few;
          list_size (int_range 0 60) wide;
          list_size (int_range 0 10) over;
          list_size (int_range 0 300)
            (frequency [ (6, few); (3, wide); (1, over) ]);
        ]
    in
    return (bin_width, max_value, samples))

let prop_histogram_matches_dense =
  QCheck.Test.make ~name:"histogram answers every query as a dense array" ~count:500
    (QCheck.make
       ~print:(fun (bw, mx, samples) ->
         Printf.sprintf "bin_width %d, max_value %d, samples [%s]" bw mx
           (String.concat "; " (List.map string_of_int samples)))
       histogram_case)
    (fun (bin_width, max_value, samples) ->
      let h, d = histogram_pair ~bin_width ~max_value samples in
      match histogram_mismatches h d samples with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "differs: %s" (String.concat ", " bad))

(* --- Stats ------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "n" 4 (Stats.n s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min_value s);
  check_float "max" 4.0 (Stats.max_value s);
  check_float "total" 10.0 (Stats.total s);
  Alcotest.(check bool) "variance"
    true
    (Float.abs (Stats.variance s -. (5.0 /. 3.0)) < 1e-9)

let test_stats_pp_renders () =
  let s = Stats.create () in
  Alcotest.(check string) "empty" "(no samples)" (Format.asprintf "%a" Stats.pp s);
  Stats.add s 1.5;
  Stats.add s 2.5;
  let rendered = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "mentions mean" true
    (String.length rendered > 0 && String.sub rendered 0 4 = "2.00")

let test_stats_merge_with_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 5.0;
  let m1 = Stats.merge a b and m2 = Stats.merge b a in
  Alcotest.(check int) "n left" 1 (Stats.n m1);
  Alcotest.(check int) "n right" 1 (Stats.n m2);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean m2)

let test_stats_merge_equals_combined () =
  let a = Stats.create () and b = Stats.create () and all = Stats.create () in
  let values = [ 1.5; 2.5; 10.0; -3.0; 7.25; 0.0 ] in
  List.iteri
    (fun i v ->
      Stats.add all v;
      Stats.add (if i mod 2 = 0 then a else b) v)
    values;
  let m = Stats.merge a b in
  check_float "mean" (Stats.mean all) (Stats.mean m);
  Alcotest.(check bool) "variance close" true
    (Float.abs (Stats.variance all -. Stats.variance m) < 1e-9);
  Alcotest.(check int) "n" (Stats.n all) (Stats.n m)

(* --- Table / Chart ----------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("us", Table.Right) ] in
  Table.add_row t [ "Null"; "157" ];
  Table.add_row t [ "Add"; "164" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has Null row" true (contains ~needle:"Null" s);
  Alcotest.(check bool) "has header" true (contains ~needle:"name" s)

let test_table_wrong_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_chart_render () =
  let c = Chart.create ~x_label:"processors" ~y_label:"calls/s" () in
  Chart.add_series c ~name:"LRPC" [ (1., 6300.); (4., 23000.) ];
  let s = Chart.to_string c in
  Alcotest.(check bool) "non-empty" true (String.length s > 100)

(* --- Property tests ---------------------------------------------------- *)

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram count equals samples added" ~count:200
    QCheck.(list (int_bound 5000))
    (fun samples ->
      let h = Histogram.create ~bin_width:100 ~max_value:2000 in
      List.iter (Histogram.add h) samples;
      Histogram.count h = List.length samples)

let prop_histogram_cumulative_monotone =
  QCheck.Test.make ~name:"histogram cumulative is monotone" ~count:100
    QCheck.(list_of_size (Gen.return 50) (int_bound 1000))
    (fun samples ->
      let h = Histogram.create ~bin_width:37 ~max_value:900 in
      List.iter (Histogram.add h) samples;
      let ok = ref true in
      let prev = ref 0.0 in
      for v = 0 to 1000 do
        let c = Histogram.cumulative_at h v in
        if c < !prev -. 1e-12 then ok := false;
        prev := c
      done;
      !ok)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"stats mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun samples ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      Stats.mean s >= Stats.min_value s -. 1e-6
      && Stats.mean s <= Stats.max_value s +. 1e-6)

(* The production PRNG carries its state as 32-bit limbs in native ints
   (allocation-free hot path); this reference is the textbook Int64
   SplitMix64. The two must agree bit for bit on every seed, or every
   "deterministic given a seed" guarantee in the repo silently shifts. *)
let reference_splitmix64 state =
  let state = Int64.add state 0x9E3779B97F4A7C15L in
  let z = state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  (state, Int64.logxor z (Int64.shift_right_logical z 31))

let prop_prng_matches_reference =
  QCheck.Test.make ~name:"prng bit-identical to Int64 SplitMix64" ~count:300
    QCheck.int64
    (fun seed ->
      let g = Prng.create ~seed in
      let state = ref seed in
      let ok = ref true in
      for _ = 1 to 64 do
        let state', expected = reference_splitmix64 !state in
        state := state';
        if Prng.next_int64 g <> expected then ok := false
      done;
      !ok)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"prng int respects bound" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

(* --- Qsketch ------------------------------------------------------------ *)

let test_qsketch_empty () =
  let s = Qsketch.create () in
  Alcotest.(check int) "count" 0 (Qsketch.count s);
  Alcotest.(check int) "p50" 0 (Qsketch.p50 s);
  Alcotest.(check int) "p999" 0 (Qsketch.p999 s);
  check_float "mean" 0.0 (Qsketch.mean s)

let test_qsketch_small_values_exact () =
  (* Values below 2^sub_bits land in one-unit buckets: quantiles are
     exact order statistics there. *)
  let s = Qsketch.create () in
  List.iter (Qsketch.add s) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Alcotest.(check int) "count" 8 (Qsketch.count s);
  Alcotest.(check int) "sum" 31 (Qsketch.sum s);
  Alcotest.(check int) "p50 = 4th smallest" 3 (Qsketch.quantile s 0.5);
  Alcotest.(check int) "max" 9 (Qsketch.quantile s 1.0)

let test_qsketch_rejects () =
  let s = Qsketch.create () in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Qsketch.add: negative sample") (fun () ->
      Qsketch.add s (-1));
  let t = Qsketch.create ~sub_bits:6 () in
  (match Qsketch.merge s t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sub_bits mismatch must not merge");
  match Qsketch.create ~sub_bits:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sub_bits 0 must be rejected"

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let qsketch_samples =
  (* Mix magnitudes so both the exact region and several power-of-two
     ranges are exercised. *)
  QCheck.(
    list_of_size
      Gen.(int_range 1 300)
      (Gen.oneof
         [ Gen.int_bound 30; Gen.int_bound 5_000; Gen.int_bound 10_000_000 ]
       |> make))

let prop_qsketch_quantile_bound =
  QCheck.Test.make ~count:200
    ~name:"qsketch quantile within relative-error bound of exact" qsketch_samples
    (fun samples ->
      let s = Qsketch.create () in
      List.iter (Qsketch.add s) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let err = Qsketch.relative_error s in
      List.for_all
        (fun q ->
          let exact = exact_quantile sorted q in
          let approx = Qsketch.quantile s q in
          approx >= exact
          && float_of_int approx
             <= (float_of_int exact *. (1.0 +. err)) +. 1.0)
        [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let prop_qsketch_merge_is_concat =
  QCheck.Test.make ~count:200
    ~name:"qsketch merge(a,b) == sketch(a @ b) at every quantile"
    QCheck.(pair qsketch_samples qsketch_samples)
    (fun (xs, ys) ->
      let sa = Qsketch.create () and sb = Qsketch.create () in
      List.iter (Qsketch.add sa) xs;
      List.iter (Qsketch.add sb) ys;
      let merged = Qsketch.merge sa sb in
      let concat = Qsketch.create () in
      List.iter (Qsketch.add concat) (xs @ ys);
      let ok = ref (Qsketch.count merged = Qsketch.count concat) in
      ok := !ok && Qsketch.sum merged = Qsketch.sum concat;
      for i = 0 to 100 do
        let q = float_of_int i /. 100.0 in
        if Qsketch.quantile merged q <> Qsketch.quantile concat q then
          ok := false
      done;
      !ok)

(* --- Id_table ----------------------------------------------------------- *)

(* Unset ids read as the default, at both ends; writes grow the table
   and keep what was there; a negative id cannot be written. *)
let test_id_table () =
  let t = Id_table.create 0 in
  List.iter
    (fun id -> Alcotest.(check int) (Printf.sprintf "empty %d" id) 0 (Id_table.get t id))
    [ -1; 0; max_int ];
  Id_table.set t 3 30;
  Id_table.set t 100 1000;
  Alcotest.(check (list int)) "set and kept" [ 0; 30; 0; 1000; 0 ]
    (List.map (Id_table.get t) [ 2; 3; 99; 100; 101 ]);
  Alcotest.check_raises "negative id" (Invalid_argument "Id_table.set: negative id")
    (fun () -> Id_table.set t (-1) 1)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_histogram_total;
        prop_histogram_cumulative_monotone;
        prop_histogram_matches_dense;
        prop_stats_mean_bounded;
        prop_prng_matches_reference;
        prop_prng_int_in_range;
        prop_qsketch_quantile_bound;
        prop_qsketch_merge_is_concat;
      ]
  in
  Alcotest.run "lrpc_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli mean" `Quick test_prng_bernoulli_mean;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "choose weights" `Quick test_prng_choose_weights;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "cumulative" `Quick test_histogram_cumulative;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "mode" `Quick test_histogram_mode;
          Alcotest.test_case "rejects negative" `Quick test_histogram_rejects_negative;
          Alcotest.test_case "render" `Quick test_histogram_render_smoke;
          Alcotest.test_case "fraction below" `Quick test_histogram_fraction_below;
          Alcotest.test_case "iter" `Quick test_histogram_iter_covers_all_bins;
          Alcotest.test_case "empty percentile" `Quick test_histogram_empty_percentile;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "pp" `Quick test_stats_pp_renders;
          Alcotest.test_case "merge empty" `Quick test_stats_merge_with_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge_equals_combined;
        ] );
      ( "table+chart",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table arity" `Quick test_table_wrong_arity;
          Alcotest.test_case "chart render" `Quick test_chart_render;
        ] );
      ( "qsketch",
        [
          Alcotest.test_case "empty" `Quick test_qsketch_empty;
          Alcotest.test_case "small values exact" `Quick
            test_qsketch_small_values_exact;
          Alcotest.test_case "rejects" `Quick test_qsketch_rejects;
        ] );
      ("id table", [ Alcotest.test_case "edges" `Quick test_id_table ]);
      ("properties", qsuite);
    ]
