open Lrpc_sim

let cm = Cost_model.cvax_firefly
let cm_no_bus = { cm with Cost_model.bus_alpha = 0.0 }

let check_time = Alcotest.(check int)

(* --- Time -------------------------------------------------------------- *)

let test_time_units () =
  check_time "us" 1_000 (Time.us 1);
  check_time "ms" 1_000_000 (Time.ms 1);
  check_time "us_f rounds" 900 (Time.us_f 0.9);
  check_time "us_f rounds up" 1_667 (Time.us_f 1.667);
  Alcotest.(check (float 1e-9)) "to_us" 0.9 (Time.to_us (Time.ns 900));
  check_time "scale" 150 (Time.scale 100 1.5)

(* --- Heap -------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:30 2;
  Heap.push h ~time:10 0;
  Heap.push h ~time:20 1;
  let pops = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list (option (pair int int))))
    "sorted"
    [ Some (10, 0); Some (20, 1); Some (30, 2) ]
    pops;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~time:5 1;
  Heap.push h ~time:5 2;
  Heap.push h ~time:5 3;
  let order =
    List.init 3 (fun _ -> match Heap.pop h with Some (_, x) -> x | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t 0) times;
      let prev = ref min_int and ok = ref true in
      let rec drain () =
        match Heap.pop h with
        | Some (t, _) ->
            if t < !prev then ok := false;
            prev := t;
            drain ()
        | None -> ()
      in
      drain ();
      !ok)

let test_heap_take_top_time () =
  let h = Heap.create () in
  Heap.push h ~time:7 1;
  Heap.push h ~time:3 0;
  check_time "top_time" 3 (Heap.top_time h);
  Alcotest.(check int) "take min" 0 (Heap.take h);
  check_time "top after take" 7 (Heap.top_time h);
  Alcotest.(check int) "take next" 1 (Heap.take h);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Heap.take: empty heap") (fun () ->
      ignore (Heap.take h))

(* Random push/pop interleavings against a sorted-list reference model:
   pops must come back in nondecreasing time order with FIFO on equal
   timestamps, exactly as a stable insertion sort would produce. *)
let heap_matches_model ops =
  let h = Heap.create () in
  let model = ref [] in
  let next_id = ref 0 in
  let ok = ref true in
  let pop_and_check () =
    match (Heap.pop h, !model) with
    | None, [] -> ()
    | Some (t, i), (t', i') :: rest when t = t' && i = i' -> model := rest
    | _ -> ok := false
  in
  List.iter
    (function
      | Some time ->
          let id = !next_id in
          incr next_id;
          Heap.push h ~time id;
          (* Stable insert: after every entry with time <= this one. *)
          let rec ins = function
            | (t', i') :: rest when t' <= time -> (t', i') :: ins rest
            | rest -> (time, id) :: rest
          in
          model := ins !model
      | None -> pop_and_check ())
    ops;
  while not (Heap.is_empty h) || !model <> [] do
    pop_and_check ();
    if not !ok then model := [] (* break out of a wedged run *)
  done;
  !ok

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list reference model" ~count:300
    QCheck.(list (option (int_bound 100)))
    heap_matches_model

(* Push times that make the lane and the heap interleave: nondecreasing
   runs and batches of one time (which the lane takes), pushes back in
   time (which go to the heap), and pops between them. A step's time is
   relative to a cursor that only the runs move. *)
type step = Up of int | Same | Back of int | Pop

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Up d) (int_bound 3));
        (2, return Same);
        (1, map (fun d -> Back d) (int_range 1 20));
        (2, return Pop);
      ])

(* [Some time] is a push, [None] a pop. *)
let times_of_steps steps =
  let cursor = ref 0 in
  List.map
    (function
      | Up d ->
          cursor := !cursor + d;
          Some !cursor
      | Same -> Some !cursor
      | Back d -> Some (max 0 (!cursor - d))
      | Pop -> None)
    steps

let lane_ops =
  QCheck.make
    ~print:QCheck.Print.(list (option int))
    QCheck.Gen.(map times_of_steps (list_size (int_range 0 450) gen_step))

let prop_lane_model =
  QCheck.Test.make ~name:"lane and heap match the model" ~count:300 lane_ops
    heap_matches_model

(* Two heaps merged by [Heap.precedes], which orders their tops by
   (time, seq) as the engine's loop does for its run and timer heaps,
   must pop exactly the order one heap receiving every push would. With a shared counter that holds; with
   [~share:false] each heap numbers its own pushes, ties across heaps
   are broken by unrelated sequences, and the property must catch it
   ("per-heap sequences fail" below). Times are drawn from eight values
   so most pops are ties. *)
let merged_pops_match ~share ops =
  let a = Heap.create () in
  let b = if share then Heap.create ~share:a () else Heap.create () in
  let one = Heap.create () in
  let merged = ref [] and single = ref [] in
  let pop_both () =
    merged := Heap.take (if Heap.precedes a b then a else b) :: !merged;
    single := Heap.take one :: !single
  in
  List.iteri
    (fun id op ->
      match op with
      | Some (to_a, time) ->
          Heap.push (if to_a then a else b) ~time id;
          Heap.push one ~time id
      | None -> if not (Heap.is_empty one) then pop_both ())
    ops;
  while not (Heap.is_empty one) do
    pop_both ()
  done;
  !merged = !single && Heap.is_empty a && Heap.is_empty b

let merged_ops =
  QCheck.(
    list_of_size
      Gen.(int_range 0 450)
      (frequency [ (3, option (pair bool (int_bound 7))); (1, always None) ]))

let prop_heap_shared_merge =
  QCheck.Test.make ~name:"heaps sharing a counter merge into one heap's order"
    ~count:300 merged_ops (merged_pops_match ~share:true)

(* The same merge over [lane_ops]' times, each push sent to one heap or
   the other: each heap's lane takes some of its pushes and its heap the
   rest. *)
let lane_merged_ops =
  QCheck.make
    ~print:QCheck.Print.(list (option (pair bool int)))
    QCheck.Gen.(
      map
        (fun ops ->
          let sides, steps = List.split ops in
          List.map2
            (fun to_a op -> Option.map (fun time -> (to_a, time)) op)
            sides (times_of_steps steps))
        (list_size (int_range 0 450) (pair bool gen_step)))

let prop_lane_shared_merge =
  QCheck.Test.make ~name:"lanes merge as one heap" ~count:300
    lane_merged_ops (merged_pops_match ~share:true)

let test_heap_per_heap_seq_fails () =
  let planted =
    QCheck.Test.make ~name:"per-heap sequences" ~count:300 merged_ops
      (merged_pops_match ~share:false)
  in
  match QCheck.Test.check_exn ~rand:(Random.State.make [| 1989 |]) planted with
  | () -> Alcotest.fail "a per-heap tie-break passed the merge property"
  | exception QCheck.Test.Test_fail _ -> ()

let test_heap_shared_counter () =
  let a = Heap.create () in
  let b = Heap.create ~share:a () in
  Heap.push a ~time:5 0;
  Heap.push b ~time:5 1;
  Heap.push a ~time:5 2;
  Alcotest.(check int) "next_seq is shared" 3 (Heap.next_seq b);
  Alcotest.(check int) "a's top seq" 0 (Heap.top_seq a);
  Alcotest.(check int) "b's top seq" 1 (Heap.top_seq b);
  Alcotest.(check int) "length" 2 (Heap.length a);
  ignore (Heap.take a);
  Alcotest.(check int) "a's next top seq" 2 (Heap.top_seq a)

(* The lane and the heap at their edges (zero / ones / max): one entry
   in each part, a time of [max_int], an earlier time after it, the
   lane's ring wrapping and then growing while wrapped. *)
let test_heap_lane_edges () =
  let h = Heap.create () in
  check_time "empty earliest" max_int (Heap.earliest h);
  Heap.push h ~time:max_int 0;
  Alcotest.(check bool) "an entry at max_int" false (Heap.is_empty h);
  check_time "its earliest" max_int (Heap.earliest h);
  (* Earlier than the lane's newest: to the heap, and first out. *)
  Heap.push h ~time:0 1;
  Alcotest.(check int) "length counts both parts" 2 (Heap.length h);
  check_time "earliest over both parts" 0 (Heap.earliest h);
  Alcotest.(check int) "the heap's root first" 1 (Heap.take h);
  Alcotest.(check int) "then the lane's" 0 (Heap.take h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  (* An emptied lane takes any time. *)
  Heap.push h ~time:3 2;
  Heap.push h ~time:3 3;
  check_time "an equal time appends" 3 (Heap.top_time h);
  Alcotest.(check int) "seq order on the tie" 2 (Heap.take h);
  Alcotest.(check int) "then" 3 (Heap.take h);
  (* Sixteen in order, ten out, twenty more in order: the ring wraps,
     then grows while wrapped. Every pop stays in push order. *)
  let next = ref 0 and out = ref [] in
  let push_n n =
    for _ = 1 to n do
      Heap.push h ~time:(10 * !next) !next;
      incr next
    done
  in
  let take_n n =
    for _ = 1 to n do
      out := Heap.take h :: !out
    done
  in
  push_n 16;
  take_n 10;
  push_n 20;
  take_n 26;
  Alcotest.(check (list int)) "push order" (List.init 36 Fun.id) (List.rev !out);
  Alcotest.check_raises "top_seq on empty"
    (Invalid_argument "Heap.top_seq: empty heap") (fun () ->
      ignore (Heap.top_seq h))

(* --- Cost model -------------------------------------------------------- *)

let test_null_minimum_cvax () =
  (* Paper Table 2/5: the theoretical minimum on the C-VAX is 109 us. *)
  check_time "109us" (Time.us 109) (Cost_model.null_minimum cm)

let test_null_minimum_others () =
  check_time "68020 170us" (Time.us 170) (Cost_model.null_minimum Cost_model.m68020);
  check_time "PERQ 444us" (Time.us 444) (Cost_model.null_minimum Cost_model.perq_accent)

let test_tlb_miss_split () =
  Alcotest.(check int) "43 misses" 43 Cost_model.null_tlb_misses;
  Alcotest.(check int) "25+18" Cost_model.null_tlb_misses
    (Cost_model.call_side_tlb_misses + Cost_model.return_side_tlb_misses)

(* --- TLB --------------------------------------------------------------- *)

let test_tlb_miss_then_hit () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  Alcotest.(check int) "cold misses" 3
    (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2; 3 |]));
  Alcotest.(check int) "warm hits" 0
    (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2; 3 |]))

let test_tlb_invalidate () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2 |]));
  Tlb.invalidate tlb;
  Alcotest.(check int) "cold again" 2
    (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2 |]));
  Alcotest.(check int) "one flush" 1 (Tlb.flush_count tlb)

let test_tlb_tagged_survives () =
  let tlb = Tlb.create ~capacity:8 ~tagged:true in
  ignore (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2 |]));
  Tlb.invalidate tlb;
  Alcotest.(check int) "still resident" 0
    (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 1; 2 |]));
  (* Same page in another domain is a distinct tagged entry. *)
  Alcotest.(check int) "other domain misses" 2
    (Tlb.access tlb ~domain:2 ~pages:(Tlb.footprint [| 1; 2 |]))

let test_tlb_untagged_shares_pages () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (Tlb.access tlb ~domain:1 ~pages:(Tlb.footprint [| 7 |]));
  Alcotest.(check int) "untagged ignores domain" 0
    (Tlb.access tlb ~domain:2 ~pages:(Tlb.footprint [| 7 |]))

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~capacity:2 ~tagged:false in
  ignore (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 1; 2 |]));
  ignore (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 1 |]));
  (* 2 is now LRU *)
  ignore (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 3 |]));
  Alcotest.(check bool) "1 stays" true (Tlb.resident tlb ~domain:0 ~page:1);
  Alcotest.(check bool) "2 evicted" false (Tlb.resident tlb ~domain:0 ~page:2)

(* Capacity edges. Below 1 is refused, by the TLB and by the engine
   that builds one per processor. At 1, a one-page footprint after a
   flush takes the closed form, and a two-page one the loop, which
   evicts its first page. *)
let test_tlb_capacity_zero () =
  List.iter
    (fun capacity ->
      match Tlb.create ~capacity ~tagged:false with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "capacity %d accepted" capacity)
    [ 0; -1 ];
  match Engine.create { cm with Cost_model.tlb_capacity = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Engine.create accepted a TLB of capacity 0"

let test_tlb_capacity_one () =
  let tlb = Tlb.create ~capacity:1 ~tagged:false in
  let resident page = Tlb.resident tlb ~domain:0 ~page in
  Alcotest.(check int) "one page, one miss" 1
    (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 5 |]));
  Alcotest.(check bool) "and it is resident" true (resident 5);
  Tlb.invalidate tlb;
  Alcotest.(check int) "two pages, two misses" 2
    (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 5; 6 |]));
  Alcotest.(check bool) "the first evicted" false (resident 5);
  Alcotest.(check bool) "the second resident" true (resident 6);
  Alcotest.(check int) "misses" 3 (Tlb.miss_count tlb);
  Alcotest.(check int) "flushes" 1 (Tlb.flush_count tlb)

(* Footprint edges on a 4-entry TLB, each right after a flush: no pages;
   exactly the capacity (closed form) and one page more (the loop); and
   footprints that repeat pages, whose misses are the distinct count and
   whose stamps are each page's last touch. *)
let test_tlb_footprint_edges () =
  let tlb = Tlb.create ~capacity:4 ~tagged:false in
  let resident page = Tlb.resident tlb ~domain:0 ~page in
  let refill pages =
    Tlb.invalidate tlb;
    Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint pages)
  in
  let empty = Tlb.footprint [||] in
  Alcotest.(check int) "empty: no pages" 0 (Tlb.footprint_length empty);
  Alcotest.(check int) "empty: no misses" 0
    (Tlb.access tlb ~domain:0 ~pages:empty);
  Tlb.invalidate tlb;
  Alcotest.(check int) "empty: nothing to flush" 0 (Tlb.flush_count tlb);
  Alcotest.(check int) "capacity: 4 misses" 4 (refill [| 1; 2; 3; 4 |]);
  Alcotest.(check int) "capacity: all hit" 0
    (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 4; 3; 2; 1 |]));
  Alcotest.(check int) "capacity + 1: 5 misses" 5 (refill [| 1; 2; 3; 4; 5 |]);
  Alcotest.(check (list bool)) "capacity + 1: the first evicted"
    [ false; true; true; true; true ]
    (List.map resident [ 1; 2; 3; 4; 5 ]);
  let same = Tlb.footprint [| 7; 7; 7; 7 |] in
  Alcotest.(check int) "every page repeats: 1 distinct" 1
    (Tlb.footprint_distinct same);
  Tlb.invalidate tlb;
  Alcotest.(check int) "every page repeats: 1 miss" 1
    (Tlb.access tlb ~domain:0 ~pages:same);
  Alcotest.(check int) "1 then 2 then 1 twice: 2 misses" 2
    (refill [| 1; 2; 1; 1 |]);
  Alcotest.(check int) "two new pages miss" 2
    (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 3; 4 |]));
  Alcotest.(check int) "a fifth page evicts" 1
    (Tlb.access tlb ~domain:0 ~pages:(Tlb.footprint [| 5 |]));
  Alcotest.(check (list bool)) "2, last touched first, is the one evicted"
    [ true; false; true; true; true ]
    (List.map resident [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "misses" 15 (Tlb.miss_count tlb)

(* The TLB as it was before its int-array representation: a table from
   (domain, page) to last-use stamp, evicting the minimum stamp. Kept as
   the reference model the real one must match access for access. *)
module Ref_tlb = struct
  type key = int * int (* domain, page; domain is 0 when untagged *)

  type t = {
    capacity : int;
    tagged : bool;
    entries : (key, int) Hashtbl.t; (* key -> last-use stamp *)
    mutable clock : int;
    mutable misses : int;
    mutable flushes : int;
  }

  let create ~capacity ~tagged =
    {
      capacity;
      tagged;
      entries = Hashtbl.create 64;
      clock = 0;
      misses = 0;
      flushes = 0;
    }

  let invalidate t =
    if (not t.tagged) && Hashtbl.length t.entries > 0 then begin
      Hashtbl.reset t.entries;
      t.flushes <- t.flushes + 1
    end

  let key t ~domain ~page = if t.tagged then (domain, page) else (0, page)

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k stamp ->
        match !victim with
        | Some (_, s) when s <= stamp -> ()
        | _ -> victim := Some (k, stamp))
      t.entries;
    match !victim with
    | Some (k, _) -> Hashtbl.remove t.entries k
    | None -> ()

  let touch t k =
    t.clock <- t.clock + 1;
    match Hashtbl.find_opt t.entries k with
    | Some _ ->
        Hashtbl.replace t.entries k t.clock;
        false
    | None ->
        if Hashtbl.length t.entries >= t.capacity then evict_lru t;
        Hashtbl.replace t.entries k t.clock;
        true

  let access t ~domain ~pages =
    let misses = ref 0 in
    List.iter
      (fun page -> if touch t (key t ~domain ~page) then incr misses)
      pages;
    t.misses <- t.misses + !misses;
    !misses

  let resident t ~domain ~page = Hashtbl.mem t.entries (key t ~domain ~page)
  let miss_count t = t.misses
  let flush_count t = t.flushes
end

(* A run of ops on one TLB. Besides one-off page lists, a case keeps two
   footprints that ops touch again, flush and refill, and patch in
   place; residency is compared after [Query] ops and after the last op
   only, because [resident] settles a recorded refill, which would
   otherwise never outlive the op that made it. *)
type tlb_op =
  | Access of int * int list
  | Invalidate
  | Touch of int * int (* domain, kept footprint *)
  | Flush_touch of int * int
  | Patch of int * int * int list (* kept footprint, position, pages *)
  | Query

let pages_str pages = String.concat ";" (List.map string_of_int pages)

let print_tlb_op = function
  | Access (d, pages) -> Printf.sprintf "access d%d [%s]" d (pages_str pages)
  | Invalidate -> "invalidate"
  | Touch (d, i) -> Printf.sprintf "touch d%d f%d" d i
  | Flush_touch (d, i) -> Printf.sprintf "flush+touch d%d f%d" d i
  | Patch (i, pos, pages) ->
      Printf.sprintf "patch f%d at %d [%s]" i pos (pages_str pages)
  | Query -> "query"

(* Domains 0-3, with capacity 1-8 or 1-64 and pages 0-15 or 0-255. The
   small ranges make eviction, re-reference and cross-domain aliasing
   frequent; the large capacities make the scans long. Kept footprints
   run up to three pages past the capacity, so the closed-form refill
   meets footprints one page too long for it, and one page in four is
   drawn from 0-3, so footprints repeat pages. *)
let prop_tlb_matches_reference =
  let page max_page =
    QCheck.Gen.(frequency [ (3, int_range 0 max_page); (1, int_range 0 3) ])
  in
  let op max_page =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun d pages -> Access (d, pages))
              (int_range 0 3)
              (list_size (int_range 0 6) (page max_page)) );
          (1, return Invalidate);
          (2, map2 (fun d i -> Touch (d, i)) (int_range 0 3) (int_range 0 1));
          ( 3,
            map2 (fun d i -> Flush_touch (d, i)) (int_range 0 3) (int_range 0 1)
          );
          ( 2,
            map3
              (fun i pos pages -> Patch (i, pos, pages))
              (int_range 0 1) (int_range 0 70)
              (list_size (int_range 0 4) (page max_page)) );
          (1, return Query);
        ])
  in
  let case =
    QCheck.Gen.(
      oneofl [ 8; 64 ] >>= fun max_capacity ->
      oneofl [ 15; 255 ] >>= fun max_page ->
      int_range 1 max_capacity >>= fun capacity ->
      let kept = list_size (int_range 0 (capacity + 3)) (page max_page) in
      triple bool (pair kept kept) (list_size (int_range 0 40) (op max_page))
      >|= fun (tagged, (f0, f1), ops) ->
      (capacity, tagged, max_page, [| f0; f1 |], ops))
  in
  QCheck.Test.make ~name:"tlb matches its hashtable reference" ~count:500
    (QCheck.make
       ~print:(fun (capacity, tagged, max_page, kept, ops) ->
         Printf.sprintf
           "capacity %d, tagged %b, pages 0-%d, f0 [%s], f1 [%s]: %s" capacity
           tagged max_page (pages_str kept.(0)) (pages_str kept.(1))
           (String.concat ", " (List.map print_tlb_op ops)))
       case)
    (fun (capacity, tagged, max_page, kept, ops) ->
      let t = Tlb.create ~capacity ~tagged in
      let r = Ref_tlb.create ~capacity ~tagged in
      let fps = Array.map (fun l -> Tlb.footprint (Array.of_list l)) kept in
      let ref_fps = Array.map Array.of_list kept in
      let same_residency () =
        List.for_all
          (fun domain ->
            List.for_all
              (fun page ->
                Tlb.resident t ~domain ~page = Ref_tlb.resident r ~domain ~page)
              (List.init (max_page + 1) Fun.id))
          [ 0; 1; 2; 3 ]
      in
      let touch domain i =
        Tlb.access t ~domain ~pages:fps.(i)
        = Ref_tlb.access r ~domain ~pages:(Array.to_list ref_fps.(i))
      in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Access (domain, pages) ->
                let fp = Tlb.footprint (Array.of_list pages) in
                Tlb.access t ~domain ~pages:fp = Ref_tlb.access r ~domain ~pages
            | Invalidate ->
                Tlb.invalidate t;
                Ref_tlb.invalidate r;
                true
            | Touch (domain, i) -> touch domain i
            | Flush_touch (domain, i) ->
                Tlb.invalidate t;
                Ref_tlb.invalidate r;
                touch domain i
            | Patch (i, pos, pages) ->
                (* As [Engine.patch_footprint]: settle, then overwrite. *)
                let n = Array.length ref_fps.(i) in
                let pos = pos mod (n + 1) in
                let src = Array.of_list pages in
                let len = min (Array.length src) (n - pos) in
                Tlb.settle t fps.(i);
                Tlb.blit ~src fps.(i) ~pos ~len;
                Array.blit src 0 ref_fps.(i) pos len;
                Tlb.footprint_pages fps.(i) = ref_fps.(i)
            | Query -> same_residency ()
          in
          same_result
          && Tlb.miss_count t = Ref_tlb.miss_count r
          && Tlb.flush_count t = Ref_tlb.flush_count r)
        ops
      && same_residency ())

(* The Null LRPC's 43-page refill after a flush, on a warm TLB of the
   paper's 64 entries, allocates nothing, tagged or not. *)
let test_tlb_access_allocates_nothing () =
  List.iter
    (fun tagged ->
      let tlb = Tlb.create ~capacity:64 ~tagged in
      let pages = Tlb.footprint (Array.init 43 (fun i -> 100 + i)) in
      ignore (Tlb.access tlb ~domain:3 ~pages);
      let minor_words f =
        let before = Gc.minor_words () in
        f ();
        Gc.minor_words () -. before
      in
      let empty = minor_words (fun () -> ()) in
      let used =
        minor_words (fun () ->
            for _ = 1 to 1000 do
              Tlb.invalidate tlb;
              ignore (Tlb.access tlb ~domain:3 ~pages)
            done)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "tagged=%b: minor words of 1000 refills" tagged)
        empty used)
    [ false; true ]

(* An E-stack patch of a 25-page footprint allocates nothing, whether
   it compares only the window (every page distinct before) or
   recounts the footprint (a page repeats). *)
let test_tlb_blit_allocates_nothing () =
  List.iter
    (fun (what, pages) ->
      let fp = Tlb.footprint pages in
      let a = [| 200; 201; 202; 203 |] and b = [| 300; 301; 302; 303 |] in
      let before = Gc.minor_words () in
      for i = 1 to 1000 do
        Tlb.blit ~src:(if i land 1 = 0 then a else b) fp ~pos:8 ~len:4
      done;
      Alcotest.(check (float 0.0))
        (what ^ ": minor words of 1000 patches")
        0.0
        (Gc.minor_words () -. before))
    [
      ("all distinct", Array.init 25 (fun i -> 100 + i));
      ("a repeat", Array.init 25 (fun i -> 100 + (i mod 24)));
    ]

(* [Tlb.blit] leaves the count a fresh [Tlb.footprint] of the same pages
   takes, and the model's sort-uniq count. Each case patches one
   footprint up to three times in a row. Pages come from a small range,
   so the footprint may repeat pages from the start, and a window may
   repeat a page of its own or of the rest, which also turns an
   all-distinct footprint into one with repeats for the next patch.
   Windows are empty, start at either end or end at either end. *)
let prop_tlb_blit_counts =
  let gen =
    QCheck.Gen.(
      int_range 0 30 >>= fun n ->
      let max_page = max 1 (n + (n / 2)) in
      let pages =
        oneof
          [
            return (Array.init n (fun i -> i));
            array_repeat n (int_range 0 max_page);
          ]
      in
      let window =
        int_range 0 n >>= fun len ->
        frequency
          [
            (1, return 0);
            (1, return (n - len));
            (3, int_range 0 (n - len));
          ]
        >>= fun pos ->
        array_repeat len (int_range 0 max_page) >|= fun src -> (pos, src)
      in
      pair pages (list_size (int_range 1 3) window))
  in
  let print (pages, patches) =
    Printf.sprintf "[%s] then %s"
      (pages_str (Array.to_list pages))
      (String.concat ", "
         (List.map
            (fun (pos, src) ->
              Printf.sprintf "at %d [%s]" pos (pages_str (Array.to_list src)))
            patches))
  in
  QCheck.Test.make ~name:"tlb blit counts distinct pages" ~count:1000
    (QCheck.make ~print gen) (fun (pages, patches) ->
      let fp = Tlb.footprint (Array.copy pages) in
      let model = Array.copy pages in
      List.for_all
        (fun (pos, src) ->
          let len = Array.length src in
          Tlb.blit ~src fp ~pos ~len;
          Array.blit src 0 model pos len;
          let distinct = Tlb.footprint_distinct fp in
          Tlb.footprint_pages fp = model
          && distinct = Tlb.footprint_distinct (Tlb.footprint (Array.copy model))
          && distinct
             = List.length (List.sort_uniq Int.compare (Array.to_list model)))
        patches)

let test_tlb_tagged_key_range () =
  let tlb = Tlb.create ~capacity:4 ~tagged:true in
  List.iter
    (fun (domain, page) ->
      match Tlb.access tlb ~domain ~pages:(Tlb.footprint [| page |]) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "domain %d page %d accepted" domain page)
    [ (-1, 0); (0, -1); (1 lsl 23, 0); (0, 1 lsl 40) ];
  Alcotest.(check int) "largest key misses once" 1
    (Tlb.access tlb ~domain:((1 lsl 23) - 1)
       ~pages:(Tlb.footprint [| (1 lsl 40) - 1 |]));
  Alcotest.(check bool) "and is distinct from domain 0" false
    (Tlb.resident tlb ~domain:0 ~page:((1 lsl 40) - 1))

(* --- Engine basics ------------------------------------------------------ *)

let test_delay_advances_time () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let finished = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 5);
         Engine.delay e (Time.us 7);
         finished := Engine.now e));
  Engine.run e;
  check_time "12us" (Time.us 12) !finished;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

let test_two_threads_one_cpu_serialize () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let worker name =
    ignore
      (Engine.spawn e ~domain:0 ~name (fun () ->
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log;
           Engine.yield e;
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log))
  in
  worker "a";
  worker "b";
  Engine.run e;
  (* Thread b only starts after a yields; one CPU means full serialization
     of delays. The final event is at 40us. *)
  match !log with
  | (_, last) :: _ -> check_time "total serialized" (Time.us 40) last
  | [] -> Alcotest.fail "no events"

let test_two_cpus_parallel () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  check_time "cpu0 parallel" (Time.us 100) done_at.(0);
  check_time "cpu1 parallel" (Time.us 100) done_at.(1)

let test_block_wake () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let waiter_done = ref 0 in
  let waiter =
    Engine.spawn e ~domain:0 ~name:"waiter" (fun () ->
        Engine.block e;
        waiter_done := Engine.now e)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"waker" (fun () ->
         Engine.delay e (Time.us 50);
         Engine.wake e waiter));
  Engine.run e;
  check_time "woken at 50" (Time.us 50) !waiter_done

let test_spawn_failure_recorded () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore (Engine.spawn e ~domain:0 (fun () -> failwith "boom"));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Failure msg) ] -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected one failure"

let test_kill_blocked_thread () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let saw_exn = ref false in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        (try Engine.block e
         with Engine.Thread_killed as ex ->
           saw_exn := true;
           raise ex);
        ())
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 1);
         Engine.kill e victim));
  Engine.run e;
  Alcotest.(check bool) "exn delivered" true !saw_exn;
  Alcotest.(check bool) "victim dead" false (Engine.alive victim);
  Alcotest.(check (list pass)) "kill is not a failure" [] (Engine.failures e)

let test_interrupt_with_custom_exn () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let caught = ref "" in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        try Engine.block e with Failure m -> caught := m)
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.interrupt e victim (Failure "call-failed")));
  Engine.run e;
  Alcotest.(check string) "caught" "call-failed" !caught

let test_context_switch_charged_on_dispatch () =
  let e = Engine.create ~processors:1 cm_no_bus in
  (* First placements are free (processes pre-exist the measurement), but
     re-dispatching a woken thread onto a processor whose loaded context
     differs charges one VM reload. *)
  let a =
    Engine.spawn e ~domain:3 (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 1))
  in
  ignore
    (Engine.spawn e ~domain:5 (fun () ->
         Engine.delay e (Time.us 10);
         Engine.wake e a));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "one vm reload" cm.Cost_model.vm_reload ctx;
  let cpu0 = (Engine.cpus e).(0) in
  Alcotest.(check (option int)) "context loaded" (Some 3) cpu0.Engine.context

let test_switch_self_context () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let th = ref None in
  ignore
    (Engine.spawn e ~domain:1 (fun () ->
         th := Some (Engine.self e);
         Engine.switch_self_context e ~domain:2;
         Alcotest.(check int) "domain updated" 2
           (Engine.thread_domain (Engine.self e))));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  (* Initial dispatch is free; only the explicit crossing is charged. *)
  check_time "one vm reload" cm.Cost_model.vm_reload ctx

let test_touch_pages_charges_misses () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.touch_pages e ~pages:(Tlb.footprint [| 100; 101; 102 |]);
         (* warm now *)
         Engine.touch_pages e ~pages:(Tlb.footprint [| 100; 101; 102 |])));
  Engine.run e;
  let tlb =
    List.assoc_opt Category.Tlb_miss (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "3 misses once" (3 * cm.Cost_model.tlb_miss) tlb;
  Alcotest.(check int) "counter" 3 (Engine.total_tlb_misses e)

let test_handoff_direct_transfer () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let server =
    Engine.spawn e ~domain:1 ~name:"server" (fun () ->
        Engine.block e;
        order := "server" :: !order;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"client" (fun () ->
         Engine.delay e (Time.us 1);
         order := "client" :: !order;
         Engine.handoff e ~to_:server));
  Engine.run e;
  Alcotest.(check (list string)) "handoff order" [ "server"; "client" ] !order;
  Alcotest.(check int) "client still blocked" 1
    (List.length (Engine.stuck_threads e))

let test_exchange_processors () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let landed = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 (fun () ->
         Engine.delay e (Time.us 1);
         let cpus = Engine.cpus e in
         (* cpu1 idles; pretend it holds the server context (domain 9). *)
         cpus.(1).Engine.context <- Some 9;
         Engine.exchange_processors e ~target:cpus.(1);
         Engine.switch_self_context e ~domain:9;
         landed := (Engine.current_cpu e).Engine.idx));
  Engine.run e;
  Alcotest.(check int) "on cpu1" 1 !landed;
  let exch =
    List.assoc_opt Category.Exchange (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "exchange charged" cm.Cost_model.processor_exchange exch;
  (* Crucially, no context switch was charged at all: the whole point of
     domain caching. *)
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "no reload" Time.zero ctx

(* Threads queued behind a busy processor become stealable when that
   processor takes the next one from its queue, and stop being so when
   it frees. Then a thread spawned for cpu1 while both processors idle
   is dispatched there: cpu0, scanned first, finds nothing to steal. *)
let test_steal_from_refilled_queue () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let where = Hashtbl.create 4 in
  let record name =
    Hashtbl.replace where name
      ((Engine.current_cpu e).Engine.idx, Engine.now e)
  in
  let spawn name ~home d =
    ignore
      (Engine.spawn e ~domain:0 ~home ~name (fun () ->
           record name;
           Engine.delay e d))
  in
  (* cpu0 runs "a" to 1 us, cpu1 runs "d" to 2 us; "b" and "c" wait in
     cpu0's queue. *)
  spawn "a" ~home:0 (Time.us 1);
  spawn "d" ~home:1 (Time.us 2);
  spawn "b" ~home:0 (Time.us 10);
  spawn "c" ~home:0 (Time.us 10);
  Engine.run e;
  let check name what cpu at =
    Alcotest.(check (pair int int))
      (name ^ ": " ^ what) (cpu, at) (Hashtbl.find where name)
  in
  check "b" "follows a on cpu0" 0 (Time.us 1);
  check "c" "stolen when d ends" 1 (Time.us 2);
  Alcotest.(check int) "steals" 1 (Engine.total_steals e);
  spawn "late" ~home:1 (Time.us 1);
  Engine.run e;
  check "late" "on its home" 1 (Time.us 12);
  Alcotest.(check int) "no further steal" 1 (Engine.total_steals e);
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* A free processor can hold a queued thread: [yield_to] queues the
   yielding thread on its home processor's queue and dispatches no one.
   A thread that exchanges onto that processor makes the queued thread
   stealable, and the processor it left steals it once its exchange
   ends, rather than leave it until the new owner lets go. *)
let test_steal_after_exchange () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let peer = ref None and landed = ref (-1) and resumed = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"first" (fun () ->
         Engine.delay e (Time.us 1)));
  (* Queued behind "first" on cpu0, and stolen at once by cpu1. At 2 us
     it yields cpu1 to the peer, and waits in the queue of cpu0, which
     is free since 1 us. *)
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"yielder" (fun () ->
         Engine.delay e (Time.us 2);
         Engine.yield_to e ~to_:(Option.get !peer);
         landed := (Engine.current_cpu e).Engine.idx;
         resumed := Engine.now e));
  peer :=
    Some
      (Engine.spawn e ~domain:0 ~home:2 ~name:"peer" (fun () ->
           Engine.block e;
           Engine.delay e (Time.us 100)));
  (* Runs on cpu2 once the peer blocks; at 3 us it moves to cpu0. *)
  ignore
    (Engine.spawn e ~domain:0 ~home:2 ~name:"exchanger" (fun () ->
         Engine.delay e (Time.us 3);
         Engine.exchange_processors e ~target:(Engine.cpus e).(0);
         Engine.delay e (Time.us 5)));
  Engine.run e;
  Alcotest.(check int) "stolen by cpu2" 2 !landed;
  check_time "when the exchange ends"
    (Time.add (Time.us 3) cm.Cost_model.processor_exchange)
    !resumed;
  Alcotest.(check int) "steals" 2 (Engine.total_steals e);
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* [yield_to] can also leave a thread in a busy processor's queue while
   other processors are free. When that processor's thread exchanges
   away, the queue's owner is free: the thread is no longer stealable,
   the processors scanned before it steal nothing, and it runs where it
   waits once the exchange ends. *)
let test_exchange_leaves_queue () =
  let e = Engine.create ~processors:4 cm_no_bus in
  let peer = ref None and landed = ref (-1) and resumed = ref (-1) in
  (* cpu3 from the start; at 3 us it moves to cpu2. *)
  ignore
    (Engine.spawn e ~domain:0 ~home:3 ~name:"owner" (fun () ->
         Engine.delay e (Time.us 3);
         Engine.exchange_processors e ~target:(Engine.cpus e).(2);
         Engine.delay e (Time.us 5)));
  (* Queued behind "owner" on cpu3, and stolen at once by cpu0. At 2 us
     it yields cpu0 to the peer, and waits in the queue of cpu3. *)
  ignore
    (Engine.spawn e ~domain:0 ~home:3 ~name:"yielder" (fun () ->
         Engine.delay e (Time.us 2);
         Engine.yield_to e ~to_:(Option.get !peer);
         landed := (Engine.current_cpu e).Engine.idx;
         resumed := Engine.now e));
  peer :=
    Some
      (Engine.spawn e ~domain:0 ~home:1 ~name:"peer" (fun () ->
           Engine.block e;
           Engine.delay e (Time.us 100)));
  (* Frees cpu2 at 1 us, the exchange's target. *)
  ignore
    (Engine.spawn e ~domain:0 ~home:2 ~name:"short" (fun () ->
         Engine.delay e (Time.us 1)));
  Engine.run e;
  Alcotest.(check int) "runs where it waited" 3 !landed;
  check_time "when the exchange ends"
    (Time.add (Time.us 3) cm.Cost_model.processor_exchange)
    !resumed;
  Alcotest.(check int) "steals" 1 (Engine.total_steals e);
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* [exchange_processors] leaves the old processor idle with its context
   and TLB, and with them a refill recorded right after a flush. A patch
   of that footprint must leave the idle TLB as the per-page refill
   left it: holding the old pages, not the new ones, so that a thread of
   the same domain landing there with no flush misses on the patched
   footprint as the reference model does. *)
let test_patch_settles_idle_holder () =
  let old_pages = [| 10; 11; 12; 13 |] and src = [| 20; 21 |] in
  let scenario probe =
    let e = Engine.create ~processors:2 cm_no_bus in
    let fp = Tlb.footprint (Array.copy old_pages) in
    ignore
      (Engine.spawn e ~domain:5 ~home:0 (fun () ->
           Engine.touch_pages e ~pages:fp;
           Engine.exchange_processors e ~target:(Engine.cpus e).(1);
           Engine.patch_footprint e fp ~pos:1 ~src ~len:2));
    Engine.run e;
    probe e fp (Engine.cpus e).(0).Engine.tlb
  in
  scenario (fun _ _ tlb ->
      Alcotest.(check (list bool)) "old pages resident, new ones not"
        [ true; true; true; true; false; false ]
        (List.map
           (fun page -> Tlb.resident tlb ~domain:5 ~page)
           (Array.to_list old_pages @ Array.to_list src)));
  scenario (fun e fp tlb ->
      let r =
        Ref_tlb.create ~capacity:cm.Cost_model.tlb_capacity ~tagged:false
      in
      ignore (Ref_tlb.access r ~domain:5 ~pages:(Array.to_list old_pages));
      let expected =
        Ref_tlb.access r ~domain:5
          ~pages:(Array.to_list (Tlb.footprint_pages fp))
      in
      let landed = ref (-1) and misses = ref (-1) in
      ignore
        (Engine.spawn e ~domain:5 ~home:0 (fun () ->
             landed := (Engine.current_cpu e).Engine.idx;
             let before = Engine.total_tlb_misses e in
             Engine.touch_pages e ~pages:fp;
             misses := Engine.total_tlb_misses e - before));
      Engine.run e;
      Alcotest.(check int) "landed on the idle processor" 0 !landed;
      Alcotest.(check int) "with no flush" 0 (Tlb.flush_count tlb);
      Alcotest.(check int) "the reference model's misses" expected !misses;
      Alcotest.(check int) "the new pages missed" 2 !misses)

(* --- Bus contention -------------------------------------------------------

   With alpha = 0.5, a delay that starts while n threads execute (state
   [Running] on a processor; spinners excluded) lasts 1 + 0.5 (n - 1)
   times its nominal length. Each scenario below takes another CPU's
   thread through one state transition and then times a delay, so a
   transition that stopped updating the engine's executing count would
   move an exact completion time. *)

let bus_cm = { cm with Cost_model.bus_alpha = 0.5 }

(* [n] threads delaying together, on 2..4 CPUs. *)
let check_bus_all_executing n =
  let e = Engine.create ~processors:n bus_cm in
  let done_at = Array.make n 0 in
  for i = 0 to n - 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  let expected = Time.us (100 + (50 * (n - 1))) in
  Array.iter (check_time (Printf.sprintf "%d executing" n) expected) done_at

(* Time a 100 us delay on CPU 0 after [other] has run first on CPU 1. *)
let bus_probe_after other =
  let e = Engine.create ~processors:2 bus_cm in
  let th = Engine.spawn e ~domain:0 ~home:1 ~name:"other" (other e) in
  let probe_done = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"probe" (fun () ->
         Engine.delay e (Time.us 100);
         probe_done := Engine.now e;
         if Engine.alive th then Engine.wake e th));
  (e, th, probe_done)

let test_bus_contention_dilates () =
  List.iter check_bus_all_executing [ 2; 3; 4 ];
  (* Blocked, finished, or killed before its first instruction: the
     other CPU's thread no longer executes, so the probe runs alone. *)
  List.iter
    (fun (what, other, kill) ->
      let e, th, probe_done = bus_probe_after other in
      if kill then Engine.kill e th;
      Engine.run e;
      check_time what (Time.us 100) !probe_done)
    [
      ("blocked", (fun e () -> Engine.block e), false);
      ("finished", (fun _ () -> ()), false);
      ("killed before running", (fun _ () -> Alcotest.fail "ran"), true);
    ];
  (* A spinner is not executing; waking it makes it so. The holder's
     1 us runs beside the spinner-to-be, its 100 us beside a spinner,
     and its last 100 us beside the woken acquirer. *)
  let e = Engine.create ~processors:2 bus_cm in
  let lk = Spinlock.create e in
  let holder_done = ref 0 and spinner_done = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 ~home:1 ~name:"holder" (fun () ->
         Spinlock.acquire lk;
         Engine.delay e (Time.us 1);
         Engine.delay e (Time.us 100);
         Spinlock.release lk;
         Engine.delay e (Time.us 100);
         holder_done := Engine.now e));
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"spinner" (fun () ->
         Spinlock.acquire lk;
         Engine.delay e (Time.us 100);
         spinner_done := Engine.now e));
  Engine.run e;
  check_time "holder beside a spinner" (1_500 + 100_000 + 150_000) !holder_done;
  check_time "woken spinner" (1_500 + 100_000 + 150_000) !spinner_done;
  (* Handoff, yield_to and yield swap the thread on CPU 0 for the
     server: two threads execute while the probe on CPU 1 delays. *)
  List.iter
    (fun (what, transfer) ->
      let e = Engine.create ~processors:2 bus_cm in
      let server_done = ref 0 and probe_done = ref 0 in
      let server =
        Engine.spawn e ~domain:0 ~home:0 ~name:"server" (fun () ->
            Engine.block e;
            Engine.delay e (Time.us 100);
            server_done := Engine.now e)
      in
      ignore
        (Engine.spawn e ~domain:0 ~home:1 ~name:"probe" (fun () ->
             Engine.delay e (Time.us 1);
             Engine.delay e (Time.us 100);
             probe_done := Engine.now e));
      ignore
        (Engine.spawn e ~domain:0 ~home:0 ~name:"client" (fun () ->
             transfer e server));
      Engine.run e;
      check_time (what ^ ": server") (Time.us 150) !server_done;
      check_time (what ^ ": probe") (1_500 + 150_000) !probe_done)
    [
      ("handoff", fun e server -> Engine.handoff e ~to_:server);
      ("yield_to", fun e server -> Engine.yield_to e ~to_:server);
      ( "yield",
        fun e server ->
          Engine.wake e server;
          Engine.yield e );
    ];
  (* exchange_processors moves an executing thread to a free CPU; it
     never leaves [Running]. Its 17 us exchange and the probe's 1 us
     both run beside the other thread. *)
  let e = Engine.create ~processors:3 bus_cm in
  let mover_done = ref 0 and probe_done = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"mover" (fun () ->
         Engine.exchange_processors e ~target:(Engine.cpus e).(2);
         Engine.delay e (Time.us 100);
         mover_done := Engine.now e));
  ignore
    (Engine.spawn e ~domain:0 ~home:1 ~name:"probe" (fun () ->
         Engine.delay e (Time.us 1);
         Engine.delay e (Time.us 100);
         probe_done := Engine.now e));
  Engine.run e;
  check_time "exchange: mover" (25_500 + 150_000) !mover_done;
  check_time "exchange: probe" (1_500 + 150_000) !probe_done

let test_run_until_horizon () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let ticks = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         while true do
           Engine.delay e (Time.us 10);
           incr ticks
         done));
  Engine.run ~until:(Time.us 95) e;
  Alcotest.(check int) "9 ticks" 9 !ticks

let test_ready_queue_overflow_threads () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let completed = ref 0 in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 10);
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 10 !completed;
  (* 10 threads x 10us over 2 cpus = 50us of makespan. *)
  check_time "makespan" (Time.us 50) (Engine.now e)

(* --- Run-ahead delays ------------------------------------------------------

   A delay that ends strictly before every queued event, within the
   limit of the run in progress, on a thread with no pending interrupt,
   is charged in place instead of through the event heap. Each test
   below sits on the edge of one condition and fails if it is dropped;
   the determinism property's stepped runs cover the limit. *)

(* A timer armed for exactly the instant a delay ends holds the lower
   heap sequence, so it fires before the delaying thread resumes; one
   armed a little later lets the thread run ahead. *)
let test_delay_equal_time_timer_first () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let note what = log := (what, Engine.now e) :: !log in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 1);
         ignore (Engine.at e (Time.us 6) (fun () -> note "timer"));
         ignore (Engine.at e (Time.us 12) (fun () -> note "later timer"));
         Engine.delay e (Time.us 5);
         note "thread";
         Engine.delay e (Time.us 5);
         note "thread again"));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "equal-time timer first"
    [
      ("timer", Time.us 6);
      ("thread", Time.us 6);
      ("thread again", Time.us 11);
      ("later timer", Time.us 12);
    ]
    (List.rev !log)

(* The two heaps draw sequences from one counter, so an equal-time tie
   between a timer and a resumption goes to the earlier push even when
   the timer heap has taken more pushes than the run heap (here 4 to
   2: per-heap counts would put the resumption first). *)
let test_cross_heap_tie_follows_push_order () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let note what = log := what :: !log in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 1);
         for k = 1 to 3 do
           ignore (Engine.at e (Time.us (100 * k)) ignore)
         done;
         ignore (Engine.at e (Time.us 6) (fun () -> note "timer"));
         Engine.delay e (Time.us 5);
         note "thread"));
  Engine.run e;
  Alcotest.(check (list string))
    "the earlier push runs first" [ "timer"; "thread" ] (List.rev !log);
  Alcotest.(check int) "run-heap pushes" 2 (Engine.run_pushes e);
  Alcotest.(check int) "timer-heap pushes" 4 (Engine.timer_pushes e)

(* A thread that interrupts itself gets the exception from the
   resumption that ends its next delay: at now + d' (bus-dilated, with
   the time charged), and the statement after the delay never runs. *)
let test_self_interrupt_then_delay () =
  let e = Engine.create ~processors:2 bus_cm in
  let after = ref false and caught_at = ref (-1) in
  ignore
    (Engine.spawn e ~domain:1 ~home:1 ~name:"other" (fun () ->
         Engine.delay e (Time.ms 1)));
  ignore
    (Engine.spawn e ~domain:0 ~home:0 ~name:"self" (fun () ->
         Engine.interrupt e (Engine.self e) (Failure "self");
         try
           Engine.delay e (Time.us 10);
           after := true
         with Failure _ -> caught_at := Engine.now e));
  Engine.run e;
  Alcotest.(check bool) "statement after the delay skipped" false !after;
  (* Two threads execute, so d' = 1.5 d. *)
  check_time "delivered at now + d'" (Time.us 15) !caught_at;
  check_time "d' charged to the cpu" (Time.us 15) (Engine.cpus e).(0).Engine.busy;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* --- Sleeps ----------------------------------------------------------------

   [sleep_until] blocks on a wake entry that names the thread by its
   wake code: it allocates nothing. *)

let test_sleep_until_wakes_on_time () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.sleep_until e (Time.us 40);
         log := Engine.now e :: !log;
         (* A time already past wakes at once, like a clamped [at]. *)
         Engine.sleep_until e (Time.us 10);
         log := Engine.now e :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "woke at" [ Time.us 40; Time.us 40 ] (List.rev !log);
  Alcotest.(check int) "one timer push per sleep" 2 (Engine.timer_pushes e);
  Alcotest.(check (list pass)) "nothing stuck" [] (Engine.stuck_threads e)

(* A sleep left early leaves its wake entry queued. When the entry
   comes due, the thread is blocked on a wait queue instead; the entry
   must be ignored, not wake that wait. *)
let test_sleep_left_early_never_wakes_later_wait () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let q = Waitq.create e in
  let woke_at = ref (-1) in
  let sleeper =
    Engine.spawn e ~domain:0 ~home:0 ~name:"sleeper" (fun () ->
        (try Engine.sleep_until e (Time.us 100) with Failure _ -> ());
        Waitq.wait q;
        woke_at := Engine.now e)
  in
  ignore
    (Engine.spawn e ~domain:0 ~home:1 ~name:"poker" (fun () ->
         Engine.delay e (Time.us 10);
         Engine.interrupt e sleeper (Failure "poke");
         Engine.sleep_until e (Time.us 300);
         ignore (Waitq.signal q)));
  Engine.run ~until:(Time.us 200) e;
  Alcotest.(check int) "still waiting past the old wake time" (-1) !woke_at;
  Engine.run e;
  check_time "woken by the signal" (Time.us 300) !woke_at;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* A rest is a sleep whose fiber ends: the continuation runs on a fresh
   fiber at the wake, as the thread's own instruction. *)
let test_rest_until_wakes_on_time () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let th =
    Engine.spawn e ~domain:0 (fun () ->
        Engine.rest_until e (Time.us 40) (fun () ->
            log := Engine.now e :: !log;
            (* A time already past wakes at once, like a clamped [at]. *)
            Engine.rest_until e (Time.us 10) (fun () ->
                log := Engine.now e :: !log)))
  in
  Engine.run e;
  Alcotest.(check (list int)) "woke at" [ Time.us 40; Time.us 40 ] (List.rev !log);
  Alcotest.(check int) "one timer push per rest" 2 (Engine.timer_pushes e);
  Alcotest.(check int) "started, then started again at each wake" 3
    (Engine.resumptions e);
  Alcotest.(check bool) "the thread ended" false (Engine.alive th);
  Alcotest.(check (list pass)) "nothing stuck" [] (Engine.stuck_threads e)

(* A rest left early by a wake leaves its wake entry queued, and the
   thread starts its continuation, where it blocks on a wait queue; the
   entry must be ignored when it comes due, not wake that wait. *)
let test_rest_left_early_never_wakes_later_wait () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let q = Waitq.create e in
  let woke_at = ref (-1) in
  let rester =
    Engine.spawn e ~domain:0 ~home:0 ~name:"rester" (fun () ->
        Engine.rest_until e (Time.us 100) (fun () ->
            Waitq.wait q;
            woke_at := Engine.now e))
  in
  ignore
    (Engine.spawn e ~domain:0 ~home:1 ~name:"poker" (fun () ->
         Engine.delay e (Time.us 10);
         Engine.wake e rester;
         Engine.sleep_until e (Time.us 300);
         ignore (Waitq.signal q)));
  Engine.run ~until:(Time.us 200) e;
  Alcotest.(check int) "still waiting past the old wake time" (-1) !woke_at;
  Engine.run e;
  check_time "woken by the signal" (Time.us 300) !woke_at;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

(* A kill or an uncaught interrupt delivered while a thread rests ends
   it as it ends a sleeper with no handler: the continuation never runs,
   and the trace (its Finish event included), the failures, the
   resumptions and the clock are the sleeper's. *)
let nap_shot ~rests shot =
  let e = Engine.create ~processors:1 cm_no_bus in
  let tr = Trace.create ~capacity:256 () in
  Engine.set_tracer e (Some tr);
  let after = ref false in
  let th =
    Engine.spawn e ~domain:0 ~name:"napper" (fun () ->
        Engine.delay e (Time.us 5);
        if rests then Engine.rest_until e (Time.us 100) (fun () -> after := true)
        else begin
          Engine.sleep_until e (Time.us 100);
          after := true
        end)
  in
  ignore (Engine.at e (Time.us 40) (fun () -> shot e th));
  Engine.run e;
  let finishes = ref [] in
  Trace.iter tr (fun ev ->
      match ev.Trace.kind with
      | Lrpc_obs.Event.Finish { error; _ } -> finishes := error :: !finishes
      | _ -> ());
  ( !after,
    !finishes,
    String.concat "|"
      [
        Trace.dump tr;
        String.concat ","
          (List.map
             (fun (th, exn) -> Engine.thread_name th ^ ":" ^ Printexc.to_string exn)
             (Engine.failures e));
        string_of_int (Engine.resumptions e);
        string_of_int (Engine.timer_pushes e);
        string_of_int (Engine.now e);
        string_of_int (List.length (Engine.stuck_threads e));
      ] )

let test_rest_shot () =
  List.iter
    (fun (what, shot, error) ->
      let after, finishes, rested = nap_shot ~rests:true shot in
      let slept_after, _, slept = nap_shot ~rests:false shot in
      Alcotest.(check bool) (what ^ ": the continuation never ran") false after;
      Alcotest.(check bool) (what ^ ": nor the sleeper's") false slept_after;
      Alcotest.(check (list (option string)))
        (what ^ ": one Finish event") [ error ] finishes;
      Alcotest.(check string) (what ^ ": observed as the sleeper") slept rested)
    [
      ("kill", (fun e th -> Engine.kill e th), None);
      ( "uncaught interrupt",
        (fun e th -> Engine.interrupt e th Exit),
        Some (Printexc.to_string Exit) );
    ]

(* --- Timers ----------------------------------------------------------------

   The timer heap holds ints: an [at] timer's slot in the engine's slab,
   or a sleeping thread's wake code [-1 - tid]. A slot is cleared and
   freed when its entry pops. *)

(* Once the caller drops the handle, a timer whose entry has popped is
   not kept: its closure is collectable, fired or cancelled. A couple
   may survive in this frame's registers or stack; a slab that kept its
   popped slots would keep all eight. *)
let timers_collectable ~cancel () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let w = Weak.create 8 in
  let sum = ref 0 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    let tmr =
      Engine.at e (Time.us i) (fun () -> sum := !sum + Bytes.length payload)
    in
    if cancel then Engine.cancel_timer e tmr
  done;
  Engine.run e;
  Alcotest.(check int) "callbacks run" (if cancel then 0 else 8 * 64) !sum;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "popped timers' closures collectable (%d still live)" !live)
    true (!live <= 2);
  (* The engine, and with it its slab, is live up to here. *)
  Alcotest.(check int) "timer pushes" 8 (Engine.timer_pushes e)

(* Thread 0's wake code is -1, next to the first slot, 0. Each is told
   apart when it pops, in (time, sequence) order, also when the slot is
   freed and taken again for the next instant. *)
let test_wake_code_next_to_slot_zero () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let note what = log := (what, Engine.now e) :: !log in
  let th =
    Engine.spawn e ~domain:0 (fun () ->
        Engine.sleep_until e (Time.us 20);
        note "tid 0 woke";
        Engine.sleep_until e (Time.us 30);
        note "tid 0 woke again")
  in
  Alcotest.(check int) "thread 0" 0 (Engine.thread_id th);
  ignore
    (Engine.at e (Time.us 20) (fun () ->
         note "slot 0";
         ignore (Engine.at e (Time.us 30) (fun () -> note "slot 0 again"))));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "order"
    [
      ("slot 0", Time.us 20);
      ("tid 0 woke", Time.us 20);
      ("slot 0 again", Time.us 30);
      ("tid 0 woke again", Time.us 30);
    ]
    (List.rev !log);
  Alcotest.(check int) "timer pushes" 4 (Engine.timer_pushes e)

(* Forty timers queued at once grow the slab past its first sixteen
   slots; every fifth is cancelled. The rest fire in time order, and a
   second wave reuses the freed slots. *)
let test_timer_slab_grows () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let fired = ref [] in
  let wave base =
    Array.init 40 (fun i ->
        Engine.at e (base + Time.us (i * 7 mod 40)) (fun () ->
            fired := i :: !fired))
    |> Array.iteri (fun i tmr -> if i mod 5 = 0 then Engine.cancel_timer e tmr)
  in
  let expected =
    List.init 40 Fun.id
    |> List.filter (fun i -> i mod 5 <> 0)
    |> List.sort (fun i j -> compare (i * 7 mod 40) (j * 7 mod 40))
  in
  wave Time.zero;
  Engine.run e;
  Alcotest.(check (list int)) "first wave in time order" expected (List.rev !fired);
  fired := [];
  wave (Time.us 100);
  Engine.run e;
  Alcotest.(check (list int)) "second wave in time order" expected (List.rev !fired);
  check_time "last fired" (Time.us 139) (Engine.now e);
  Alcotest.(check int) "timer pushes" 80 (Engine.timer_pushes e)

(* Cancelling a timer that already fired is harmless, also when its
   slot now holds another timer. *)
let test_cancel_after_fire () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let n = ref 0 in
  let first = Engine.at e (Time.us 5) (fun () -> n := !n + 1) in
  Engine.run e;
  let second = Engine.at e (Time.us 10) (fun () -> n := !n + 10) in
  Engine.cancel_timer e first;
  Engine.cancel_timer e first;
  Engine.run e;
  Alcotest.(check int) "both fired once" 11 !n;
  Engine.cancel_timer e second;
  Engine.run e;
  Alcotest.(check int) "nothing more" 11 !n

(* An [at] in the past is clamped to now. At the time of the timer
   heap's newest entry it appends to the lane, after the entries of
   that instant; before a later entry it goes to the heap, and still
   fires first. *)
let test_at_in_the_past_clamped () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let note what () = log := (what, Engine.now e) :: !log in
  ignore
    (Engine.at e (Time.us 50) (fun () ->
         note "first" ();
         ignore (Engine.at e (Time.us 50) (note "same instant"));
         ignore (Engine.at e (Time.us 10) (note "clamped"));
         ignore (Engine.at e (Time.us 60) (note "later"));
         ignore (Engine.at e Time.zero (note "clamped after later"))));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "order"
    [
      ("first", Time.us 50);
      ("same instant", Time.us 50);
      ("clamped", Time.us 50);
      ("clamped after later", Time.us 50);
      ("later", Time.us 60);
    ]
    (List.rev !log)

(* --- Spinlock ----------------------------------------------------------- *)

let test_spinlock_mutual_exclusion () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let lk = Spinlock.create e in
  let in_cs = ref 0 and max_in_cs = ref 0 and total = ref 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           for _ = 1 to 20 do
             Spinlock.acquire lk;
             incr in_cs;
             if !in_cs > !max_in_cs then max_in_cs := !in_cs;
             Engine.delay e (Time.us 3);
             decr in_cs;
             incr total;
             Spinlock.release lk;
             Engine.delay e (Time.us 1)
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "never two holders" 1 !max_in_cs;
  Alcotest.(check int) "all sections ran" 40 !total

let test_spinlock_serializes_throughput () =
  (* Two CPUs, but a critical section of 10us per 10us of work: the lock
     fully serializes, so 2 CPUs take as long as 1 would. *)
  let run_with cpus =
    let e = Engine.create ~processors:cpus cm_no_bus in
    let lk = Spinlock.create e in
    let ops = ref 0 in
    for i = 0 to cpus - 1 do
      ignore
        (Engine.spawn e ~domain:i ~home:i (fun () ->
             while true do
               Spinlock.with_lock lk ~hold:(Time.us 10) (fun () -> incr ops)
             done))
    done;
    Engine.run ~until:(Time.ms 1) e;
    !ops
  in
  let one = run_with 1 and two = run_with 2 in
  Alcotest.(check bool) "no speedup from second cpu" true
    (abs (one - two) <= 2)

let test_spinlock_release_by_nonholder_rejected () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let lk = Spinlock.create ~name:"l" e in
  ignore (Engine.spawn e ~domain:0 (fun () -> Spinlock.release lk));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "expected Invalid_argument failure"

let test_spinlock_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let lk = Spinlock.create e in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           (* Stagger arrival so the queue order is deterministic. *)
           Engine.delay e (Time.us i);
           Spinlock.acquire lk;
           order := i :: !order;
           Engine.delay e (Time.us 10);
           Spinlock.release lk))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo handover" [ 0; 1; 2 ] (List.rev !order)

(* --- Waitq --------------------------------------------------------------- *)

let test_waitq_signal_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us i);
           Waitq.wait q;
           woken := i :: !woken))
  done;
  ignore
    (Engine.spawn e ~domain:2 ~home:2 (fun () ->
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q);
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check (list int)) "fifo wake order" [ 0; 1 ] (List.rev !woken)

let test_waitq_signal_empty () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let q = Waitq.create e in
  let result = ref true in
  ignore (Engine.spawn e ~domain:0 (fun () -> result := Waitq.signal q));
  Engine.run e;
  Alcotest.(check bool) "no waiter" false !result

let test_waitq_skips_dead_waiters () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let q = Waitq.create e in
  let second_woken = ref false in
  let first =
    Engine.spawn e ~domain:0 ~home:0 (fun () ->
        Waitq.wait q;
        Alcotest.fail "dead waiter must not wake")
  in
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 1);
         Waitq.wait q;
         second_woken := true));
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.kill e first;
         Engine.delay e (Time.us 2);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check bool) "live waiter got the signal" true !second_woken

let test_waitq_broadcast () =
  let e = Engine.create ~processors:4 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref 0 in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Waitq.wait q;
           incr woken))
  done;
  ignore
    (Engine.spawn e ~domain:3 ~home:3 (fun () ->
         Engine.delay e (Time.us 1);
         Alcotest.(check int) "3 woken" 3 (Waitq.broadcast q)));
  Engine.run e;
  Alcotest.(check int) "all resumed" 3 !woken

(* --- Trace ----------------------------------------------------------------- *)

let test_trace_ring_bounded () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tr ~at:i ~tid:i ~cpu:0
      (Lrpc_obs.Event.Mark { name = "k"; detail = "" })
  done;
  Alcotest.(check int) "total counts all" 10 (Trace.count tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "ring keeps 4" 4 (List.length evs);
  Alcotest.(check (list int)) "most recent, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.tid) evs);
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.count tr)

let test_engine_traces_lifecycle () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let tr = Trace.create () in
  Engine.set_tracer e (Some tr);
  let server =
    Engine.spawn e ~domain:1 ~name:"srv" (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"cli" (fun () ->
         Engine.delay e (Time.us 1);
         Engine.switch_self_context e ~domain:2;
         Engine.wake e server));
  Engine.run e;
  let kinds k = List.length (Trace.find tr ~kind:k) in
  Alcotest.(check bool) "dispatches" true (kinds "dispatch" >= 3);
  Alcotest.(check int) "one block" 1 (kinds "block");
  Alcotest.(check int) "one wake" 1 (kinds "wake");
  Alcotest.(check int) "one explicit switch" 1 (kinds "switch");
  Alcotest.(check int) "two finishes" 2 (kinds "finish");
  Alcotest.(check bool) "dump renders" true (String.length (Trace.dump tr) > 50);
  (* detaching stops emission *)
  Engine.set_tracer e None;
  let before = Trace.count tr in
  ignore (Engine.spawn e ~domain:0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check int) "detached" before (Trace.count tr)

let test_engine_yield_to () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let consumer =
    Engine.spawn e ~domain:0 ~name:"consumer" (fun () ->
        Engine.block e;
        order := "consumer" :: !order)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"producer" (fun () ->
         Engine.delay e (Time.us 1);
         order := "producer-before" :: !order;
         Engine.yield_to e ~to_:consumer;
         (* still runnable: resumes once the consumer releases the cpu *)
         order := "producer-after" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "yield_to order"
    [ "producer-before"; "consumer"; "producer-after" ]
    (List.rev !order)

(* --- Engine domains ------------------------------------------------------ *)

(* The engine is one event loop on one host domain, so [~domains]
   accepts only 1, on every model. *)
let test_engine_create_domain_validation () =
  List.iter
    (fun domains ->
      match Engine.create ~processors:2 ~domains Cost_model.cvax_firefly with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "domains:%d accepted" domains)
    [ 0; 2 ]

(* The processor count at its edges: zero and negative machines are
   refused with [Invalid_argument], as [~domains] is. *)
let test_engine_create_processor_bounds () =
  List.iter
    (fun processors ->
      match Engine.create ~processors Cost_model.cvax_firefly with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "processors:%d accepted" processors)
    [ 0; -1 ]

(* Domain ids at their edges (zero / ones / max): any int names a
   domain. Spawning into one and switching away and back loads exactly
   that context, with one VM reload per switch. *)
let test_engine_domain_id_bounds () =
  List.iter
    (fun domain ->
      let e = Engine.create ~processors:2 cm_no_bus in
      let other = domain lxor 1 in
      let loaded = ref [] in
      let note () =
        loaded := (Engine.current_cpu e).Engine.context :: !loaded
      in
      let th =
        Engine.spawn e ~domain (fun () ->
            note ();
            Engine.switch_self_context e ~domain:other;
            note ();
            Engine.switch_then_touch e ~domain
              ~pages:(Tlb.footprint [| 0; 1 |]);
            note ())
      in
      ignore (Engine.spawn e ~domain note);
      Engine.run e;
      let what = Printf.sprintf "domain %d" domain in
      Alcotest.(check (list pass)) (what ^ ": no failures") [] (Engine.failures e);
      Alcotest.(check (list (option int)))
        (what ^ ": contexts loaded")
        (List.sort compare [ Some domain; Some domain; Some other; Some domain ])
        (List.sort compare !loaded);
      Alcotest.(check int) (what ^ ": thread retagged") domain
        (Engine.thread_domain th);
      Alcotest.(check (option int))
        (what ^ ": two reloads")
        (Some (2 * cm.Cost_model.vm_reload))
        (List.assoc_opt Category.Context_switch (Engine.breakdown e)))
    [ 0; 1; 4095; 4096; max_int; -1; min_int ]

(* --- Topology boundaries (zero / ones / max) ------------------------------ *)

let refused what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

let test_cluster_size_zero () =
  List.iter
    (fun cluster_size ->
      refused
        (Printf.sprintf "cluster_size %d" cluster_size)
        (fun () -> Cost_model.clustered ~cluster_size ~name:"c" cm))
    [ 0; -1 ]

(* One cluster of [max_int] CPUs holds the whole machine: every pair is
   near, so the multiplier is 1.0 everywhere. *)
let test_cluster_size_max () =
  let model = Cost_model.clustered ~cluster_size:max_int ~name:"one" cm in
  let topo = Option.get model.Cost_model.topology in
  let cpus = [ 0; 1; 7; 255; max_int - 1 ] in
  List.iter
    (fun a ->
      Alcotest.(check int) "one cluster" 0 (Cost_model.cluster_of topo a);
      List.iter
        (fun b ->
          Alcotest.(check (float 0.0)) "near" 1.0 (Cost_model.mult topo a b))
        cpus)
    cpus;
  let e = Engine.create ~processors:8 model in
  Alcotest.(check int) "engine built" 8 (Array.length (Engine.cpus e))

(* [cross_mult] must be a finite number >= 1.0: below 1.0 a far pull
   would be cheaper than a near one, and [Time.scale] turns a NaN-scaled
   reload into 0 ns. *)
let test_cross_mult_bounds () =
  List.iter
    (fun cross_mult ->
      refused
        (Printf.sprintf "cross_mult %g" cross_mult)
        (fun () ->
          Cost_model.clustered ~cross_mult ~cluster_size:4 ~name:"c" cm))
    [ 0.0; 0.999; Float.nan; Float.infinity ];
  let model =
    Cost_model.clustered ~cross_mult:1.0 ~cluster_size:4 ~name:"c" cm
  in
  let topo = Option.get model.Cost_model.topology in
  Alcotest.(check (float 0.0)) "cross at 1.0" 1.0 (Cost_model.mult topo 0 4)

(* [scaled]'s factor must be a finite number > 0: [Time.scale] turns a
   NaN-scaled cost into 0 ns, and a negative factor into a negative
   cost. At the largest float every product overflows an int. A factor
   of 1.0 keeps every base cost. *)
let test_scaled_factor_bounds () =
  List.iter
    (fun factor ->
      refused
        (Printf.sprintf "factor %g" factor)
        (fun () -> Cost_model.scaled cm ~factor ~name:"s"))
    [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity; Float.max_float ];
  let one = Cost_model.scaled cm ~factor:1.0 ~name:cm.Cost_model.name in
  Alcotest.(check bool) "factor 1.0 returns the base costs" true (one = cm)

(* --- Counter hygiene ------------------------------------------------------ *)

(* Steal / TLB counters belong to one engine instance: zero at birth,
   with or without a topology, so no run can inherit another world's
   totals (each Driver.boot builds a fresh engine). *)
let test_fresh_engine_counters_zero () =
  let check_engine (e : Engine.t) =
    Alcotest.(check int) "total steals" 0 (Engine.total_steals e);
    Alcotest.(check int) "near steals" 0 (Engine.total_steals_near e);
    Alcotest.(check int) "far steals" 0 (Engine.total_steals_far e);
    Alcotest.(check int) "tlb misses" 0 (Engine.total_tlb_misses e);
    Alcotest.(check int) "run-heap pushes" 0 (Engine.run_pushes e);
    Alcotest.(check int) "timer-heap pushes" 0 (Engine.timer_pushes e);
    Array.iter
      (fun c ->
        Alcotest.(check int) "cpu steals" 0 c.Engine.steals;
        Alcotest.(check int) "cpu tagged" 0 c.Engine.steals_tagged;
        Alcotest.(check int) "cpu near" 0 c.Engine.steals_near;
        Alcotest.(check int) "cpu far" 0 c.Engine.steals_far;
        check_time "cpu spin" 0 c.Engine.lock_spin)
      (Engine.cpus e)
  in
  check_engine (Engine.create ~processors:4 cm);
  check_engine
    (Engine.create ~processors:8
       (Cost_model.clustered ~cluster_size:4 ~name:"clu4" cm))

(* --- Victim-ring property ------------------------------------------------- *)

(* Every thief's scan order is a permutation of the other CPUs — no
   queue unreachable, none visited twice — and distance-ordered: all
   same-cluster victims precede every cross-cluster one. *)
let prop_victim_ring_covers =
  QCheck.Test.make ~name:"victim rings cover every other CPU exactly once"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 48))
    (fun (cluster_size, cpus) ->
      let model = Cost_model.clustered ~cluster_size ~name:"clu" cm in
      let topo = Option.get model.Cost_model.topology in
      let ok = ref true in
      for cpu = 0 to cpus - 1 do
        let ring = Cost_model.victim_ring topo ~cpus ~cpu in
        if Array.length ring <> cpus - 1 then ok := false;
        let seen = Array.make cpus 0 in
        Array.iter (fun v -> seen.(v) <- seen.(v) + 1) ring;
        Array.iteri
          (fun i n -> if n <> if i = cpu then 0 else 1 then ok := false)
          seen;
        let my = Cost_model.cluster_of topo cpu in
        let crossed = ref false in
        Array.iter
          (fun v ->
            if Cost_model.cluster_of topo v <> my then crossed := true
            else if !crossed then ok := false)
          ring
      done;
      !ok)

(* One multiplier for every CPU pair: 1.0 when [cluster_of] agrees (the
   same CPU included), [cross_mult] otherwise. *)
let prop_mult_by_cluster =
  QCheck.Test.make ~name:"mult is 1.0 within a cluster, cross_mult across"
    ~count:200
    QCheck.(
      quad (int_range 1 8) (int_range 0 63) (int_range 0 63)
        (float_range 1.0 16.0))
    (fun (cluster_size, a, b, cross_mult) ->
      let model = Cost_model.clustered ~cross_mult ~cluster_size ~name:"clu" cm in
      let topo = Option.get model.Cost_model.topology in
      let expect =
        if Cost_model.cluster_of topo a = Cost_model.cluster_of topo b then 1.0
        else cross_mult
      in
      Cost_model.mult topo a b = expect)

(* --- Determinism property ------------------------------------------------

   Random programs of delays, blocks, wakes and timers on 1-4 CPUs give
   the same log, trace and accounting whether run once or stepped by
   [run ~until] every k us, and no step moves the clock past its limit:
   a delay charged in place must stay within the run in progress. *)

type op = Delay of int | Block | Wake of int | Timer of int * int | Sleep of int

let gen_program st nthreads =
  Array.init nthreads (fun _ ->
      List.init
        (4 + Random.State.int st 9)
        (fun _ ->
          match Random.State.int st 11 with
          | 0 | 1 -> Block
          | 2 | 3 -> Wake (Random.State.int st nthreads)
          | 4 -> Timer (Random.State.int st 30, Random.State.int st nthreads)
          | 5 -> Sleep (Random.State.int st 30)
          | _ -> Delay (1 + Random.State.int st 20)))

(* Run [prog]; [step] steps the run every that many us up to a bound
   past the last possible event, then runs to the end. Returns whether
   every step kept [now <= until], and everything the run observed. *)
let run_program ~cpus ?step prog =
  let e = Engine.create ~processors:cpus cm in
  let tr = Trace.create ~capacity:(1 lsl 14) () in
  Engine.set_tracer e (Some tr);
  let log = Buffer.create 256 in
  let note i what =
    Buffer.add_string log (Printf.sprintf "%d%c@%d;" i what (Engine.now e))
  in
  let ths = ref [||] in
  ths :=
    Array.mapi
      (fun i ops ->
        Engine.spawn e ~domain:(i mod 3) ~name:(string_of_int i) (fun () ->
            List.iter
              (function
                | Delay n ->
                    Engine.delay e (Time.us n);
                    note i 'd'
                | Block ->
                    note i 'b';
                    Engine.block e;
                    note i 'w'
                | Wake j ->
                    Engine.wake e !ths.(j);
                    note i 'k'
                | Timer (n, j) ->
                    ignore
                      (Engine.at e
                         (Time.add (Engine.now e) (Time.us n))
                         (fun () ->
                           note j 't';
                           Engine.wake e !ths.(j)))
                | Sleep n ->
                    note i 's';
                    Engine.sleep_until e (Time.add (Engine.now e) (Time.us n));
                    note i 'z')
              ops))
      prog;
  let within = ref true in
  (match step with
  | None -> Engine.run e
  | Some k ->
      let bound =
        Array.fold_left
          (List.fold_left (fun acc op ->
               acc
               +
               match op with
               | Delay n | Timer (n, _) | Sleep n -> (2 * n) + 50
               | _ -> 50))
          0 prog
      in
      let until = ref (Time.us k) in
      while !until <= Time.us bound do
        Engine.run ~until:!until e;
        if Engine.now e > !until then within := false;
        until := Time.add !until (Time.us k)
      done;
      Engine.run e);
  let busy =
    Array.to_list (Array.map (fun c -> string_of_int c.Engine.busy) (Engine.cpus e))
  in
  ( !within,
    String.concat "|"
      [
        Buffer.contents log;
        Trace.dump tr;
        string_of_int (Engine.now e);
        String.concat "," busy;
        string_of_int (List.length (Engine.stuck_threads e));
        String.concat ","
          (List.map
             (fun (c, ns) -> Category.slug c ^ "=" ^ string_of_int ns)
             (Engine.breakdown e));
      ] )

let prop_engine_deterministic =
  QCheck.Test.make ~name:"simulation runs are reproducible" ~count:200
    (* No shrinker: shrinking would leave these ranges (a 0 us step). *)
    (QCheck.make
       ~print:(fun (cpus, nthreads, k, seed) ->
         Printf.sprintf "cpus=%d threads=%d step=%dus seed=%d" cpus nthreads k
           seed)
       QCheck.Gen.(
         quad (int_range 1 4) (int_range 1 8) (int_range 1 40)
           (int_bound 1_000_000)))
    (fun (cpus, nthreads, k, seed) ->
      let prog = gen_program (Random.State.make [| seed |]) nthreads in
      let _, once = run_program ~cpus prog in
      let within, stepped = run_program ~cpus ~step:k prog in
      within && String.equal once stepped)

(* --- Tail charges and rests ---------------------------------------------------

   [Engine.delay_then] and [Engine.switch_then_touch] charge a second
   segment without resuming the thread between the two. Random worlds
   run one script twice, once with the tail forms and once with the two
   calls each stands for, and must agree on everything observable.

   [Engine.rest_until] is a sleep whose fiber ends, with the rest of the
   script as the thread's next body. The same worlds run once sleeping
   and once resting, each nap outside any handler, and must agree on
   everything observable, resumptions included. *)

type shot = Caught | Uncaught | Killed

type tail_op =
  | Seg of int  (** a plain delay, in us *)
  | Pair of int * int  (** a two-segment charge *)
  | Cross of int * int array  (** switch to a domain, then touch pages *)
  | Park  (** block until woken *)
  | Unpark of int  (** wake a thread *)
  | Shoot of int * int * shot
      (** in this many us, interrupt or kill a thread *)
  | Nap of int  (** sleep this many us, outside any handler *)

type tail_world = {
  tw_cpus : int;
  tw_alpha : float;
  tw_homes : int array;
  tw_scripts : tail_op list array;
  tw_step : int option;  (** step the run by [run ~until] every so many us *)
}

let gen_tail_world =
  QCheck.Gen.(
    let* tw_cpus = int_range 1 8 in
    let* tw_alpha = oneofl [ 0.0; cm.Cost_model.bus_alpha ] in
    let* n = int_range 2 6 in
    let op =
      frequency
        [
          (3, map (fun d -> Seg d) (int_range 1 20));
          (5, map2 (fun a b -> Pair (a, b)) (int_range 1 20) (int_range 0 20));
          ( 3,
            map2
              (fun d pages -> Cross (d, Array.of_list pages))
              (int_bound 2)
              (list_size (int_range 1 6) (int_bound 15)) );
          (1, return Park);
          (2, map (fun j -> Unpark j) (int_bound (n - 1)));
          ( 2,
            map3
              (fun k j shot -> Shoot (k, j, shot))
              (int_bound 25) (int_bound (n - 1))
              (frequencyl [ (3, Caught); (1, Uncaught); (1, Killed) ]) );
          (3, map (fun d -> Nap d) (int_bound 30));
        ]
    in
    let* tw_scripts = array_repeat n (list_size (int_range 2 10) op) in
    let* tw_homes =
      array_repeat n (oneof [ return (-1); int_bound (tw_cpus - 1) ])
    in
    let* tw_step = option (int_range 1 40) in
    return { tw_cpus; tw_alpha; tw_homes; tw_scripts; tw_step })

let print_tail_world w =
  let op = function
    | Seg d -> Printf.sprintf "seg %d" d
    | Pair (a, b) -> Printf.sprintf "pair %d+%d" a b
    | Cross (d, ps) ->
        Printf.sprintf "cross %d [%s]" d
          (String.concat ";" (List.map string_of_int (Array.to_list ps)))
    | Park -> "park"
    | Unpark j -> Printf.sprintf "unpark %d" j
    | Shoot (k, j, s) ->
        Printf.sprintf "%s %d in %d"
          (match s with Caught -> "interrupt" | Uncaught -> "fail" | Killed -> "kill")
          j k
    | Nap d -> Printf.sprintf "nap %d" d
  in
  Printf.sprintf "cpus=%d alpha=%g step=%s homes=[%s]\n%s" w.tw_cpus w.tw_alpha
    (match w.tw_step with Some k -> string_of_int k | None -> "-")
    (String.concat ";" (Array.to_list (Array.map string_of_int w.tw_homes)))
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i ops -> Printf.sprintf "%d: %s" i (String.concat ", " (List.map op ops)))
             w.tw_scripts)))

(* Run [w] with the tail forms ([tails]) or with the two calls each
   stands for, its naps resting ([rests]) or sleeping, and return
   whether every step stayed within its limit, everything else the run
   observed, and its resumptions. *)
let run_tail_world ~tails ~rests w =
  let e =
    Engine.create ~processors:w.tw_cpus
      { cm with Cost_model.bus_alpha = w.tw_alpha }
  in
  let tr = Trace.create ~capacity:(1 lsl 14) () in
  Engine.set_tracer e (Some tr);
  let log = Buffer.create 256 in
  let note i what =
    Buffer.add_string log (Printf.sprintf "%d%c@%d;" i what (Engine.now e))
  in
  let ths = ref [||] in
  let step i = function
    | Seg d ->
        Engine.delay e (Time.us d);
        note i 'd'
    | Pair (a, b) ->
        if tails then
          Engine.delay_then ~category:Category.Trap e (Time.us a)
            ~then_:Category.Kernel_transfer (Time.us b)
        else begin
          Engine.delay ~category:Category.Trap e (Time.us a);
          Engine.delay ~category:Category.Kernel_transfer e (Time.us b)
        end;
        note i 'p'
    | Cross (domain, pages) ->
        let pages = Tlb.footprint pages in
        if tails then Engine.switch_then_touch e ~domain ~pages
        else begin
          Engine.switch_self_context e ~domain;
          Engine.touch_pages e ~pages
        end;
        note i 'c'
    | Park ->
        note i 'b';
        Engine.block e;
        note i 'w'
    | Unpark j ->
        Engine.wake e !ths.(j);
        note i 'u'
    | Shoot (k, j, shot) ->
        ignore
          (Engine.at e
             (Time.add (Engine.now e) (Time.us k))
             (fun () ->
               note j 'i';
               match shot with
               | Caught -> Engine.interrupt e !ths.(j) (Failure "shot")
               | Uncaught -> Engine.interrupt e !ths.(j) Exit
               | Killed -> Engine.kill e !ths.(j)))
    | Nap _ -> assert false
  in
  let rec script i = function
    | [] -> ()
    | Nap d :: ops ->
        note i 's';
        let time = Time.add (Engine.now e) (Time.us d) in
        if rests then
          Engine.rest_until e time (fun () ->
              note i 'z';
              script i ops)
        else begin
          Engine.sleep_until e time;
          note i 'z';
          script i ops
        end
    | op :: ops ->
        (try step i op with Failure _ -> note i 'x');
        script i ops
  in
  ths :=
    Array.mapi
      (fun i ops ->
        Engine.spawn e ~domain:(i mod 3) ~home:w.tw_homes.(i)
          ~name:(string_of_int i) (fun () -> script i ops))
      w.tw_scripts;
  let within = ref true in
  (match w.tw_step with
  | None -> Engine.run e
  | Some k ->
      let until = ref (Time.us k) in
      while !until <= Time.ms 2 do
        Engine.run ~until:!until e;
        if Engine.now e > !until then within := false;
        until := Time.add !until (Time.us k)
      done;
      Engine.run e);
  ( !within,
    String.concat "|"
      [
        Buffer.contents log;
        Trace.dump tr;
        string_of_int (Engine.now e);
        String.concat ","
          (Array.to_list
             (Array.map (fun c -> string_of_int c.Engine.busy) (Engine.cpus e)));
        String.concat ","
          (List.map
             (fun (c, ns) -> Category.slug c ^ "=" ^ string_of_int ns)
             (Engine.breakdown e));
        string_of_int (Engine.run_pushes e);
        string_of_int (Engine.timer_pushes e);
        String.concat ","
          (List.map
             (fun (th, exn) -> Engine.thread_name th ^ ":" ^ Printexc.to_string exn)
             (Engine.failures e));
        string_of_int (List.length (Engine.stuck_threads e));
      ],
    Engine.resumptions e )

let tails_agree w =
  let within, tailed, _ = run_tail_world ~tails:true ~rests:false w in
  let _, split, _ = run_tail_world ~tails:false ~rests:false w in
  within && String.equal tailed split

let rests_agree w =
  let within, rested, rested_resumptions =
    run_tail_world ~tails:true ~rests:true w
  in
  let _, slept, slept_resumptions = run_tail_world ~tails:true ~rests:false w in
  within && String.equal rested slept && rested_resumptions = slept_resumptions

let arb_tail_world = QCheck.make ~print:print_tail_world gen_tail_world

let prop_tails_are_two_delays =
  QCheck.Test.make ~name:"tail charges observe as two delays" ~count:300
    arb_tail_world (fun w -> tails_agree w)

let prop_rests_are_sleeps =
  QCheck.Test.make ~name:"rests observe as sleeps" ~count:300 arb_tail_world
    (fun w -> rests_agree w)

(* A timer queued inside the first segment makes it suspend. The
   interrupt it leaves pending is delivered when the first segment's
   resumption pops, and the tail is never charged. *)
let test_tail_interrupt_at_boundary () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let caught = ref (-1) and after = ref false in
  let th =
    Engine.spawn e ~domain:0 (fun () ->
        try
          Engine.delay_then ~category:Category.Trap e (Time.us 10)
            ~then_:Category.Kernel_transfer (Time.us 20);
          after := true
        with Failure _ -> caught := Engine.now e)
  in
  ignore (Engine.at e (Time.us 4) (fun () -> Engine.interrupt e th (Failure "stop")));
  Engine.run e;
  check_time "delivered at the boundary" (Time.us 10) !caught;
  Alcotest.(check bool) "the statement after the tail skipped" false !after;
  Alcotest.(check (list (pair string int)))
    "only the first segment charged"
    [ ("trap", Time.us 10) ]
    (List.map (fun (c, ns) -> (Category.slug c, ns)) (Engine.breakdown e));
  check_time "busy" (Time.us 10) (Engine.cpus e).(0).Engine.busy;
  Alcotest.(check int) "started, then resumed once" 2 (Engine.resumptions e)

(* A tail charged at the boundary that ends past the limit of the run in
   progress leaves the thread queued, as the thread's own delay would. *)
let test_tail_past_limit_stays_queued () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let reached = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay_then ~category:Category.Trap e (Time.us 10)
           ~then_:Category.Kernel_transfer (Time.us 20);
         reached := Engine.now e));
  ignore (Engine.at e (Time.us 4) ignore);
  Engine.run ~until:(Time.us 15) e;
  check_time "stopped at the boundary" (Time.us 10) (Engine.now e);
  check_time "not resumed" (-1) !reached;
  check_time "tail charged at the boundary" (Time.us 30)
    (Engine.cpus e).(0).Engine.busy;
  Alcotest.(check int) "resumed once" 1 (Engine.resumptions e);
  Engine.run e;
  check_time "resumed after the tail" (Time.us 30) !reached;
  Alcotest.(check int) "dispatch, first segment, tail" 3 (Engine.run_pushes e);
  Alcotest.(check int) "resumed twice in all" 2 (Engine.resumptions e)

(* Delays and tails at their boundaries (zero / ones / max): a delay of
   0 is charged, a negative one would run the clock backwards. *)
let test_delay_bounds () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let refusals = ref 0 in
  let refuse f = try f () with Invalid_argument _ -> incr refusals in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay ~category:Category.Trap e Time.zero;
         Engine.delay_then ~category:Category.Trap e Time.zero
           ~then_:Category.Kernel_transfer Time.zero;
         refuse (fun () -> Engine.delay e (-1));
         refuse (fun () ->
             Engine.delay_then e (-1) ~then_:Category.Trap Time.zero);
         refuse (fun () ->
             Engine.delay_then e Time.zero ~then_:Category.Trap (-1));
         Engine.delay e (Time.us 1)));
  let tr = Trace.create ~capacity:64 () in
  Engine.set_tracer e (Some tr);
  Engine.run e;
  Alcotest.(check int) "negative durations refused" 3 !refusals;
  let slices = ref 0 in
  Trace.iter tr (fun ev ->
      match ev.Trace.kind with Lrpc_obs.Event.Slice _ -> incr slices | _ -> ());
  Alcotest.(check int) "zero-length delays are slices" 4 !slices;
  check_time "the clock never ran backwards" (Time.us 1) (Engine.now e);
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorted;
        prop_heap_model;
        prop_heap_shared_merge;
        prop_lane_model;
        prop_lane_shared_merge;
        prop_tlb_matches_reference;
        prop_tlb_blit_counts;
        prop_victim_ring_covers;
        prop_mult_by_cluster;
        prop_engine_deterministic;
        prop_tails_are_two_delays;
        prop_rests_are_sleeps;
      ]
  in
  Alcotest.run "lrpc_sim"
    [
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "shared counter" `Quick test_heap_shared_counter;
          Alcotest.test_case "per-heap sequences fail" `Quick
            test_heap_per_heap_seq_fails;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "take/top_time" `Quick test_heap_take_top_time;
          Alcotest.test_case "lane edges" `Quick test_heap_lane_edges;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "cvax null minimum" `Quick test_null_minimum_cvax;
          Alcotest.test_case "other minimums" `Quick test_null_minimum_others;
          Alcotest.test_case "tlb miss split" `Quick test_tlb_miss_split;
          Alcotest.test_case "cluster_size zero" `Quick test_cluster_size_zero;
          Alcotest.test_case "cluster_size max" `Quick test_cluster_size_max;
          Alcotest.test_case "cross_mult bounds" `Quick test_cross_mult_bounds;
          Alcotest.test_case "scaled factor bounds" `Quick
            test_scaled_factor_bounds;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "tagged survives" `Quick test_tlb_tagged_survives;
          Alcotest.test_case "untagged shares" `Quick test_tlb_untagged_shares_pages;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "access allocates nothing" `Quick
            test_tlb_access_allocates_nothing;
          Alcotest.test_case "tagged key range" `Quick
            test_tlb_tagged_key_range;
          Alcotest.test_case "capacity zero" `Quick test_tlb_capacity_zero;
          Alcotest.test_case "capacity one" `Quick test_tlb_capacity_one;
          Alcotest.test_case "footprint edges" `Quick test_tlb_footprint_edges;
          Alcotest.test_case "blit allocates nothing" `Quick
            test_tlb_blit_allocates_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances time" `Quick test_delay_advances_time;
          Alcotest.test_case "one cpu serializes" `Quick test_two_threads_one_cpu_serialize;
          Alcotest.test_case "two cpus parallel" `Quick test_two_cpus_parallel;
          Alcotest.test_case "block/wake" `Quick test_block_wake;
          Alcotest.test_case "failure recorded" `Quick test_spawn_failure_recorded;
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked_thread;
          Alcotest.test_case "interrupt custom exn" `Quick test_interrupt_with_custom_exn;
          Alcotest.test_case "dispatch context switch" `Quick test_context_switch_charged_on_dispatch;
          Alcotest.test_case "switch self context" `Quick test_switch_self_context;
          Alcotest.test_case "touch pages" `Quick test_touch_pages_charges_misses;
          Alcotest.test_case "handoff" `Quick test_handoff_direct_transfer;
          Alcotest.test_case "exchange processors" `Quick test_exchange_processors;
          Alcotest.test_case "steal from a refilled queue" `Quick
            test_steal_from_refilled_queue;
          Alcotest.test_case "steal after exchange" `Quick
            test_steal_after_exchange;
          Alcotest.test_case "exchange leaves a queue" `Quick
            test_exchange_leaves_queue;
          Alcotest.test_case "patch settles an idle holder" `Quick
            test_patch_settles_idle_holder;
          Alcotest.test_case "bus contention" `Quick test_bus_contention_dilates;
          Alcotest.test_case "run until" `Quick test_run_until_horizon;
          Alcotest.test_case "more threads than cpus" `Quick test_ready_queue_overflow_threads;
          Alcotest.test_case "equal-time timer first" `Quick
            test_delay_equal_time_timer_first;
          Alcotest.test_case "cross-heap tie" `Quick
            test_cross_heap_tie_follows_push_order;
          Alcotest.test_case "self interrupt then delay" `Quick
            test_self_interrupt_then_delay;
          Alcotest.test_case "sleep until" `Quick test_sleep_until_wakes_on_time;
          Alcotest.test_case "sleep left early" `Quick
            test_sleep_left_early_never_wakes_later_wait;
          Alcotest.test_case "rest until" `Quick test_rest_until_wakes_on_time;
          Alcotest.test_case "rest left early" `Quick
            test_rest_left_early_never_wakes_later_wait;
          Alcotest.test_case "kill or interrupt while resting" `Quick
            test_rest_shot;
          Alcotest.test_case "fired timers collectable" `Quick
            (timers_collectable ~cancel:false);
          Alcotest.test_case "cancelled timers collectable" `Quick
            (timers_collectable ~cancel:true);
          Alcotest.test_case "wake code next to slot 0" `Quick
            test_wake_code_next_to_slot_zero;
          Alcotest.test_case "timer slab grows" `Quick test_timer_slab_grows;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
          Alcotest.test_case "at in the past clamped" `Quick
            test_at_in_the_past_clamped;
          Alcotest.test_case "fresh counters zero" `Quick
            test_fresh_engine_counters_zero;
          Alcotest.test_case "processor bounds" `Quick
            test_engine_create_processor_bounds;
          Alcotest.test_case "domain id bounds" `Quick
            test_engine_domain_id_bounds;
          Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
          Alcotest.test_case "tail interrupt at the boundary" `Quick
            test_tail_interrupt_at_boundary;
          Alcotest.test_case "tail past the limit" `Quick
            test_tail_past_limit_stays_queued;
        ] );
      ( "partitioned engine",
        [
          Alcotest.test_case "create validation" `Quick test_engine_create_domain_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "engine lifecycle" `Quick test_engine_traces_lifecycle;
          Alcotest.test_case "yield_to" `Quick test_engine_yield_to;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion;
          Alcotest.test_case "serializes" `Quick test_spinlock_serializes_throughput;
          Alcotest.test_case "non-holder release" `Quick test_spinlock_release_by_nonholder_rejected;
          Alcotest.test_case "fifo" `Quick test_spinlock_fifo;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "signal fifo" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "signal empty" `Quick test_waitq_signal_empty;
          Alcotest.test_case "skips dead" `Quick test_waitq_skips_dead_waiters;
          Alcotest.test_case "broadcast" `Quick test_waitq_broadcast;
        ] );
      ("properties", qsuite);
    ]
