(* An event queue of int payloads keyed by (time, sequence): a 4-ary
   min-heap plus an append-only lane.

   This is the engine's event queue, popped once per simulated event, so
   the representation is chosen for the host hot path. Entries are held
   in parallel int arrays (times, sequences, payloads) instead of one
   heap-allocated record per push; payloads are ints (the engine stores
   thread ids and timer slots), so no write goes through the GC's write
   barrier and nothing popped is retained. Because (time, seq) is a total
   order (sequences are unique), the pop order is exactly any other
   correct queue's: determinism is representation-independent.

   The lane is a ring of entries already in (time, seq) order. A push
   appends to it when its time is at or after the time of the lane's
   newest entry, or when the lane is empty; every other push goes to the
   heap. Each push takes the next value of the counter, so a sequence
   appended is above every sequence in the lane, and the lane stays
   sorted by (time, seq): its oldest entry is its least. A take compares
   the lane's oldest entry with the heap's root and pops the lesser,
   which is the least entry of the queue. When times are pushed in
   order, as when every processor runs the same loop, every push and
   pop is O(1) and the heap stays empty.

   Two facts follow, and the code below leans on both. An entry goes to
   the heap only while the lane holds a later time, and that lane entry
   cannot pop before the heap entry does; so the lane is never empty
   while the heap is not, and it has held an entry ever since each heap
   entry's push. Every entry the lane took in that while has a time at
   or after that later time. So a lane entry whose time ties the heap's
   root was pushed before it, and holds the lower sequence: on a tie of
   times, the lane's head comes first.

   Four children per heap node halve the depth of a binary heap, and
   both sifts move a hole instead of swapping: the moving entry is held
   in locals and written once, where the hole stops.

   Queues created with [~share] draw their sequences from one counter,
   so a sequence is unique across all of them and the (time, seq) order
   of their tops is the order a single queue holding every entry would
   pop them in. *)

type counter = { mutable next : int }

type t = {
  (* the heap *)
  mutable times : int array;
  mutable seqs : int array;
  mutable data : int array;
  mutable size : int;
  (* the lane: [l_len] entries from [l_head], wrapping at the arrays'
     length, a power of two *)
  mutable l_times : int array;
  mutable l_seqs : int array;
  mutable l_data : int array;
  mutable l_head : int;
  mutable l_len : int;
  mutable l_last : int;
      (* the time of the lane's newest entry, [min_int] when the lane is
         empty: a push at or after it appends *)
  counter : counter;
}

let create ?share () =
  let counter = match share with Some h -> h.counter | None -> { next = 0 } in
  {
    times = [||];
    seqs = [||];
    data = [||];
    size = 0;
    l_times = [||];
    l_seqs = [||];
    l_data = [||];
    l_head = 0;
    l_len = 0;
    l_last = min_int;
    counter;
  }

let is_empty t = t.l_len = 0
let length t = t.size + t.l_len
let next_seq t = t.counter.next

(* The [n] entries of [a] from [head], wrapping at its end, at the
   start of a fresh array of [ncap]. The heap's entries start at 0. *)
let copied a head n ncap =
  let b = Array.make ncap 0 in
  let first = min n (Array.length a - head) in
  Array.blit a head b 0 first;
  Array.blit a 0 b first (n - first);
  b

let grow t =
  let ncap = max 16 (Array.length t.times * 2) in
  t.times <- copied t.times 0 t.size ncap;
  t.seqs <- copied t.seqs 0 t.size ncap;
  t.data <- copied t.data 0 t.size ncap

let grow_lane t =
  let ncap = max 16 (Array.length t.l_times * 2) in
  t.l_times <- copied t.l_times t.l_head t.l_len ncap;
  t.l_seqs <- copied t.l_seqs t.l_head t.l_len ncap;
  t.l_data <- copied t.l_data t.l_head t.l_len ncap;
  t.l_head <- 0

(* Every index below is under the arrays' length ([push] grows them
   first; the rest read below the size, or mask a ring index by the
   lane's power-of-two length), so the accesses are unchecked. *)

let heap_push t time seq payload =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and data = t.data in
  let i = ref t.size in
  t.size <- t.size + 1;
  (* No queue sharing the counter holds a later sequence, so the new
     entry rises only past parents with a strictly later time. *)
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 2 in
    if Array.unsafe_get times p > time then begin
      Array.unsafe_set times !i (Array.unsafe_get times p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set data !i (Array.unsafe_get data p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set data !i payload

let lane_push t time seq payload =
  if t.l_len = Array.length t.l_times then grow_lane t;
  let i = (t.l_head + t.l_len) land (Array.length t.l_times - 1) in
  Array.unsafe_set t.l_times i time;
  Array.unsafe_set t.l_seqs i seq;
  Array.unsafe_set t.l_data i payload;
  t.l_len <- t.l_len + 1;
  t.l_last <- time

let push t ~time payload =
  let seq = t.counter.next in
  t.counter.next <- seq + 1;
  if time >= t.l_last then lane_push t time seq payload
  else heap_push t time seq payload

(* Whether the lane's head is the least entry of a non-empty queue:
   the heap is empty, or its root's time is not earlier (on a tie the
   lane's head is the older entry). *)
let lane_first t =
  t.size = 0
  || Array.unsafe_get t.l_times t.l_head <= Array.unsafe_get t.times 0

let top_time t =
  if t.l_len = 0 then invalid_arg "Heap.top_time: empty heap"
  else if lane_first t then Array.unsafe_get t.l_times t.l_head
  else Array.unsafe_get t.times 0

let top_seq t =
  if t.l_len = 0 then invalid_arg "Heap.top_seq: empty heap"
  else if lane_first t then Array.unsafe_get t.l_seqs t.l_head
  else Array.unsafe_get t.seqs 0

(* [earliest] serves the engine's loop and its in-place delays, once
   per event; the engine calls [precedes] only on a tie of times. *)
let earliest t =
  if t.l_len = 0 then max_int
  else
    let lt = Array.unsafe_get t.l_times t.l_head in
    if t.size = 0 then lt
    else
      let ht = Array.unsafe_get t.times 0 in
      if ht < lt then ht else lt

let precedes a b =
  (not (is_empty a))
  && (is_empty b
     ||
     let ta = top_time a and tb = top_time b in
     ta < tb || (ta = tb && top_seq a < top_seq b))

let lane_take t =
  let i = t.l_head in
  t.l_head <- (i + 1) land (Array.length t.l_times - 1);
  t.l_len <- t.l_len - 1;
  if t.l_len = 0 then t.l_last <- min_int;
  Array.unsafe_get t.l_data i

let heap_take t =
  let times = t.times and seqs = t.seqs and data = t.data in
  let payload = Array.unsafe_get data 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* The last entry fills the hole left at the root: walk the hole
       down, lifting the least child while it precedes that entry. *)
    let time = Array.unsafe_get times n
    and seq = Array.unsafe_get seqs n
    and last = Array.unsafe_get data n in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let c = (4 * !i) + 1 in
      if c >= n then sinking := false
      else begin
        let m = ref c in
        let mt = ref (Array.unsafe_get times c) in
        let ms = ref (Array.unsafe_get seqs c) in
        for j = c + 1 to if c + 3 < n then c + 3 else n - 1 do
          let tj = Array.unsafe_get times j in
          if tj < !mt || (tj = !mt && Array.unsafe_get seqs j < !ms) then begin
            m := j;
            mt := tj;
            ms := Array.unsafe_get seqs j
          end
        done;
        if !mt < time || (!mt = time && !ms < seq) then begin
          Array.unsafe_set times !i !mt;
          Array.unsafe_set seqs !i !ms;
          Array.unsafe_set data !i (Array.unsafe_get data !m);
          i := !m
        end
        else sinking := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set data !i last
  end;
  payload

let take t =
  if t.l_len = 0 then invalid_arg "Heap.take: empty heap"
  else if lane_first t then lane_take t
  else heap_take t

let pop t =
  if is_empty t then None
  else begin
    let time = top_time t in
    let payload = take t in
    Some (time, payload)
  end
