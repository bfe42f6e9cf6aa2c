(* Exact LRU over [capacity] preallocated slots. Slots [0, live) hold a
   key and its last-use stamp; a miss fills the next free slot or, when
   every slot is live, overwrites the one with the minimum stamp. Stamps
   come from one clock bumped on every touch, so they are unique and the
   minimum is exactly the least recently used entry.

   A refill of an empty untagged TLB with n <= capacity pages is
   recorded, not replayed: [held] is the footprint and [held_from] the
   clock before it. The per-page loop would have evicted nothing, missed
   on each distinct page once and left the distinct pages in first-touch
   order with stamps fixed by [held_from]; the record keeps the live
   count, the clock and the counters exact, and [settle_held] replays
   the loop from [held_from] for a reader that needs the slots
   themselves. Nothing on the access path allocates. *)

type footprint = { pages : int array; mutable distinct : int }

(* Distinct pages. The annotation makes [<>] an int compare: left
   polymorphic, it is a C call per pair, and the recount after an
   E-stack patch would cost more than the refill it replaces. *)
let count_distinct (pages : int array) =
  let d = ref 0 in
  for j = 0 to Array.length pages - 1 do
    let p = pages.(j) in
    let i = ref 0 in
    while !i < j && pages.(!i) <> p do
      incr i
    done;
    if !i = j then incr d
  done;
  !d

let footprint pages = { pages; distinct = count_distinct pages }
let empty_footprint = { pages = [||]; distinct = 0 }
let footprint_length fp = Array.length fp.pages
let footprint_distinct fp = fp.distinct
let footprint_pages fp = Array.copy fp.pages

type t = {
  capacity : int;
  tagged : bool;
  keys : int array; (* slot -> key: the page, or domain and page packed *)
  stamps : int array; (* slot -> last-use stamp *)
  mutable live : int;
  mutable clock : int;
  mutable held : footprint;
      (* a recorded refill not yet in the slots, [empty_footprint] for
         none; only ever set with [live] its distinct count, so [live = 0]
         means nothing is held *)
  mutable held_from : int; (* the clock before the recorded refill *)
  mutable misses : int;
  mutable flushes : int;
}

let create ~capacity ~tagged =
  if capacity < 1 then invalid_arg "Tlb.create: capacity must be at least 1";
  {
    capacity;
    tagged;
    keys = Array.make capacity 0;
    stamps = Array.make capacity 0;
    live = 0;
    clock = 0;
    held = empty_footprint;
    held_from = 0;
    misses = 0;
    flushes = 0;
  }

let invalidate t =
  if (not t.tagged) && t.live > 0 then begin
    t.live <- 0;
    t.held <- empty_footprint;
    t.flushes <- t.flushes + 1
  end

(* A tagged key packs the domain above a 40-bit page number. *)
let page_bits = 40

let key t ~domain ~page =
  if not t.tagged then page
  else if page lsr page_bits <> 0 || domain lsr (Sys.int_size - page_bits) <> 0
  then invalid_arg "Tlb: page or domain out of range for a tagged entry"
  else (domain lsl page_bits) lor page

(* Slot holding [k], or -1. A loop rather than a local closure, which
   would be allocated on every call. *)
let find t k =
  let keys = t.keys in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < t.live do
    if keys.(!i) = k then found := !i;
    incr i
  done;
  !found

let lru_slot t =
  let stamps = t.stamps in
  let victim = ref 0 in
  for i = 1 to t.live - 1 do
    if stamps.(i) < stamps.(!victim) then victim := i
  done;
  !victim

let touch t k =
  t.clock <- t.clock + 1;
  let i = find t k in
  if i >= 0 then begin
    t.stamps.(i) <- t.clock;
    false
  end
  else begin
    let slot =
      if t.live < t.capacity then begin
        let s = t.live in
        t.live <- s + 1;
        s
      end
      else lru_slot t
    in
    t.keys.(slot) <- k;
    t.stamps.(slot) <- t.clock;
    true
  end

(* Replay the recorded refill into the slots, from the clock it started
   at. Its misses were counted when it was recorded. Only untagged TLBs
   record, so a key is the page. *)
let settle_held t =
  let fp = t.held in
  if fp != empty_footprint then begin
    t.held <- empty_footprint;
    t.live <- 0;
    t.clock <- t.held_from;
    let pages = fp.pages in
    for i = 0 to Array.length pages - 1 do
      ignore (touch t pages.(i))
    done
  end

let settle t fp = if t.held == fp then settle_held t

let access t ~domain ~pages:fp =
  let n = Array.length fp.pages in
  if t.live = 0 && (not t.tagged) && n > 0 && n <= t.capacity then begin
    t.held <- fp;
    t.held_from <- t.clock;
    t.clock <- t.clock + n;
    t.live <- fp.distinct;
    t.misses <- t.misses + fp.distinct;
    fp.distinct
  end
  else begin
    settle_held t;
    let pages = fp.pages in
    let misses = ref 0 in
    for i = 0 to n - 1 do
      if touch t (key t ~domain ~page:pages.(i)) then incr misses
    done;
    t.misses <- t.misses + !misses;
    !misses
  end

(* The distinct count of [pages] after [pages.(pos .. pos + len - 1)]
   was overwritten, when every page was distinct before: the pages
   outside the window still are, so only a window page equal to none
   before it and none after the window adds to them. That is
   len * (n - len) + len * (len - 1) / 2 compares, where a recount
   takes n * (n - 1) / 2. *)
let distinct_after_patch (pages : int array) ~pos ~len =
  let n = Array.length pages and stop = pos + len in
  let d = ref (n - len) in
  for j = pos to stop - 1 do
    let p = pages.(j) in
    let i = ref 0 in
    while !i < j && pages.(!i) <> p do
      incr i
    done;
    if !i = j then begin
      let i = ref stop in
      while !i < n && pages.(!i) <> p do
        incr i
      done;
      if !i = n then incr d
    end
  done;
  !d

let blit ~src fp ~pos ~len =
  let all_distinct = fp.distinct = Array.length fp.pages in
  Array.blit src 0 fp.pages pos len;
  fp.distinct <-
    (if all_distinct then distinct_after_patch fp.pages ~pos ~len
     else count_distinct fp.pages)

let resident t ~domain ~page =
  let k = key t ~domain ~page in
  settle_held t;
  find t k >= 0

let miss_count t = t.misses
let flush_count t = t.flushes
