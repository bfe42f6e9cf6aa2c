(* Exact LRU over [capacity] preallocated slots. Slots [0, live) hold a
   key and its last-use stamp; a miss fills the next free slot or, when
   every slot is live, overwrites the one with the minimum stamp. Stamps
   come from one clock bumped on every touch, so they are unique and the
   minimum is exactly the least recently used entry.

   [summary] ORs one bit per key inserted since the last flush, so a key
   whose bit is clear is surely absent and its touch skips the lookup
   scan. Evicted keys keep their bits: a set bit only means "scan". The
   refill after a context switch is nearly all sure misses into free
   slots, so it costs no scan at all. Nothing on the access path
   allocates. *)

type t = {
  capacity : int;
  tagged : bool;
  keys : int array; (* slot -> key: the page, or domain and page packed *)
  stamps : int array; (* slot -> last-use stamp *)
  mutable live : int;
  mutable summary : int; (* OR of [bit k] over keys inserted since a flush *)
  mutable clock : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ~capacity ~tagged =
  assert (capacity > 0);
  {
    capacity;
    tagged;
    keys = Array.make capacity 0;
    stamps = Array.make capacity 0;
    live = 0;
    summary = 0;
    clock = 0;
    misses = 0;
    flushes = 0;
  }

let invalidate t =
  if (not t.tagged) && t.live > 0 then begin
    t.live <- 0;
    t.summary <- 0;
    t.flushes <- t.flushes + 1
  end

(* A tagged key packs the domain above a 40-bit page number. *)
let page_bits = 40

let key t ~domain ~page =
  if not t.tagged then page
  else if page lsr page_bits <> 0 || domain lsr (Sys.int_size - page_bits) <> 0
  then invalid_arg "Tlb: page or domain out of range for a tagged entry"
  else (domain lsl page_bits) lor page

(* A key's summary bit: the key mod 63, the bits of an OCaml int. The
   pages of a region are consecutive, so they get distinct bits. *)
let bit k = 1 lsl ((k land max_int) mod 63)

(* Slot holding [k], or -1. A loop rather than a local closure, which
   would be allocated on every call. *)
let find t k =
  if t.summary land bit k = 0 then -1
  else begin
    let keys = t.keys in
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < t.live do
      if keys.(!i) = k then found := !i;
      incr i
    done;
    !found
  end

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
    t.summary <- t.summary lor bit k;
    true
  end

let access t ~domain ~pages =
  let misses = ref 0 in
  for i = 0 to Array.length pages - 1 do
    if touch t (key t ~domain ~page:pages.(i)) then incr misses
  done;
  t.misses <- t.misses + !misses;
  !misses

let resident t ~domain ~page = find t (key t ~domain ~page) >= 0

let miss_count t = t.misses
let flush_count t = t.flushes
