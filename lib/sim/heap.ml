(* Struct-of-arrays 4-ary min-heap keyed by (time, sequence).

   This is the engine's event queue, popped once per simulated event, so
   the representation is chosen for the host hot path: three parallel
   arrays (times, sequences, payloads) instead of one heap-allocated
   entry record per push. A push writes three slots and sifts; no
   allocation happens outside the amortized array doubling. Because
   (time, seq) is a total order (sequences are unique), the pop order is
   exactly any other correct heap's — determinism is representation-
   independent.

   Four children per node halve the depth of a binary heap, and both
   sifts move a hole instead of swapping: the moving entry is held in
   locals and written once, where the hole stops.

   Heaps created with [~share] draw their sequences from one counter,
   so a sequence is unique across all of them and the (time, seq) order
   of their tops is the order a single heap holding every entry would
   pop them in.

   Vacated payload slots are overwritten with a dummy immediate so the
   heap never retains popped payloads (closures, threads) until a later
   push happens to overwrite them. The dummy is an immediate int cast to
   ['a]; it is never read back, and [Array.make] with an immediate
   initializer builds a uniform (non-flat) array, so the trick stays
   sound even for float payloads. *)

let dummy : unit -> 'a = fun () -> Obj.magic 0

type counter = { mutable next : int }

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  counter : counter;
}

let create ?share () =
  let counter = match share with Some h -> h.counter | None -> { next = 0 } in
  { times = [||]; seqs = [||]; data = [||]; size = 0; counter }

let is_empty t = t.size = 0
let length t = t.size
let next_seq t = t.counter.next

let grow t =
  let ncap = max 16 (Array.length t.times * 2) in
  let times = Array.make ncap 0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make ncap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let data = Array.make ncap (dummy ()) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

(* Every index below is under the arrays' length ([push] grows them
   first; the rest read below the size), so the accesses are
   unchecked. *)

let push t ~time payload =
  if t.size = Array.length t.times then grow t;
  let seq = t.counter.next in
  t.counter.next <- seq + 1;
  let times = t.times and seqs = t.seqs and data = t.data in
  let i = ref t.size in
  t.size <- t.size + 1;
  (* No heap sharing the counter holds a later sequence, so the new
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

let top_time t =
  if t.size = 0 then invalid_arg "Heap.top_time: empty heap";
  Array.unsafe_get t.times 0

let top_seq t =
  if t.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  Array.unsafe_get t.seqs 0

(* [earliest] serves the engine's loop and its in-place delays, once
   per event. Dune's -opaque dev builds inline nothing from this module
   into the engine, so it takes one argument: that call is a direct
   jump, where a two-argument call goes through an arity check. The
   engine calls [precedes] only on a tie of times. *)
let earliest t = if t.size = 0 then max_int else Array.unsafe_get t.times 0

let precedes a b =
  a.size > 0
  && (b.size = 0
     ||
     let ta = Array.unsafe_get a.times 0 and tb = Array.unsafe_get b.times 0 in
     ta < tb || (ta = tb && Array.unsafe_get a.seqs 0 < Array.unsafe_get b.seqs 0))

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
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
  (* Release the vacated slot so the payload becomes collectable. *)
  Array.unsafe_set data n (dummy ());
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let payload = take t in
    Some (time, payload)
  end

let clear t =
  (* Null every retained slot, not just [0, size): popped entries left
     stale payload references in [size, length) before this rewrite. *)
  Array.fill t.data 0 (Array.length t.data) (dummy ());
  t.size <- 0
