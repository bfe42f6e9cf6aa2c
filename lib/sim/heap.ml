(* Struct-of-arrays binary min-heap keyed by (time, sequence).

   This is the engine's event queue, popped once per simulated event, so
   the representation is chosen for the host hot path: three parallel
   arrays (times, sequences, payloads) instead of one heap-allocated
   entry record per push. A push writes three slots and sifts; no
   allocation happens outside the amortized array doubling. Because
   (time, seq) is a total order (sequences are unique), the pop order is
   exactly the old entry-record heap's — determinism is representation-
   independent.

   Vacated payload slots are overwritten with a dummy immediate so the
   heap never retains popped payloads (closures, threads) until a later
   push happens to overwrite them. The dummy is an immediate int cast to
   ['a]; it is never read back, and [Array.make] with an immediate
   initializer builds a uniform (non-flat) array, so the trick stays
   sound even for float payloads. *)

let dummy : unit -> 'a = fun () -> Obj.magic 0

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; data = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let[@inline] less t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let pl = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- pl

let grow t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = max 16 (cap * 2) in
    let times = Array.make ncap 0 in
    Array.blit t.times 0 times 0 t.size;
    t.times <- times;
    let seqs = Array.make ncap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs;
    let data = Array.make ncap (dummy ()) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time payload =
  grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.data.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let top_time t =
  if t.size = 0 then invalid_arg "Heap.top_time: empty heap";
  t.times.(0)

let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
  let payload = t.data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.times.(0) <- t.times.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.data.(0) <- t.data.(n)
  end;
  (* Release the vacated slot so the payload becomes collectable. *)
  t.data.(n) <- dummy ();
  if n > 1 then sift_down t 0;
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
