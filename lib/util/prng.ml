(* SplitMix64, computed on two 32-bit limbs held in native ints.

   The PRNG sits in the innermost loops of the workload models (millions
   of draws per table), and without flambda every [Int64] intermediate
   is boxed — around eight minor-heap allocations per draw. Carrying the
   state as two untagged 32-bit limbs and doing the 64-bit wrap-around
   arithmetic by hand (16-bit sub-limbs keep every partial product
   inside the 63-bit native range) makes a draw allocation-free while
   producing the exact bit stream of the Int64 formulation; [next_int64]
   re-packs on demand for callers that want the raw word. Requires a
   64-bit platform, as does the rest of the simulator. *)

type t = {
  mutable hi : int; (* state, high 32 bits *)
  mutable lo : int; (* state, low 32 bits *)
  mutable zhi : int; (* last output, high 32 bits *)
  mutable zlo : int; (* last output, low 32 bits *)
}

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* SplitMix64 constants, split into 32-bit halves.
   gamma = 0x9E3779B97F4A7C15, c1 = 0xBF58476D1CE4E5B9,
   c2 = 0x94D049BB133111EB. *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15
let c1_hi = 0xBF58476D
let c1_lo = 0x1CE4E5B9
let c2_hi = 0x94D049BB
let c2_lo = 0x133111EB

let create ~seed =
  {
    hi = Int64.to_int (Int64.shift_right_logical seed 32) land mask32;
    lo = Int64.to_int seed land mask32;
    zhi = 0;
    zlo = 0;
  }

(* Low and high 32 bits of the 64-bit product of two 32-bit values. *)
let[@inline] mul32_lo a b =
  let a0 = a land mask16 and a1 = a lsr 16 in
  let b0 = b land mask16 and b1 = b lsr 16 in
  ((a0 * b0) + (((a0 * b1) + (a1 * b0)) lsl 16)) land mask32

let[@inline] mul32_hi a b =
  let a0 = a land mask16 and a1 = a lsr 16 in
  let b0 = b land mask16 and b1 = b lsr 16 in
  let p00 = a0 * b0 and p01 = a0 * b1 and p10 = a1 * b0 and p11 = a1 * b1 in
  let mid = (p00 lsr 16) + (p01 land mask16) + (p10 land mask16) in
  (p11 + (p01 lsr 16) + (p10 lsr 16) + (mid lsr 16)) land mask32

(* Advance the state by gamma and mix; the output lands in zhi/zlo.
   Each `z *= c` keeps the low 64 bits, i.e.
   lo' = lo(z_lo * c_lo), hi' = hi(z_lo * c_lo) + z_lo*c_hi + z_hi*c_lo. *)
let advance t =
  let slo = t.lo + gamma_lo in
  let shi = (t.hi + gamma_hi + (slo lsr 32)) land mask32 in
  let slo = slo land mask32 in
  t.hi <- shi;
  t.lo <- slo;
  (* z ^= z >>> 30 *)
  let xhi = shi lxor (shi lsr 30) in
  let xlo = slo lxor ((slo lsr 30) lor ((shi lsl 2) land mask32)) in
  (* z *= c1 *)
  let yhi =
    (mul32_hi xlo c1_lo + mul32_lo xlo c1_hi + mul32_lo xhi c1_lo) land mask32
  in
  let ylo = mul32_lo xlo c1_lo in
  (* z ^= z >>> 27 *)
  let xhi = yhi lxor (yhi lsr 27) in
  let xlo = ylo lxor ((ylo lsr 27) lor ((yhi lsl 5) land mask32)) in
  (* z *= c2 *)
  let zhi =
    (mul32_hi xlo c2_lo + mul32_lo xlo c2_hi + mul32_lo xhi c2_lo) land mask32
  in
  let zlo = mul32_lo xlo c2_lo in
  (* z ^= z >>> 31 *)
  t.zhi <- zhi lxor (zhi lsr 31);
  t.zlo <- zlo lxor ((zlo lsr 31) lor ((zhi lsl 1) land mask32))

let next_int64 t =
  advance t;
  Int64.logor (Int64.shift_left (Int64.of_int t.zhi) 32) (Int64.of_int t.zlo)

let split t = create ~seed:(next_int64 t)

let copy t = { hi = t.hi; lo = t.lo; zhi = t.zhi; zlo = t.zlo }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  assert (bound > 0.);
  (* 53 high bits give a uniform double in [0,1). The 53-bit word fits
     a native int, so this matches the Int64 formulation bit for bit. *)
  advance t;
  let bits = (t.zhi lsl 21) lor (t.zlo lsr 11) in
  float_of_int bits /. 9007199254740992. *. bound

let bool t =
  advance t;
  t.zlo land 1 = 1

let bernoulli t ~p = float t 1.0 < p

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let choose t ~weights =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weights in
  assert (total > 0.);
  let u = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.choose: empty weights"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > u then x else pick (acc +. w) rest
  in
  pick 0.0 weights

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
