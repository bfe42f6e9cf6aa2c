(** Deterministic pseudo-random number generation.

    Every stochastic component of the reproduction draws from an explicit
    [Prng.t] so that simulations are reproducible given a seed, and so that
    independent subsystems can be given independent streams ([split]). The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny, fast,
    and of more than adequate quality for workload synthesis. *)

type t

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state of [t]; the copy and the original
    then produce identical streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val choose : t -> weights:(float * 'a) list -> 'a
(** [choose t ~weights] picks an element with probability proportional to
    its weight. The list must be non-empty with positive total weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
