(** Online summary statistics (Welford) and small helpers.

    Experiment drivers accumulate latencies and throughputs into a
    [Stats.t] without retaining individual samples. *)

type t

val create : unit -> t

val add : t -> float -> unit

val n : t -> int
val mean : t -> float
val variance : t -> float
(** Sample variance (n-1 denominator); [0.] when fewer than two samples. *)

val min_value : t -> float
val max_value : t -> float
val total : t -> float

val merge : t -> t -> t
(** Combine two accumulators as if all samples had gone to one. *)

val pp : Format.formatter -> t -> unit
(** [mean ± stddev (min..max, n)] one-line rendering. *)
