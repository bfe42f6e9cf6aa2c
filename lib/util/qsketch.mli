(** Mergeable quantile sketch over non-negative integers.

    HdrHistogram-style fixed layout: values below [2^sub_bits] get
    exact one-unit buckets; above that, each power-of-two range is
    split into [2^sub_bits] linear sub-buckets, so the relative
    quantile error is bounded by [2^-sub_bits] (~3.1% at the default
    [sub_bits = 5]) at every magnitude up to [max_int].

    Because the layout is fixed by [sub_bits] alone, two sketches with
    the same [sub_bits] merge by summing bucket counts — [merge a b]
    is {e exactly} the sketch of the concatenated samples, making
    sketches from separate runs or workers safe to combine with no
    quantile drift beyond the bucket error already paid at [add] time.

    Quantiles are reported as the inclusive upper bound of the bucket
    holding the target rank, so a reported quantile never understates
    the true order statistic: [exact <= quantile t q <= exact * (1 +
    2^-sub_bits)] (plus one unit of integer slack). An empty sketch
    reports 0 for every quantile, mirroring
    {!Lrpc_util.Histogram.percentile}. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 5) fixes the accuracy/size trade-off:
    [2^sub_bits] sub-buckets per power of two, relative error
    [2^-sub_bits], about [(64 - sub_bits) * 2^sub_bits] slots.
    @raise Invalid_argument outside [1..16]. *)

val sub_bits : t -> int

val relative_error : t -> float
(** [2^-sub_bits]: the worst-case relative quantile overestimate. *)

val add : t -> int -> unit
(** Record one sample. @raise Invalid_argument on a negative value. *)

val count : t -> int
val sum : t -> int

val mean : t -> float
(** Exact mean of the recorded samples (the sum is tracked exactly);
    0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [[0, 1]]: upper bound of the bucket
    containing the [ceil (q * count)]-th smallest sample (rank at
    least 1), 0 when empty. @raise Invalid_argument outside [0..1]. *)

val p50 : t -> int
val p99 : t -> int
val p999 : t -> int

val merge : t -> t -> t
(** A fresh sketch equivalent to one fed both inputs' samples; the
    arguments are unchanged. @raise Invalid_argument when the
    [sub_bits] differ. *)
