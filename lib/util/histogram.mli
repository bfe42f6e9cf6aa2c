(** Fixed-bin histograms with cumulative distributions.

    Used for Figure 1 (RPC size distribution) and for latency
    distributions in the experiment harness. *)

type t

val create : bin_width:int -> max_value:int -> t
(** [create ~bin_width ~max_value] builds a histogram whose bins cover
    [\[0, max_value)] in steps of [bin_width]; samples at or beyond
    [max_value] land in a final overflow bin. *)

val add : t -> int -> unit
(** Record one sample. Negative samples are rejected with
    [Invalid_argument]. *)

val count : t -> int
(** Total number of samples recorded. *)

val bin_count : t -> int
(** Number of bins, including the overflow bin. *)

val bin_label : t -> int -> string
(** Human-readable range label of bin [i], e.g. ["0-49"] or ["1800+"]. *)

val bin_value : t -> int -> int
(** Number of samples in bin [i]. *)

val cumulative_at : t -> int -> float
(** [cumulative_at t v] is the fraction of samples [<= v], in [\[0, 1\]]. *)

val fraction_below : t -> int -> float
(** [fraction_below t v] is the fraction of samples strictly below [v],
    computed exactly from recorded raw values when [v] is a bin boundary
    and by linear interpolation otherwise. *)

val percentile : t -> float -> int
(** [percentile t p] with [p] in [\[0, 100\]] returns the smallest recorded
    upper bin bound at which the cumulative fraction reaches [p] percent. *)

val mode_bin : t -> int
(** Index of the fullest bin. *)

val iter : t -> (lower:int -> upper:int option -> count:int -> unit) -> unit
(** Iterate bins in order; [upper = None] for the overflow bin. *)

val render :
  ?width:int -> ?unit_label:string -> t -> Format.formatter -> unit
(** Render an ASCII bar chart of the histogram together with the cumulative
    distribution, in the style of the paper's Figure 1. *)
