(** The metrics registry: named counters, gauges, and latency histograms.

    One registry per simulated machine, owned by the engine and, like
    it, confined to one host domain: instruments are plain mutable
    cells. Instruments are identified by a name plus a label set,
    Prometheus-style — e.g. [counter m ~labels:[("domain", "3")]
    "kernel.context_misses"] — and
    repeated registration of the same (name, labels) pair returns the
    same instrument, so call sites need not thread instrument handles
    around. Scoping per domain or per binding is done with labels.

    A {!snapshot} is a stable, sorted view suitable for diffing across
    runs and PRs; {!render} and {!to_json} serialize it. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : ?labels:(string * string) list -> t -> string -> counter
(** Find or register. Raises [Invalid_argument] if the key exists as a
    different instrument kind. *)

val gauge : ?labels:(string * string) list -> t -> string -> gauge

val gauge_of_int :
  ?labels:(string * string) list -> t -> string -> (unit -> int) -> unit
(** [gauge_of_int m name read] finds or registers the gauge and makes
    it pull-based: its value is [read ()], taken when it is read or
    snapshotted, so the code that keeps the count writes nothing per
    change. *)

val histogram :
  ?labels:(string * string) list ->
  ?bin_width:int ->
  ?max_value:int ->
  t ->
  string ->
  histogram
(** Find or register a histogram (default bins: width 4 up to 4096, plus
    an overflow bin — sized for microsecond-scale call latencies).
    [bin_width]/[max_value] are only consulted on first registration.

    Storage is {!Lrpc_util.Histogram}'s: 16 (bin, count) slots, allocated
    here and moved once to one count per bin (1,025 ints with the
    defaults) when a 17th distinct bin is observed. A binding registers
    seven histograms, and a Null call's stages touch one to seven bins
    of each, so a binding's histograms stay at a few hundred words;
    observing allocates only at that move. *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
  val reset : counter -> unit
  val name : counter -> string
end

module Gauge : sig
  val set : gauge -> float -> unit
  (** Hold [v] from now on; for a gauge without a pull source. *)

  val value : gauge -> float
  (** The value set last, or the pull source's count now. *)

  val name : gauge -> string
end

module Histo : sig
  val observe : histogram -> int -> unit
  (** Record a sample (clamped at 0). *)

  val observe_us : histogram -> Time.t -> unit
  (** Record a simulated duration, in microseconds rounded to nearest
      (halves away from zero); a negative duration records 0.
      Allocates nothing. *)

  val count : histogram -> int

  val percentile : histogram -> float -> int
  (** [percentile h p] for [p] in [0..100]. An empty histogram has no
      order statistics; every percentile of one is defined as 0. *)

  val name : histogram -> string
end

(** {1 Snapshots} *)

type histogram_summary = {
  hs_count : int;
  hs_p50 : int;  (** 0 when [hs_count = 0] (see {!Histo.percentile}) *)
  hs_p90 : int;
  hs_p99 : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}
(** All lists sorted by key — the order is stable across runs. *)

val snapshot : t -> snapshot

val get_counter : snapshot -> string -> int option
(** Look up by fully-qualified key, e.g. ["lrpc.calls{binding=1}"]. *)

val get_histogram : snapshot -> string -> histogram_summary option

val render : snapshot -> string
(** Aligned human-readable text, one instrument per line. *)

val to_json : snapshot -> string
(** A single JSON object:
    [{"counters":{...},"gauges":{...},"histograms":{...}}]. Histograms
    with zero samples are omitted — their quantiles would be the
    meaningless empty-histogram 0s, not data. *)

val json_escape : string -> string
(** JSON string-body escaping (shared with {!Chrome_trace}). *)
