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

val histogram :
  ?labels:(string * string) list ->
  ?bin_width:int ->
  ?max_value:int ->
  t ->
  string ->
  histogram
(** Find or register a histogram (default bins: width 4 up to 4096, plus
    an overflow bin — sized for microsecond-scale call latencies).
    [bin_width]/[max_value] are only consulted on first registration. *)

module Counter : sig
  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
  val reset : counter -> unit
  val name : counter -> string
end

module Gauge : sig
  val set : gauge -> float -> unit
  val value : gauge -> float
  val name : gauge -> string
end

module Histo : sig
  val observe : histogram -> int -> unit
  (** Record a sample (clamped at 0). *)

  val observe_us : histogram -> Time.t -> unit
  (** Record a simulated duration, in microseconds rounded to nearest. *)

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
