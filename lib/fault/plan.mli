(** Deterministic fault plans.

    A plan is a pure function of its seed: independent SplitMix64
    streams ({!Lrpc_util.Prng.split}) drive the wire verdicts,
    per-packet verdicts, server-stub exceptions, and transient A-stack
    starvation, a per-binding family of streams drives the
    retry-backoff jitter (each binding's stream is a pure function of
    (seed, binding id), so adding a binding cannot perturb another
    binding's retransmit schedule), and a list of absolute simulated
    times schedules domain crashes. Installing the same spec twice therefore injects {e
    bit-identical} fault sequences — the chaos soak
    ({!Soak}, [test/test_fault.ml]) asserts equal trace digests across
    same-seed runs, and a failure found under seed [s] is replayed with
    seed [s].

    Installation hangs the hook record on
    [rt.Lrpc_core.Rt.faults]; when no plan is installed that field is
    [None] and every consultation on the call path is a single pointer
    test, so the Table 4/5 latency figures are unchanged. *)

exception Injected_fault of string
(** Raised inside server procedures by the [server_exn] fault; surfaces
    to the caller as [Api.Stub_raised]. *)

(** Fault probabilities and crash schedule. All probabilities are per
    opportunity: per wire attempt, per dispatched local call, per
    A-stack checkout. *)
type spec = {
  seed : int64;
  wire_drop : float;  (** P(request packet lost) per attempt *)
  wire_reply_drop : float;  (** P(reply packet lost) per attempt *)
  wire_duplicate : float;
      (** P(request delivered twice) — exercises at-most-once dedup *)
  wire_delay : float;  (** P(extra wire delay) per attempt *)
  wire_delay_mean_us : float;
      (** mean of the exponential extra delay, microseconds *)
  server_exn : float;  (** P(stub raises {!Injected_fault}) per call *)
  starvation : float;
      (** P(transient A-stack starvation) per pool checkout *)
  starvation_us : float;  (** how long a starved checkout is held up *)
  crashes : (float * string) list;
      (** [(t_us, domain_name)]: terminate the named domain (if still
          active) at absolute simulated time [t_us] *)
  storm_from_us : float;  (** retry-storm window start, absolute µs *)
  storm_until_us : float;  (** retry-storm window end, absolute µs *)
  storm_reply_drop : float;
      (** extra P(reply lost) per attempt while the clock is inside the
          storm window — a transient server slowdown that makes clients
          pile on retransmissions. Drawn from its own PRNG stream (and
          only when non-zero), so storm-free specs keep their historical
          fault sequences. The {!Soak} retry-budget test uses this to
          show budgets make the storm decay instead of sustaining
          itself. *)
  pkt_drop : float;
      (** P(packet lost) per packet per attempt on the packet-granular
          ({!Lrpc_net.Erpc}) path. The whole packet-fault family draws
          from its own PRNG stream (split after every older family), so
          packet-free specs keep their historical fault sequences. *)
  pkt_ecn : float;  (** P(packet delivered with an ECN mark) *)
  pkt_dup : float;
      (** P(packet delivered twice) — exercises receiver fragment dedup *)
  pkt_delay : float;  (** P(extra one-way delay) per packet *)
  pkt_delay_mean_us : float;
      (** mean of the exponential per-packet extra delay, microseconds *)
}

val none : spec
(** Seeded but inert: every probability zero, no crashes. *)

type t

val make : spec -> t
(** Derive the per-family PRNG streams from [spec.seed]. A fresh [make]
    of an equal spec replays the same fault sequence.
    @raise Invalid_argument when a probability is outside [\[0, 1\]] or
    NaN, when a mean, [starvation_us] or a crash time is negative or
    NaN, or when [storm_until_us < storm_from_us]. *)

val spec : t -> spec

val install : t -> Lrpc_core.Api.t -> unit
(** Point [rt.faults] at this plan's hooks and schedule its crash
    timers. Injection counters appear in the engine's metrics registry
    under ["fault."] ([fault.wire_faults], [fault.server_exns],
    [fault.crashes]; [fault.astack_starvations] is incremented by the
    starved pool itself). Installing over a previous plan replaces
    it. *)

val uninstall : t -> Lrpc_core.Api.t -> unit
(** Reset [rt.faults] to [None] and cancel this plan's pending crash
    timers (crashes already delivered stay delivered). Restores the
    fault-free fast path. *)
