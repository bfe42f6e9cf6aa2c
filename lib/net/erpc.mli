(** eRPC-style packet-granular datacenter transport.

    The modern counterpart of {!Netrpc}'s era-appropriate Ethernet
    model, after "Datacenter RPCs can be General and Fast" (NSDI '19):
    messages fragment into MTU-sized packets scheduled as individual
    engine events; a per-session credit window gates injection; acks
    return credits and carry RTT samples and ECN marks into a
    Timely/DCQCN-style congestion controller (additive increase below
    [rtt_low_us], multiplicative decrease on loss, ECN, or RTT above
    [rtt_high_us]); lost packets are retransmitted {e selectively} —
    only the lost fragment, on a per-packet [rto_us] — instead of the
    classic whole-message retry. The receiver runs to completion:
    fragment reassembly and the procedure body execute without a
    per-packet thread switch, and with [zero_copy] (the default) the
    payload is handed directly into the pinned A-stack region, reusing
    the paper's shared-argument-stack insight; the [zero_copy = false]
    ablation charges a staged copy at both ends instead.

    The opt-in [binding_cache] models an Arcalis-style binding-context
    cache: the first call pays the full per-call kernel mediation
    ([kernel_mediation_us]), subsequent calls a [cache_hit_us] hit.

    Faults come from the installed {!Lrpc_fault.Plan}'s per-packet
    stream ([pkt_drop] / [pkt_ecn] / [pkt_dup] / [pkt_delay]); the
    fault-free wire never drops, and there is deliberately no
    shared-link queueing between sessions — congestion signals are
    exactly the plan's, so controller reactions replay bit-identically.

    Observability (engine metrics registry): [net.erpc.pkts_sent],
    [net.erpc.retransmits], [net.erpc.ecn_marks],
    [net.erpc.credit_stalls], [net.erpc.dup_suppressed],
    [net.erpc.bcache_hits]/[net.erpc.bcache_misses],
    [net.erpc.zerocopy_bytes]/[net.erpc.copied_bytes] counters; the
    [net.erpc.cwnd], [net.erpc.inflight_max], [net.erpc.dedup_entries]
    and [net.erpc.dedup_peak] gauges; the [net.erpc.rtt_us] histogram;
    and [net.erpc.credit_underflow], which must remain zero — the
    credit-accounting invariant the qcheck property test enforces. *)

type params = {
  mtu : int;  (** wire MTU, bytes; fragments carry [mtu - header_bytes] *)
  header_bytes : int;  (** per-packet header overhead *)
  per_byte_ns : int;  (** serialisation cost per wire byte (one way) *)
  propagation_us : float;  (** one-way propagation latency *)
  host_overhead_us : float;
      (** sender CPU cost to inject one packet (doorbell + DMA); also
          models the receiver's run-to-completion handler, folded into
          the delivery latency *)
  kernel_mediation_us : float;
      (** per-call kernel mediation (binding validation trap) *)
  cache_hit_us : float;
      (** per-call cost when the Arcalis-style binding-context cache
          hits instead of the full mediation *)
  rto_us : float;  (** per-packet retransmission timeout *)
  max_pkt_attempts : int;  (** attempts per packet before the call fails *)
  credit_cap : int;  (** hard cap on the credit window, packets *)
  init_cwnd : float;  (** initial congestion window, packets *)
  min_cwnd : float;  (** congestion-window floor *)
  ai_pkts : float;  (** additive increase per below-threshold RTT sample *)
  md_factor : float;  (** multiplicative decrease on loss/ECN/high RTT *)
  rtt_low_us : float;  (** Timely low threshold: below this, increase *)
  rtt_high_us : float;  (** Timely high threshold: above this, decrease *)
  zero_copy : bool;
      (** true: payload lands in the pinned A-stack region, no staged
          copy; false: charge [copy_ns_per_byte] at both ends *)
  copy_ns_per_byte : int;  (** staged-copy cost when [zero_copy = false] *)
  binding_cache : bool;
      (** opt-in Arcalis ablation: cache the binding context so repeat
          calls pay [cache_hit_us] instead of [kernel_mediation_us] *)
}

val default_params : params
(** 1500 B MTU / 64 B headers on the same 800 ns/byte wire as
    {!Netrpc} (the comparison isolates the {e transport}, not the
    link), 25 us one-way propagation, 8 us per-packet host overhead,
    20 us per-call kernel mediation, 400 us per-packet RTO with 8
    attempts, credit window capped at 32 starting from 8, Timely
    thresholds 1500/3000 us — calibrated to the wire: a full-MTU
    packet's unloaded RTT is ~1.26 ms, so only genuine congestion
    signals (injected delay, ECN, loss) cross the high threshold —
    zero-copy on, binding cache off. *)

val import_remote :
  ?params:params ->
  ?window:int ->
  Lrpc_core.Api.t ->
  client:Lrpc_kernel.Pdomain.t ->
  server:Lrpc_kernel.Pdomain.t ->
  Lrpc_idl.Types.interface ->
  impls:(string * (Lrpc_idl.Value.t list -> Lrpc_idl.Value.t list)) list ->
  Lrpc_core.Rt.binding
(** Bind to an interface served on another machine over the
    packet-granular transport. Drop-in for {!Netrpc.import_remote}:
    the returned Binding Object has its remote bit set, [window]
    (default 8) bounds in-flight {e messages} exactly as on the
    classic path ([params.credit_cap] bounds in-flight {e packets}
    within the session), and ["net.remote_calls"] counts logical
    calls. At-most-once: one procedure execution per sequence number,
    held in the call's {!Remote} cell, which lives only until the
    transport call exits. Live cells are bounded by [window] and
    gauged by [net.erpc.dedup_entries]; nothing is kept per completed
    call. Unknown procedures and ill-typed arguments raise at issue.
    A packet lost [max_pkt_attempts] times surfaces as
    [Rt.Call_failed]. *)
