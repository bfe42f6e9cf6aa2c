(** Cross-machine RPC over a simulated Ethernet (paper §5.1).

    LRPC keeps network transparency by deciding local-vs-remote at the
    earliest possible moment: the Binding Object carries a remote bit
    tested by the first instruction of the stub, which branches to a
    conventional network RPC path. This module is that path: an
    era-appropriate 10 Mbit/s Ethernet model with the Firefly's measured
    ~2.66 ms network Null time (Schroeder & Burrows 1989), packetized at
    1500 bytes.

    The extra level of indirection the branch costs is one conditional —
    negligible against the millisecond-scale remote call, which the
    transparency test asserts. *)

val ethernet_mtu : int

val null_network_us : float
(** Round-trip Null RPC time between two Fireflies, microseconds. *)

val wire_time : bytes:int -> Lrpc_sim.Time.t
(** Protocol + wire time for a round trip moving [bytes] of argument and
    result data: the Null constant plus serialization at 10 Mbit/s plus a
    per-extra-packet charge (multi-packet calls have performance
    problems, §5.2 — this is why). *)

val import_remote :
  ?window:int ->
  ?rto:Lrpc_sim.Time.t ->
  ?max_attempts:int ->
  ?retry_budget:float ->
  Lrpc_core.Api.t ->
  client:Lrpc_kernel.Pdomain.t ->
  server:Lrpc_kernel.Pdomain.t ->
  Lrpc_idl.Types.interface ->
  impls:(string * (Lrpc_idl.Value.t list -> Lrpc_idl.Value.t list)) list ->
  Lrpc_core.Rt.binding
(** Bind to an interface served on another machine ([server] must live on
    a different [machine] than [client]). Calls through the returned
    Binding Object take the network path but look exactly like local
    ones to the caller — including the asynchronous handle API:
    [Api.call_async] through a remote binding claims one of [window]
    (default 8, the wire analogue of the A-stack pool bound) in-flight
    slots, blocking FIFO when the window is full, and [Api.await] reads
    the reply when it lands.

    The wire is {e at-most-once}: every transport call carries a
    per-binding sequence number and one {!Remote} cell, and a
    retransmission whose original request did execute (reply lost, or a
    duplicated packet) is answered from the cell instead of re-running
    the procedure (the ["net.duplicates_suppressed"] counter records
    each suppression). The cell lives until the transport call exits, so
    live cells never exceed [window]; ["net.dedup_cache_entries"]
    gauges them and ["net.dedup_cache_peak"] keeps their high-water
    mark. Nothing is kept per completed call.
    Lost packets — injected by an installed fault plan
    ([Lrpc_fault.Plan]); the fault-free wire never drops — are retried
    with bounded exponential backoff: attempt [n] waits
    [rto * 2^(n-1) * (1 + jitter)] (default [rto] 4 ms, jitter drawn
    from the fault plan's {e per-binding} stream — a pure function of
    (seed, binding id), so replays are bit-identical and adding a
    binding cannot perturb another binding's retransmit schedule),
    incrementing ["net.retries"] per retransmission. After
    [max_attempts] (default 5) the call surfaces as
    [Rt.Call_failed]. ["net.remote_calls"] still counts logical calls:
    exactly one increment per transport call, however many
    retransmissions it took.

    [retry_budget] (off by default) bounds the retry rate with a
    per-binding token bucket: each logical call accrues [retry_budget]
    tokens (so [0.1] caps sustained retries at 10% of the request rate,
    the gRPC-style throttle), each retransmission spends one, and the
    bucket is capped at 10 tokens (and starts full, so isolated bursts
    still retry). A retry with an empty bucket is suppressed — counted
    in ["net.retries_suppressed"] — and the call surfaces immediately as
    [Rt.Overloaded], carrying the backoff it would have slept as the
    retry-after hint. This is the client half of overload control: under
    a server slowdown the retry storm decays instead of sustaining
    itself (metastable failure).

    Unknown procedures and ill-typed arguments raise at issue, before
    a window slot or a sequence number is taken (see {!Remote}). *)

val remote_calls : Lrpc_core.Api.t -> int
(** Count of network RPCs performed through this runtime, read from
    ["net.remote_calls"] in the engine's metrics registry. *)

val reset_remote_calls : Lrpc_core.Api.t -> unit
