(** Figure 2 — Call Throughput on a Multiprocessor.

    Closed-loop Null calls, one caller (in its own domain) per
    processor, domain caching disabled so every call pays its context
    switches — exactly the paper's setup. Series:

    - LRPC measured: scales near-linearly because the only locks on the
      transfer path are per-A-stack-queue (the memory bus model costs a
      few percent: the paper measured a speedup of 3.7 at 4 CPUs,
      ~23,000 calls/s against ~6,300 on one).
    - LRPC optimal: the single-processor rate times N.
    - SRC RPC measured: levels off near 4,000 calls/s once two
      processors contend for the global lock held ~250 us per call.

    Also checks the paper's secondary datum: speedup 4.3 with five
    processors on the MicroVAX II Firefly. *)

type point = { cpus : int; lrpc : float; lrpc_optimal : float; src : float }

type result = {
  points : point list;
  lrpc_speedup_at_4 : float;
  microvax_speedup_at_5 : float;
}

val run : ?horizon:Lrpc_sim.Time.t -> unit -> result
(** 1 to 4 CPUs, default half a simulated second per point. *)

val render : result -> string
