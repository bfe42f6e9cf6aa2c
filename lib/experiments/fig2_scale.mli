(** Figure 2 extended: throughput scaling beyond the paper's four C-VAX
    processors.

    The paper stops at the Firefly's four usable processors; this
    artifact runs the same closed-loop Null-call workload on simulated
    machines of 1–256 processors, LRPC against the SRC RPC global-lock
    baseline, and breaks down the scheduler and locking behaviour that
    shapes the curves: per-processor work-steal dispatches (tagged
    steals reuse the thief's loaded context, §3.4), spin-wait time, and
    contended A-stack shard checkouts. The shared memory bus — modelled
    as a dilation of on-CPU work by the number of executing processors —
    is what bends the LRPC curve away from linear; SRC RPC's single
    global lock (held ~250 us per call) flattens it past two
    processors. *)

type point = {
  cpus : int;
  lrpc : float;  (** calls per simulated second *)
  lrpc_speedup : float;  (** relative to the 1-CPU LRPC value *)
  src : float;
  src_speedup : float;
  unbal : float;
      (** LRPC with every caller submitted on processor 0 — only work
          stealing spreads the load *)
  unbal_steals : int;
  unbal_steals_tagged : int;
  steals : int;  (** retagging steals, summed over CPUs *)
  steals_tagged : int;  (** context-matching steals, summed over CPUs *)
  shard_contended : int;  (** A-stack checkouts via the contended fallback *)
  lrpc_spin_us : float;  (** total spin-wait us, all CPUs *)
  src_steals : int;
  src_steals_tagged : int;
  src_spin_us : float;
  src_lock_contended : int;  (** contended lock acquires in the SRC run *)
}

type cpu_row = {
  cr_steals : int;
  cr_tagged : int;
  cr_spin_us : float;
  cr_src_steals : int;
  cr_src_tagged : int;
  cr_src_spin_us : float;
}

type result = {
  points : point list;
      (** one per ladder rung {1,2,4,8,16,32,64,128,256} <= max *)
  per_cpu : cpu_row array;
      (** steal and spin-wait breakdown per CPU at the largest rung, for
          the unbalanced-LRPC run (where stealing happens) and the SRC
          RPC run (where spinning happens) *)
  horizon : Lrpc_sim.Time.t;
}

val run : ?max_cpus:int -> ?horizon:Lrpc_sim.Time.t -> unit -> result
(** Defaults: 32 CPUs, 250 ms horizon. The ladder is
    [{1,2,4,8,16,32,64,128,256}] truncated to [max_cpus]; rungs above 32
    taper the measurement window inversely with the rung (calls/s is a
    rate, so points stay comparable) to keep host cost bounded. *)

val render : result -> string

val to_json : result -> string
(** Machine-checkable shape for the [make fig2-scale-smoke] target:
    [{"experiment": "fig2_scale", "horizon_us": ..., "points": [...]}]. *)
