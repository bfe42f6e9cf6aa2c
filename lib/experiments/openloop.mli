(** Open-loop heavy-traffic study: latency vs offered load.

    Every other artifact in this suite is closed-loop — callers issue
    the next call when the previous one returns, so the measured
    latency is flat no matter how many callers pile on. This study
    drives the same three systems (LRPC, the SRC RPC message-passing
    baseline, cross-machine Netrpc) with {!Lrpc_workload.Openloop}
    sessions: thousands of clients across hundreds of protection
    domains, each drawing arrivals from its own seeded Poisson (or
    bursty MMPP) stream, issuing calls on schedule whether or not the
    system has kept up. Latency is completion minus {e scheduled}
    arrival, so past the saturation knee the tail quantiles diverge —
    the classic hockey-stick curve closed-loop measurement cannot show.

    Offered load is swept as fractions of each system's closed-loop
    capacity (measured first, on a fresh world, by the usual
    tight-loop drivers) from well-idle to past saturation, and the
    knee is detected as the first sweep point whose p99 doubles the
    idle-load p99. Runs are bit-identical for a given seed. *)

type point = {
  op_offered_cps : float;  (** offered load, calls per simulated second *)
  op_achieved_cps : float;  (** measured completions per second *)
  op_issued : int;
  op_completed : int;
  op_shed : int;
      (** arrivals refused under overload control (always 0 without an
          admission policy) — not completed, not in the quantiles *)
  op_measured : int;  (** completions scheduled after warmup *)
  op_p50_us : int;
  op_p99_us : int;
  op_p999_us : int;
  op_mean_us : float;
}

type curve = {
  oc_system : string;
      (** ["lrpc"], ["lrpc_bursty"], ["src_rpc"] or ["netrpc"]; the
          shedding ablation's arms are ["lrpc_shed_off"] /
          ["lrpc_shed_on"] *)
  oc_capacity_cps : float;  (** closed-loop capacity anchor *)
  oc_knee_cps : float option;
      (** offered load at the first point whose p99 is at least twice
          the first (idlest) point's p99; [None] if the sweep never
          saturates *)
  oc_points : point list;  (** in increasing offered-load order *)
}

type result = {
  or_seed : int64;
  or_processors : int;
  or_sessions : int;
  or_horizon : Lrpc_sim.Time.t;
  or_warmup : Lrpc_sim.Time.t;
  or_curves : curve list;
}

val run : ?seed:int64 -> ?quick:bool -> unit -> result
(** Full mode: 2000 sessions over 200 client domains on 4 processors,
    1 s horizon with a 200 ms warmup, eight sweep points from 0.2 to
    1.25 of capacity. [quick] shrinks all of it for smoke runs (400
    sessions, 5 points, 250 ms). *)

val run_shedding : ?seed:int64 -> ?quick:bool -> unit -> result
(** The overload-control ablation ([lrpc_experiments openloop
    --shedding]): the LRPC world swept past saturation (0.85x to 1.5x
    of one shared closed-loop capacity anchor), once with no overload
    control (["lrpc_shed_off"] — the latency collapse of {!run}) and
    once with both halves on (["lrpc_shed_on"]: server-side admission —
    two calls in flight per binding, queue depth 2, 10 ms sojourn
    target — plus a 5 ms client-side deadline budget that refuses a
    call starting that far past its scheduled arrival without entering
    the stub). With shedding on, excess arrivals surface as [op_shed],
    goodput stays pinned near the capacity anchor, and the admitted
    calls' p99 stays around the deadline budget past the knee. *)

val render : result -> string

val to_json : ?experiment:string -> result -> Lrpc_util.Json.t
(** [experiment] names the JSON envelope (default ["openloop"]; the
    shedding ablation uses ["openloop_shed"]). *)
