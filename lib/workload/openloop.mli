(** Open-loop session/arrival load generation.

    Everything else in this library is closed-loop: a caller issues its
    next call when the previous one lands, so queueing delay under
    offered load is invisible. Here each client {e session} draws
    arrival times from its own seeded stochastic process and issues a
    call at every arrival {e whether or not earlier calls have
    finished} — when the system falls behind, arrivals pile up and the
    measured latency (completion minus {e scheduled} arrival time)
    diverges, which is what the latency-vs-offered-load curve and its
    saturation knee are about.

    Determinism: the per-session streams are {!Lrpc_util.Prng.split}
    from one master seed in session order, and every timestamp comes
    from the engine clock, so a run is bit-identical for a given seed.
    Latencies are recorded into one {!Lrpc_util.Qsketch}, whose bucket
    counts do not depend on completion order, so the reported quantiles
    do not depend on completion interleaving either. *)

module Time = Lrpc_sim.Time

(** Interarrival process, per session. *)
type process =
  | Poisson  (** exponential gaps at the session's mean rate *)
  | Bursty of {
      burst_mult : float;
          (** arrival rate during a burst, as a multiple of the
              session's mean rate (>= 1) *)
      mean_burst : Time.t;  (** mean burst-phase duration *)
      mean_idle : Time.t;  (** mean idle-phase duration *)
    }
      (** Two-phase Markov-modulated Poisson process: exponentially
          distributed burst/idle phases, Poisson arrivals at
          [burst_mult * mean] during bursts and at whatever idle rate
          preserves the session's overall mean (clamped at 0 — a
          [burst_mult] at or beyond [(mean_burst + mean_idle) /
          mean_burst] gives a pure on/off source, with the burst rate
          renormalized so the mean offered load is still honoured).
          Phase state is initialised from the stationary distribution,
          so measurement windows need no phase warm-up. *)

type config = {
  ol_seed : int64;
  ol_sessions : int;  (** concurrent client sessions *)
  ol_offered_cps : float;
      (** total offered load, calls per simulated second, spread
          evenly across sessions *)
  ol_process : process;
  ol_horizon : Time.t;  (** stop scheduling arrivals past this time *)
  ol_warmup : Time.t;
      (** arrivals scheduled before this time complete but are not
          measured *)
}

(** {1 Arrival streams}

    Exposed separately from {!run} so determinism can be tested without
    an engine: same config, same gap sequence. *)

type stream

val streams : config -> stream array
(** One stream per session, split from [ol_seed] in session order. *)

val next_gap : stream -> float
(** Next interarrival gap in microseconds, advancing the stream. *)

(** {1 Driving a system under test} *)

type report = {
  ol_issued : int;  (** calls issued before the horizon *)
  ol_completed : int;  (** calls that returned [`Ok] before the horizon *)
  ol_shed : int;
      (** calls the system refused ([`Shed]): rejected by admission
          control or shed from a queue. Not completed, not measured —
          the latency sketch covers admitted calls only. *)
  ol_measured : int;  (** completed calls scheduled after warmup *)
  ol_achieved_cps : float;
      (** measured completions per simulated second of measurement
          window — the throughput axis of the curve *)
  ol_mean_us : float;  (** mean measured latency, microseconds *)
  ol_sketch : Lrpc_util.Qsketch.t;
      (** measured latency distribution (microseconds, scheduled
          arrival to completion) *)
}

val run :
  config ->
  engine:Lrpc_sim.Engine.t ->
  spawn:(session:int -> (unit -> unit) -> unit) ->
  call:(session:int -> lateness_us:float -> [ `Ok | `Shed ]) ->
  report
(** Spawn one thread per session via [spawn] (which places the body in
    the session's protection domain), run the engine to the horizon,
    and return the merged latency report. Each session body loops:
    advance the scheduled arrival time by {!next_gap}, sleep (without
    occupying a simulated processor) until it, then invoke [call] and —
    when it returns [`Ok] — record [completion - scheduled]. [call]
    receives [lateness_us], how far past its scheduled arrival the call
    is starting (run-queue wait plus the session's own backlog): the
    part of any per-call deadline budget already spent before the stub
    is entered, so an overload-controlled client can refuse a too-stale
    call at zero cost instead of doing work whose deadline has passed.
    A [`Shed] return (the system refused the call under overload
    control) counts in [ol_shed] only; the session carries on to its
    next arrival.
    Arrivals scheduled past the horizon end the session; calls still in
    flight at the horizon are frozen with the engine and counted as
    issued but not completed. Raises [Failure] if any session thread
    dies of an exception. *)
