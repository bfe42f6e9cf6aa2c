(** Measurement world construction and closed-loop drivers shared by the
    experiment harness, the benchmarks, the chaos soak and the examples.

    The canonical workload is the paper's four-test suite (Table 4):
    Null, Add (two 4-byte arguments, one 4-byte result), BigIn (one
    200-byte argument) and BigInOut (200 bytes in and out). Latency is
    measured exactly as the paper did — a tight loop of calls, elapsed
    (simulated) time divided by the count — and throughput as completed
    calls per simulated second across concurrent callers.

    {b Construction.} Every world — LRPC ({!make_lrpc}) and the
    message-pass baseline ({!make_mpass}) — and every scale/throughput
    driver is parameterized by one {!Config.t} record instead of
    per-function optional-argument sprawl; build one with a record
    update on {!Config.default}:

    {[
      let w =
        Driver.make_lrpc
          ~config:
            { Driver.Config.default with processors = 4; domain_caching = true }
          ()
    ]} *)

type test = { test_name : string; proc : string; args : Lrpc_idl.Value.t list }

val four_tests : unit -> test list
(** Null, Add, BigIn, BigInOut with the paper's argument sizes. *)

val bench_interface : Lrpc_idl.Types.interface
val bench_impls : (string * Lrpc_core.Rt.impl) list
val mpass_bench_impls : (string * Lrpc_msgrpc.Mpass.impl) list

(** {1 Unified construction} *)

(** Everything a measurement world is made of. One record shared by the
    lrpc and mpass constructors, {!boot} and the scale drivers. Remote
    worlds add their domains on top of {!boot} and bind with
    {!Lrpc_net.Netrpc.import_remote} or {!Lrpc_net.Erpc.import_remote},
    whose per-binding knobs are arguments of those functions. *)
module Config : sig
  type t = {
    cost_model : Lrpc_sim.Cost_model.t;
        (** machine timing model (default C-VAX Firefly). {!make_mpass}
            overrides it with the profile's [hw]. *)
    processors : int;  (** simulated CPUs (default 1) *)
    engine_domains : int option;
        (** forwarded to {!Lrpc_sim.Engine.create}'s [domains]: the
            engine is one event loop on one host domain, so only [None]
            or [Some 1] is accepted *)
    runtime : Lrpc_core.Rt.config option;
        (** LRPC runtime tuning (A-stack pool sizes, E-stack policy);
            [None] is {!Lrpc_core.Rt.default_config}. *)
    domain_caching : bool;
        (** §3.4 idle-processor context caching (default off, Figure
            2's setup where every call context-switches) *)
    install_faults : (Lrpc_core.Api.t -> unit) option;
        (** run against the freshly built runtime before any domains or
            threads exist — the hook for
            [Lrpc_fault.Plan.install (Plan.make spec)] *)
    trace_capacity : int option;
        (** attach a {!Lrpc_obs.Trace.t} ring of this capacity to the
            engine (default: no tracer) *)
    admission : Lrpc_core.Rt.admission option;
        (** overload-control policy installed on the runtime at boot
            (see {!Lrpc_core.Api.set_admission}); [None] — the default —
            does no admission work on the call path *)
  }

  val default : t
  (** One C-VAX Firefly processor on one host domain, default runtime, no
      caching, no faults, no tracer, no admission policy. *)
end

(** The machine layers every world shares, built by {!boot}. *)
type boot = {
  bt_engine : Lrpc_sim.Engine.t;
  bt_kernel : Lrpc_kernel.Kernel.t;
  bt_rt : Lrpc_core.Api.t;
  bt_tracer : Lrpc_obs.Trace.t option;
}

val boot : Config.t -> boot
(** Engine, optional tracer, kernel, runtime, fault hooks — in that
    order. The world constructors below add their domains and exports
    on top; callers with bespoke topologies (the soak, the latency
    breakdown) use [boot] directly. *)

(** {1 LRPC} *)

type lrpc_world = {
  lw_engine : Lrpc_sim.Engine.t;
  lw_kernel : Lrpc_kernel.Kernel.t;
  lw_rt : Lrpc_core.Api.t;
  lw_server : Lrpc_kernel.Pdomain.t;
  lw_client : Lrpc_kernel.Pdomain.t;
  lw_tracer : Lrpc_obs.Trace.t option;
}

val make_lrpc : ?config:Config.t -> unit -> lrpc_world
(** A booted machine with the Bench interface exported from a server
    domain and an unbound client domain. *)

val run_all : Lrpc_sim.Engine.t -> unit
(** Run the engine to quiescence; raise [Failure] if any simulated
    thread died of an uncaught exception. *)

val lrpc_latency :
  ?warmup:int -> ?calls:int -> lrpc_world -> proc:string ->
  args:Lrpc_idl.Value.t list -> float
(** Steady-state per-call latency in simulated microseconds. *)

val lrpc_throughput :
  ?config:Config.t -> clients:int -> horizon:Lrpc_sim.Time.t -> unit -> float
(** Null calls per simulated second, [clients] closed-loop callers (one
    domain each, pinned one per [config.processors] processor). *)

(** {1 Scaling statistics}

    The same closed-loop throughput runs, also reporting the scheduler
    and locking behaviour the scaling study (fig2_scale) breaks down:
    per-processor steal counts and spin-wait time, contended spinlock
    acquires, and contended A-stack shard checkouts. Collected after the
    run from the engine's counters — the simulations are exactly the
    [lrpc_throughput]/[mpass_throughput] ones. *)

type scale_stats = {
  ss_cps : float;  (** completed null calls per simulated second *)
  ss_steals : int array;  (** per CPU: runnable threads stolen, retagging *)
  ss_steals_tagged : int array;
      (** per CPU: steals that matched the thief's loaded context *)
  ss_steals_near : int;
      (** steals whose migration stayed within a topology cluster
          (always 0 without a {!Lrpc_sim.Cost_model.topology}) *)
  ss_steals_far : int;  (** steals that crossed a cluster boundary *)
  ss_spin_us : float array;  (** per CPU: spin-wait (lock busy-wait) us *)
  ss_lock_contended : int;  (** contended spinlock acquires, all locks *)
  ss_shard_contended : int;
      (** A-stack checkouts that fell back to the direct-grant path
          because every free A-stack sat behind a held shard lock *)
}

val lrpc_scale :
  ?home:(int -> int) ->
  ?yield_between:bool ->
  ?config:Config.t ->
  clients:int ->
  horizon:Lrpc_sim.Time.t ->
  unit ->
  scale_stats
(** [home] maps caller index to the processor the caller is submitted on
    (default [i mod config.processors], Figure 2's balanced pinning).
    The scaling study uses [fun _ -> 0] to submit every caller on
    processor 0 and let the per-CPU run queues redistribute by
    stealing. [yield_between] (default false) makes each caller yield
    back to its run queue between calls, keeping redistribution — and
    therefore stealing — live in the steady state rather than a
    one-time startup effect; the placement-quality study measures this
    regime. *)

val mpass_scale :
  ?config:Config.t ->
  Lrpc_msgrpc.Profile.t ->
  clients:int ->
  horizon:Lrpc_sim.Time.t ->
  scale_stats
(** The profile's receiver pool is widened to [clients] so the baseline
    is never starved of receivers; its [hw] replaces
    [config.cost_model]. *)

(** {1 Message-passing baseline} *)

type mpass_world = {
  mw_engine : Lrpc_sim.Engine.t;
  mw_kernel : Lrpc_kernel.Kernel.t;
  mw_server : Lrpc_msgrpc.Mpass.server;
  mw_client : Lrpc_kernel.Pdomain.t;
  mw_tracer : Lrpc_obs.Trace.t option;
}

val make_mpass : ?config:Config.t -> Lrpc_msgrpc.Profile.t -> mpass_world
(** A machine running the profile's [hw] with the Bench interface
    served by the profile's receiver pool, plus an unconnected client
    domain ([Lrpc_msgrpc.Mpass.connect] from a simulated thread). *)

val mpass_latency :
  ?warmup:int -> ?calls:int -> ?config:Config.t -> Lrpc_msgrpc.Profile.t ->
  proc:string -> args:Lrpc_idl.Value.t list -> float

val mpass_throughput :
  ?config:Config.t ->
  Lrpc_msgrpc.Profile.t ->
  clients:int ->
  horizon:Lrpc_sim.Time.t ->
  float
