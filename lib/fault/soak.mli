(** The chaos soak: thousands of mixed local / remote / async calls
    under a seeded {!Plan}, with global-invariant checks at quiescence.

    The world is two local server domains (one of which the default
    plan crashes mid-run), a remote server on another machine behind
    the lossy {!Lrpc_net.Netrpc} wire, and a pool of client threads on
    four processors. Half of the calls are issued as pipelined batches
    and a tenth carry a tight deadline. Every outcome is collected with
    [Api.call_result] / [Api.await_all_results] — no outcome is allowed
    to escape as an exception. Everything stochastic derives from
    [config.seed], so a report (including its trace digest) is a pure
    function of the config: two same-seed runs are bit-identical. *)

type config = {
  seed : int64;  (** drives the workload PRNG {e and} the fault plan *)
  calls : int;  (** total calls across all clients *)
  clients : int;  (** client threads *)
  spec : Plan.spec;  (** fault probabilities; [spec.seed] is overridden
                         by [seed] above *)
  remote_share : float;  (** fraction of calls taking the network path *)
  retry_budget : float option;
      (** client-side retry budget for the remote binding (see
          {!Lrpc_net.Netrpc.import_remote}); [None] retries without a
          budget *)
  cost_model : Lrpc_sim.Cost_model.t option;
      (** machine timing model; [None] is the Driver default (C-VAX
          Firefly, no topology). A {!Lrpc_sim.Cost_model.clustered}
          model here soaks the locality-aware paths; with [None] the
          report — digest included — is bit-identical to pre-topology
          builds *)
}

val default : config
(** 6000 calls, 8 clients, 4 processors, moderate fault probabilities,
    one mid-run server crash — the [make fault-smoke] configuration. *)

(** Outcome tallies, invariant verdicts and the determinism digest of
    one run. *)
type report = {
  r_seed : int64;
  r_calls : int;  (** calls issued (equals [config.calls]) *)
  r_ok : int;
  r_failed : int;  (** [Api.Failed]: crashes mid-call, retry exhaustion *)
  r_aborted : int;  (** [Api.Aborted] *)
  r_deadline : int;  (** [Api.Deadline] *)
  r_rejected : int;  (** [Api.Rejected]: call never started *)
  r_overloaded : int;
      (** [Api.Overloaded]: refused by admission control or given up
          under an exhausted retry budget *)
  r_stub : int;  (** [Api.Stub_raised]: injected server exceptions *)
  r_retries : int;  (** ["net.retries"] at quiescence *)
  r_retries_suppressed : int;  (** ["net.retries_suppressed"] *)
  r_dups_suppressed : int;  (** ["net.duplicates_suppressed"] *)
  r_crashes : int;  (** ["fault.crashes"] delivered *)
  r_starvations : int;  (** ["fault.astack_starvations"] *)
  r_shard_contended : int;  (** ["lrpc.astack_shard_contended"] *)
  r_steals_near : int;  (** within-cluster steals (0 with no topology) *)
  r_steals_far : int;  (** cross-cluster steals *)
  r_all_resolved : bool;  (** every call landed in exactly one tally *)
  r_failure_accounting : bool;
      (** [failed + aborted + deadline + rejected + overloaded + stub]
          equals ["lrpc.calls_failed"] + ["lrpc.calls_rejected"] — every
          typed failure is accounted for exactly once *)
  r_pool_balanced : bool;
      (** every A-stack pool: free list == full population, no waiter
          still marked active *)
  r_linkages_zero : bool;  (** kernel linkage gauge back to zero *)
  r_in_flight_zero : bool;  (** ["lrpc.calls_in_flight"] gauge *)
  r_no_stuck : bool;  (** no thread left Blocked at quiescence *)
  r_no_failures : bool;  (** no thread died with an unhandled exn *)
  r_digest : string;  (** MD5 of the trace dump — the replay check *)
}

val run : config -> report
(** When an invariant fails, the threads that died or hung and every
    pool's free, total and waiting counts are printed to stderr; a
    passing run prints nothing.
    @raise Invalid_argument when [calls <= 0] or [clients <= 0] (every
    invariant would hold vacuously), or from {!Plan.make} when [spec] is
    out of range. *)

val ok : report -> bool
(** All seven invariant fields true. *)

val report_to_json : report -> string
(** One-object JSON rendering: ["seed"], ["calls"], an ["outcomes"]
    object, a ["faults"] object, a ["locality"] object (shard
    contention, near/far steals), an ["invariants"] object
    (all seven booleans) and ["digest"]. Hand-built; stable key
    order. *)
