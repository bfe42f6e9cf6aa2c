(** The simulated microkernel.

    Owns domains, pages, regions and threads on one simulated machine, and
    provides the primitives the communication layers build on: trap entry,
    region allocation (including pairwise-shared mappings), handoff to
    other threads, idle-processor queries for LRPC's domain caching, and
    domain termination with registered collector hooks (the LRPC runtime
    registers one that revokes bindings and restarts callers). *)

type t

exception Domain_terminated of string
(** Raised by operations against a terminating or dead domain. *)

val boot : Lrpc_sim.Engine.t -> t
(** One kernel per simulated machine. The kernel domain itself has id 0. *)

val engine : t -> Lrpc_sim.Engine.t
val cost_model : t -> Lrpc_sim.Cost_model.t

val kernel_domain : t -> Pdomain.t

val create_domain :
  ?machine:int -> ?page_limit:int -> t -> name:string -> Pdomain.t

val domains : t -> Pdomain.t list

val find_domain : t -> Pdomain.id -> Pdomain.t option
(** O(1): the id-to-domain table is a hashtable — this sits on the call
    path of every LRPC (caller identification). *)

(** {1 Memory} *)

val alloc_pages : t -> Pdomain.t -> int -> int list
(** Allocate pages charged to the domain's budget. Raises
    [Domain_terminated] on dead domains and [Out_of_memory] when the
    domain's page budget is exhausted (the condition that motivates lazy
    E-stack association, paper §3.2). *)

val free_pages : t -> Pdomain.t -> int list -> unit
(** Return pages to the domain's budget (identifiers are not reused). *)

val alloc_region :
  t -> owner:Pdomain.t -> name:string -> bytes:int -> mapped:Pdomain.t list ->
  Vm.region
(** Allocate a region of [bytes] (rounded up to whole pages, charged to
    [owner]) and map it into each domain of [mapped]. An empty [mapped]
    yields a kernel-private region (linkage records). *)

val release_region : t -> owner:Pdomain.t -> Vm.region -> unit
(** Invalidate the region and return its pages to [owner]. *)

(** {1 Threads} *)

val spawn :
  ?name:string -> ?home:int -> t -> Pdomain.t -> (unit -> unit) ->
  Lrpc_sim.Engine.thread
(** Create a thread homed in the domain and track it there. *)

val trap : t -> unit
(** Charge one kernel trap (entry or exit) to the running thread. *)

(** {1 Linkage-record accounting}

    One linkage record is claimed per call in flight. With asynchronous
    call handles a single thread may hold several at once — outstanding
    calls no longer nest like procedure calls — so the kernel keeps a
    per-thread count (mirrored in the ["kernel.linkages_outstanding"]
    gauge), which the termination collector and tests consult. Claims
    and releases also keep a running total, so {!total_linkages} and the
    gauge cost O(1) however many threads there are. *)

val linkage_claimed : t -> Lrpc_sim.Engine.thread -> unit
val linkage_released : t -> Lrpc_sim.Engine.thread -> unit
(** Raises [Invalid_argument] when the thread has none outstanding. *)

val outstanding_linkages : t -> Lrpc_sim.Engine.thread -> int
val total_linkages : t -> int
(** Sum of {!outstanding_linkages} over all threads, in O(1). *)

(** {1 Idle-processor management (LRPC/MP, paper §3.4)} *)

val domain_caching_enabled : t -> bool
val set_domain_caching : t -> bool -> unit
(** Disabled by default (Figure 2 is measured with it off; Table 4's
    LRPC/MP row turns it on). *)

val find_idle_processor_in_context :
  t -> Pdomain.t -> Lrpc_sim.Engine.cpu option
(** A processor with no running thread whose loaded VM context is the
    given domain — the candidate for a processor exchange. *)

val note_context_miss : t -> Pdomain.t -> unit
(** Record that a call wanted an idle processor in this domain's context
    and found none. Feeds both the raw per-domain counter and a decaying
    miss EWMA (half-life ~1 ms of simulated quiet); when domain caching
    is on, the kernel prods one idle processor — the one whose loaded
    context's EWMA is lowest and at least 0.5 below this domain's — and
    re-tags it to the missed domain (counted in ["kernel.context_prods"]).
    The engine additionally consults the same policy whenever a processor
    runs out of work entirely (see {!Lrpc_sim.Engine.set_idle_hook},
    installed at {!boot}): the idle processor preloads the hottest
    domain's context, but only when it out-misses the held context by a
    2x hysteresis margin, so a warm steady state is never perturbed
    (those retags are counted in ["kernel.idle_retags"]). *)

val context_misses : t -> Pdomain.t -> int
(** Reads ["kernel.context_misses{domain=<id>}"] from the engine's
    metrics registry — the counters' single home. *)

val context_miss_ewma : t -> Pdomain.t -> float
(** The domain's decaying miss EWMA, decayed to the current simulated
    instant (also exported as the ["kernel.miss_ewma{domain=<id>}"]
    gauge, which holds the value as of the last miss). *)

val note_context_hit : ?cpu:Lrpc_sim.Engine.cpu -> t -> Pdomain.t -> unit
(** Record that a call found an idle processor already holding this
    domain's context (a successful processor exchange). When [cpu] — the
    processor found — is given and its context got there via a prod, the
    prod-to-hit latency is recorded in the ["kernel.prod_to_hit_us"]
    histogram. *)

val context_hits : t -> Pdomain.t -> int

val prods : t -> int
(** Miss-driven prod retags performed (["kernel.context_prods"]). *)

val idle_retags : t -> int
(** Idle-consult retags performed (["kernel.idle_retags"]). *)

(** {2 Prod-policy tuning}

    The three policy knobs live per-kernel. The defaults were chosen by
    the swept calibration in EXPERIMENTS.md ("Prod-policy calibration");
    {!set_prod_tuning} overrides them for a sweep or a specific world.
    Under a {!Lrpc_sim.Cost_model.topology} the policy additionally
    weights a domain's miss EWMA by the prod-distance multiplier between
    the candidate idle CPU and the CPU the domain's misses arrive on. *)

val default_half_life_us : float
(** 1000 us: how long a miss keeps counting. *)

val default_prod_margin : float
(** 0.5: required EWMA gap before any retag. *)

val default_idle_retag_factor : float
(** 2.0: idle-consult hysteresis (candidate must out-miss the held
    context by this factor plus the margin). *)

val prod_tuning : t -> float * float * float
(** Current [(half_life_us, margin, idle_retag_factor)]. *)

val set_prod_tuning :
  ?half_life_us:float -> ?margin:float -> ?idle_retag_factor:float -> t -> unit
(** Override any subset of the knobs.
    @raise Invalid_argument on a non-positive half-life, negative
    margin, or retag factor below 1. *)

(** {1 Termination (paper §5.3)} *)

type hook_handle
(** Identifies one registered collector hook, for removal. *)

val on_terminate : ?key:string -> t -> (Pdomain.t -> unit) -> hook_handle
(** Register a collector hook, run (in registration order) while the
    domain is in the [Terminating] state, before its threads are stopped.
    The LRPC runtime registers binding revocation and linkage
    invalidation here. With [?key], the registration {e replaces} any
    earlier hook bearing the same key — this is how repeated [Api.init]
    calls on one kernel avoid stacking stale collectors. *)

val remove_terminate_hook : t -> hook_handle -> unit
(** Unregister a hook; harmless when already removed. *)

val terminate_domain : t -> Pdomain.t -> unit
(** Mark [Terminating]; run collector hooks; kill the domain's remaining
    homed threads; mark [Dead]. Idempotent. Threads of *other* domains
    currently executing inside this domain are the hooks' business (the
    LRPC collector restarts them in their callers with call-failed). *)
