(** Discrete-event simulated shared-memory multiprocessor.

    The engine runs simulated kernel threads as OCaml effect-handled
    coroutines over an array of simulated processors. Simulated time only
    advances through {!delay}; everything between delays is instantaneous
    in simulated time, so a run is a deterministic interleaving fixed by
    the event queue's (time, sequence) order.

    A processor remembers which protection domain's virtual-memory context
    it has loaded and owns a {!Tlb.t}; context switches are charged by the
    engine when it places a thread on a processor whose context differs
    (or explicitly by the kernel via {!switch_self_context} when a thread
    migrates between domains mid-call, which is the essence of LRPC).

    Concurrency-related waiting comes in two flavours mirroring real
    kernels: {!block} releases the processor (the thread is re-dispatched
    later), while spin-waiting (see {!Spinlock}) keeps the processor busy.

    A crude shared-memory-bus model dilates every delay by
    [1 + bus_alpha * (executing_processors - 1)]; with the fitted alpha
    this reproduces Figure 2's sub-linear 3.7x speedup at four C-VAX
    processors. The executing count (threads in state [Running] on a
    processor; spinners do not count) is a field read in O(1), not a
    scan of the processors. It rises whenever a thread is dispatched
    onto a processor and when {!wake} resumes a spinner; it falls when
    a thread blocks, yields, starts spinning, hands its processor over
    ({!handoff}, {!yield_to}) or finishes (including a kill before its
    first instruction). {!exchange_processors} leaves it unchanged: the
    thread stays [Running].

    All simulated processors share one event loop on one host domain.
    The bus couples every processor with zero latency, so there is
    nothing to run apart; host parallelism comes from running
    independent simulations side by side (the [--jobs] artifact
    fan-out). See DESIGN.md "One event loop".

    The loop drains two {!Heap}s. The run heap holds thread resumptions
    (a dispatch, the end of a {!delay}, a spinner's wake); a thread with
    one queued is on a processor, so it never holds more entries than
    there are processors. The timer heap holds {!at} timers and
    {!sleep_until} wake entries, which may be thousands. Both draw their
    insertion sequences from one counter, and each step pops the earlier
    top by (time, sequence): the same total order a single heap would
    give, so the split changes host cost only. *)

type t

type thread

type cpu = {
  idx : int;
  mutable running : thread option;
  mutable context : int option;  (** domain whose VM context is loaded *)
  tlb : Tlb.t;
  mutable busy : Time.t;  (** cumulative busy time, for utilization *)
  rq : (int * thread) Queue.t;
      (** this processor's own run queue: (enqueue stamp, thread) in FIFO
          order; stamps are globally increasing so cross-queue age is
          comparable, and a cell whose stamp disagrees with the thread is
          a ghost left behind by a steal *)
  mutable steals : int;  (** threads stolen from other queues, retagging *)
  mutable steals_tagged : int;
      (** steals of threads already in this processor's loaded context *)
  mutable steals_near : int;
      (** of all steals, those whose victim queue was on this CPU's own
          cluster — only counted when the cost model carries a
          {!Cost_model.topology} (otherwise 0) *)
  mutable steals_far : int;  (** steals from a foreign cluster's queue *)
  mutable lock_spin : Time.t;  (** cumulative spin-wait time on this CPU *)
}

exception Thread_killed
(** Raised inside a thread destroyed with {!kill}. *)

exception Not_in_thread
(** Raised by in-thread operations invoked outside any simulated thread. *)

(** {1 Construction and execution} *)

val create : ?processors:int -> ?domains:int -> Cost_model.t -> t
(** [create cm] builds a machine with [processors] (default 1) CPUs, each
    with a cold TLB per [cm]. [domains] is the number of host domains
    the event loop runs on; only 1 (the default) is accepted.
    @raise Invalid_argument when [domains <> 1]. *)

val cost_model : t -> Cost_model.t
val now : t -> Time.t
val cpus : t -> cpu array

val spawn : ?name:string -> ?home:int -> t -> domain:int -> (unit -> unit) -> thread
(** Create a thread in [domain]. It becomes runnable immediately and is
    dispatched to a free processor ([home] is preferred when free) or
    queued. The body runs as a coroutine; any exception it does not catch
    marks the thread failed (see {!failures}) without aborting the
    simulation. *)

val run : ?until:Time.t -> t -> unit
(** Process events until both heaps are empty or the next event would be
    after [until]. Re-entrant calls are forbidden. *)

val run_pushes : t -> int
(** Thread resumptions pushed on the run heap since creation. *)

val timer_pushes : t -> int
(** Timers and sleep wake entries pushed on the timer heap since
    creation. *)

(** {1 Thread inspection (engine level)} *)

val thread_id : thread -> int
val thread_name : thread -> string
val thread_domain : thread -> int
val thread_cpu : t -> thread -> cpu option
val alive : thread -> bool

val has_pending_interrupt : thread -> bool
(** True between {!interrupt}/{!kill} and the actual in-thread delivery of
    the exception; such a thread is as good as gone for synchronization
    purposes (wait queues skip it). *)

val failures : t -> (thread * exn) list
(** Threads that died with an uncaught exception other than
    [Thread_killed], most recent first. *)

val check_failures : ?what:string -> t -> unit
(** Raise [Failure "<what> <thread name> died: <exception>"] for the
    most recent of {!failures}, if there is one. [what] names the kind
    of thread (default ["simulated thread"]). *)

val stuck_threads : t -> thread list
(** Threads still waiting (blocked, spinning or queued) — useful to assert
    quiescence in tests. *)

(** {1 In-thread operations}

    These must be called from inside a simulated thread. *)

val self : t -> thread
val current_cpu : t -> cpu

val self_opt : t -> thread option
(** The currently executing thread, or [None] at engine level — the
    non-raising {!self}, for API boundaries that want their own error. *)

val delay : ?category:Category.t -> t -> Time.t -> unit
(** Consume simulated CPU time on the current processor, dilated by the
    bus-contention factor and charged to [category] (default [Other]).

    A delay that ends before every queued event of both heaps, within
    the limit of the {!run} in progress, and on a thread with no pending
    interrupt is charged in place: the clock moves without the thread
    leaving the processor or passing through the run heap. This is unobservable —
    the thread would have been the next event, at the same time, either
    way. *)

val block : t -> unit
(** Release the processor and sleep until {!wake}. *)

val sleep_until : t -> Time.t -> unit
(** Release the processor and sleep until the given simulated time
    (clamped to [now] when already past), without allocating: the wake
    entry is preallocated per thread. It behaves as an {!at} timer
    that {!wake}s the caller, followed by {!block}, and takes the same
    place in the event order. Unlike that timer, the entry is ignored
    unless the thread is still in this sleep, so a sleep left early (by
    {!wake} or {!interrupt}) never wakes a later wait. *)

val yield : t -> unit
(** Go to the back of the ready queue. *)

val spin_suspend : t -> unit
(** Wait while {e keeping} the processor (busy-waiting); resumed by
    {!wake}, at which point the spin time has been charged to the [Lock]
    category and to the processor's busy time. Used by {!Spinlock}. *)

val handoff : t -> to_:thread -> unit
(** Handoff scheduling: block the calling thread and give its processor
    directly to [to_] (which must be blocked), bypassing the ready queue.
    A context switch is charged if the processor must change VM context. *)

val yield_to : t -> to_:thread -> unit
(** Like {!handoff}, but the caller stays runnable (back of the ready
    queue) instead of blocking — a server donating its processor to a
    replied-to client while it still has queued work. *)

val touch_pages : t -> pages:int list -> unit
(** Access the given pages through the current processor's TLB in the
    current thread's domain, charging [Tlb_miss] per miss. *)

val switch_self_context : t -> domain:int -> unit
(** The running thread crosses into [domain] on its current processor:
    if the loaded context differs, charge one VM reload, invalidate the
    TLB (untagged case) and update the processor; always retag the
    thread. This is LRPC's direct context switch. *)

val exchange_processors : t -> target:cpu -> unit
(** The LRPC/MP idle-processor optimization: move the running thread onto
    [target] (which must be idle), leaving its old processor idle with its
    context intact, and charge one [Exchange]. The thread is retagged to
    the target's loaded context's domain by the caller via
    {!switch_self_context} (free when contexts already match). *)

(** {1 Cross-thread operations (engine level)} *)

val wake : t -> thread -> unit
(** Make a blocked thread runnable (dispatching it to a free processor if
    any, preferring the one it last ran on), or resume a spinning thread
    on the processor it is holding. No-op on running/ready/dead threads. *)

val set_idle_hook : t -> (cpu -> unit) -> unit
(** Install the callback run when a processor looks for work and finds
    none — its own run queue is empty and no other queue holds a
    runnable thread (so there is nothing to steal). The kernel hangs its
    idle-processor prod policy (§3.4 domain caching) here: the hook may
    retag the processor's context but runs at engine level and must not
    perform effects. Default: ignore. *)

val total_steals : t -> int
(** Threads taken from another processor's run queue since creation
    (tagged-context steals included); per-CPU counts live on {!cpu}. *)

val total_steals_near : t -> int
(** Steals whose victim queue shared the thief's cluster. Always 0
    without a {!Cost_model.topology}. *)

val total_steals_far : t -> int
(** Steals that crossed clusters. Always 0 without a topology. *)

val topology : t -> Cost_model.topology option
(** The locality topology the engine was created with, if any. *)

val victim_ring : t -> int -> int array
(** A copy of the distance-ordered steal scan order for the given CPU
    (near cluster first); [[||]] when the model has no topology. *)

val interrupt : t -> thread -> exn -> unit
(** Arrange for [exn] to be raised inside the thread at its next
    scheduling point (immediately if it is waiting). *)

val kill : t -> thread -> unit
(** [interrupt] with {!Thread_killed}; the engine treats the resulting
    death as normal termination. *)

(** {1 Timers (engine level)} *)

type timer

val at : t -> Time.t -> (unit -> unit) -> timer
(** Schedule a callback for the given simulated time (clamped to [now]
    when already past). The callback runs at engine level — it may
    {!wake}, {!interrupt}, {!kill}, {!emit} and touch metrics, but must
    not perform effects ({!delay}, {!block}, ...). Timers live in the
    timer heap, whose sequences are shared with the run heap, so their
    firing order against other events at the same instant is the
    deterministic (time, sequence) order. Used for call deadlines,
    packet deliveries and fault-plan crash schedules; a thread that only
    waits for a time uses {!sleep_until}. *)

val cancel_timer : t -> timer -> unit
(** Disarm a timer; harmless when it already fired. *)

(** {1 Accounting} *)

val charge : t -> Category.t -> Time.t -> unit
(** Attribute time to a category without consuming simulated time (used
    for costs folded into another thread's wait). Rare; prefer {!delay}. *)

val breakdown : t -> (Category.t * Time.t) list
(** Accumulated charged time per category, in {!Category.all} order,
    omitting empty categories. *)

val reset_breakdown : t -> unit

val total_tlb_misses : t -> int
(** Sum of TLB misses across processors since creation. *)

(** {1 Observability} *)

val metrics : t -> Lrpc_obs.Metrics.t
(** The machine-wide metrics registry. The engine itself maintains
    ["sim.time_ns{category=...}"] (the {!breakdown} counters) and
    ["sim.tlb_misses"]; the kernel, LRPC runtime, and baselines register
    their instruments here too, so one snapshot covers the machine. *)

val set_tracer : t -> Trace.t option -> unit
(** Attach (or detach) an execution tracer; scheduling events —
    dispatches, blocks, wakes, context switches, processor exchanges,
    thread deaths — and one {!Lrpc_obs.Event.Slice} per charged delay are
    emitted to it. Off by default; zero cost when detached. *)

val tracing : t -> bool
(** Whether a tracer is attached. Callers that build a non-trivial event
    payload should guard with this so detached tracing constructs
    nothing: [if Engine.tracing e then Engine.emit e (Event.Copy ...)]. *)

val emit : ?tid:int -> ?cpu:int -> t -> Lrpc_obs.Event.t -> unit
(** Emit a typed event to the attached tracer (no-op when detached) at
    the current simulated time. [tid]/[cpu] default to the currently
    executing thread's, or -1 outside any thread. Used by the kernel and
    runtime layers for traps, copies, binding, termination and network
    events. *)
