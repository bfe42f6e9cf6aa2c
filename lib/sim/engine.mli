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

    Every thread's fiber runs under one effect handler, built once per
    engine, whose closures find their thread as the one executing. A
    suspended thread's continuation is stored bare on the thread, and
    the empty slot holds a sentinel continuation, one already resumed,
    so a suspension allocates nothing besides the runtime's
    continuation. A thread that rests ({!rest_until}) holds no fiber at
    all until its wake.

    The loop drains two {!Heap}s, whose payloads are ints. The run heap
    holds thread resumptions (a dispatch, the end of a {!delay}, a
    spinner's wake) by thread id; a thread with one queued is on a
    processor, so it never holds more entries than there are
    processors. The timer heap holds {!at} timers, by their slot in a
    slab of timers, and the wake entries of {!sleep_until} and
    {!rest_until}, by the code [-1 - tid], which may be thousands. A
    slot is cleared and freed when its entry pops. Both heaps draw
    their insertion sequences from one counter, and each step pops the
    earlier top by (time, sequence): the same total order a single heap
    would give, so the split changes host cost only. A push at or after
    the newest time already in a heap's append-only lane costs O(1)
    ({!Heap}); on a machine whose processors run the same loop in
    lockstep, that is every push.

    A delay may carry a tail ({!delay_then}, {!switch_then_touch}): a
    second charge that follows with no instruction of the thread
    between. When the first resumption pops, the engine charges the
    tail as the resumed thread would have, and resumes the thread only
    after it; {!resumptions} counts what that saves (DESIGN.md §7). *)

type t

type thread

type tail
(** What a processor owes its running thread when the resumption of a
    {!delay_then} or {!switch_then_touch} pops. *)

type cpu = {
  idx : int;
  mutable running : thread option;
  mutable context : int option;  (** domain whose VM context is loaded *)
  tlb : Tlb.t;
  mutable busy : Time.t;  (** cumulative busy time, for utilization *)
  mutable rq_head : thread;
  mutable rq_tail : thread;
  mutable rq_len : int;
      (** this processor's own run queue, oldest first, and its length:
          a list linked through its threads, each stamped at enqueue from
          one global counter so cross-queue age is comparable.
          Engine-owned. *)
  mutable tail : tail;
  mutable tail_cat : Category.t;
  mutable tail_len : Time.t;
  mutable tail_pages : Tlb.footprint;
      (** the running thread's pending tail, kept here rather than on the
          thread (DESIGN.md §7); a refill's pages are the caller's
          footprint, held, not copied, until the tail is charged.
          Engine-owned. *)
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
    @raise Invalid_argument when [processors < 1], [domains <> 1] or
    [cm.tlb_capacity < 1]. *)

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

val resumptions : t -> int
(** Times since creation that the engine handed a processor back to a
    thread: its first instruction, the end of a suspension or of a
    rest, or an interrupt's delivery. A popped resumption that only
    charges a pending tail (see {!delay_then}) and queues again is not
    one. *)

val timer_pushes : t -> int
(** Timers and the wake entries of sleeps and rests pushed on the
    timer heap since creation. *)

(** {1 Thread inspection (engine level)} *)

val thread_id : thread -> int
val thread_name : thread -> string
val thread_domain : thread -> int
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
    way.
    @raise Invalid_argument on a negative duration: the clock would run
    backwards. A delay of 0 is charged like any other. *)

val delay_then :
  ?category:Category.t -> t -> Time.t -> then_:Category.t -> Time.t -> unit
(** [delay_then ~category t d ~then_ d'] is
    [delay ~category t d; delay ~category:then_ t d'], observably: the
    same slices, times, dilations, heap pushes and sequences. Where the
    first delay suspends, the thread is resumed once instead of twice:
    the engine charges [d'] itself when the first resumption pops,
    dilated by the executing count of that instant. An interrupt pending
    then is delivered there, and [d'] is never charged.
    @raise Invalid_argument when [d] or [d'] is negative. *)

val block : t -> unit
(** Release the processor and sleep until {!wake}. *)

val sleep_until : t -> Time.t -> unit
(** Release the processor and sleep until the given simulated time
    (clamped to [now] when already past), without allocating: the wake
    entry is the thread's wake code. It behaves as an {!at} timer
    that {!wake}s the caller, followed by {!block}, and takes the same
    place in the event order. Unlike that timer, the entry is ignored
    unless the thread is still in this sleep, so a sleep left early (by
    {!wake} or {!interrupt}) never wakes a later wait. *)

val rest_until : t -> Time.t -> (unit -> unit) -> 'a
(** [rest_until t time k] is [sleep_until t time; k ()], observably,
    when no exception handler lies between the thread's body and this
    call: the same wake entry, block, events, sequences, pushes and
    resumptions. It never returns: the thread's fiber ends here, by a
    private exception that unwinds it, and at the wake the engine
    starts [k] as the thread's body on a fresh fiber, so a resting
    thread holds no stack. An interrupt delivered at the wake ends the
    thread as it ends a sleeper with no handler ({!Thread_killed} as a
    normal end, any other exception as a failure), and [k] never runs.
    A handler around the call that catches every exception would catch
    the unwinding and leave the thread running while blocked: call it
    where nothing does. *)

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

val touch_pages : t -> pages:Tlb.footprint -> unit
(** Access the given pages, in order, through the current processor's
    TLB in the current thread's domain, charging [Tlb_miss] per miss.
    Allocates nothing, so a caller can build a footprint once and touch
    it on every call. Right after a flush the TLB only records the
    footprint ({!Tlb.access}), and keeps it until the next flush: write
    its pages only through {!patch_footprint}. *)

val patch_footprint :
  t -> Tlb.footprint -> pos:int -> src:int array -> len:int -> unit
(** [Tlb.blit ~src fp ~pos ~len] after settling every processor's TLB
    that holds a recorded refill of [fp], so a TLB reads the pages as
    they were when it was touched. The one way to write a footprint
    that has been touched. Allocates nothing. *)

val switch_self_context : t -> domain:int -> unit
(** The running thread crosses into [domain] on its current processor:
    if the loaded context differs, charge one VM reload, invalidate the
    TLB (untagged case) and update the processor; always retag the
    thread. This is LRPC's direct context switch. *)

val switch_then_touch : t -> domain:int -> pages:Tlb.footprint -> unit
(** [switch_self_context t ~domain; touch_pages t ~pages], observably,
    with one resumption where those may take two, as {!delay_then}: the
    engine looks [pages] up in the TLB, and charges the misses, when the
    reload's resumption pops: [pages] must hold, then, the pages the
    thread would touch at that instant. The engine keeps the footprint,
    not a copy, until the tail is charged. *)

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
    waits for a time uses {!sleep_until} or {!rest_until}. When the
    timer's entry pops, fired or cancelled, the engine keeps no
    reference to [fn]. *)

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
