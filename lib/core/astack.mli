(** Argument-stack allocation and per-procedure LIFO queues (paper §3.1,
    §3.2, §5.2).

    At bind time the kernel pair-wise allocates, for each procedure
    descriptor, as many A-stacks as simultaneous calls permitted, mapped
    read-write into exactly the client and server domains, each with a
    kernel-private linkage record co-located so the linkage is found from
    the A-stack address. The client stub manages the set as LIFO free
    lists {e sharded per processor} (one shard per CPU, capped by the
    A-stack count), each guarded by its own lock (under 2% of call time;
    no global locking on the transfer path). A checkout prefers the
    calling processor's shard and never spins: a shard whose lock is held
    is skipped, and when every remaining free A-stack sits behind a held
    lock the caller falls back to the FIFO direct-grant wait path
    (counted in ["lrpc.astack_shard_contended"]), bounded by a timer that
    re-grants from the free lists.

    When the shards run dry the caller either waits for an earlier call
    to finish or allocates extra A-stacks; extras live outside the
    primary contiguous region and take slightly longer to validate. *)

val make_pool :
  Rt.runtime ->
  client:Lrpc_kernel.Pdomain.t ->
  server:Lrpc_kernel.Pdomain.t ->
  proc:Lrpc_idl.Types.proc ->
  size:int ->
  count:int ->
  Rt.astack_pool
(** Pair-wise allocate [count] A-stacks of [size] bytes, each with its
    linkage record, into a set with per-processor locked shards and a
    shared FIFO wait queue — owned by one procedure, or shared among
    same-sized procedures under A-stack sharing (§3.1). The set has
    [min processors count] shards (at least one), fixed for its
    lifetime; A-stacks are dealt to them round-robin. Bind-time
    operation: no simulated time is charged. *)

type admit = {
  ad_binding : Rt.binding;
      (** whose ["lrpc.queue_delay_us"] histogram a queued wait observes
          its sojourn into *)
  ad_deadline_at : Lrpc_sim.Time.t option;
      (** the call's absolute deadline; set only while an admission
          policy is installed, and delivered as [Rt.Deadline_exceeded]
          into a waiter still queued when it passes *)
}

val checkout : ?admit:admit -> Rt.runtime -> Rt.proc_binding ->
  client:Lrpc_kernel.Pdomain.t -> server:Lrpc_kernel.Pdomain.t -> Rt.astack
(** Pop an A-stack off a shard's free list under that shard's lock,
    starting from the calling processor's preferred shard and skipping
    (never spinning on) shards whose lock is held. When the only free
    A-stacks are behind held locks, fall back to the FIFO direct-grant
    wait (counted in ["lrpc.astack_shard_contended"]); on genuine
    exhaustion apply the configured policy (counted in
    ["lrpc.astack_pool_exhausted"]): enqueue as a FIFO waiter and block
    until a check-in grants an A-stack directly — the caller resumes with
    it in hand, without re-taking any shard spinlock — or allocate a
    non-primary batch. In-thread: charges one lock hold.

    [admit] is the overload-control context (normal call-path checkouts
    always pass one). A queued wait records its sojourn into the
    binding's queue-delay histogram, and — only while an admission
    policy is installed on the runtime — enforces the policy's
    queue-depth bound (refusing with [Rt.Overloaded] before enqueueing),
    sheds the waiter with [Rt.Overloaded] when its queue delay passes
    the sojourn target (counted in ["lrpc.calls_shed"]), and aborts it
    with [Rt.Deadline_exceeded] when [ad_deadline_at] passes first. A
    shed or aborted waiter is deactivated and leaks nothing: a grant
    racing the interrupt is passed on to the next live waiter. Without
    an installed policy no timer is armed and the checkout is
    cost-identical to the pre-admission path. *)

val checkin : Rt.runtime -> Rt.proc_binding -> Rt.astack -> unit
(** Hand the A-stack to the longest-waiting blocked caller (FIFO, granted
    before the wake so no lock is needed on the waiter's side), or push
    it back on its home shard's free list (LIFO). In-thread: charges one
    lock hold. *)

val waiting : Rt.astack_pool -> int
(** Callers currently blocked on pool exhaustion. *)

val free_count : Rt.astack_pool -> int
(** A-stacks currently free, summed across shards. Engine-level safe. *)

val fail_waiters : Rt.runtime -> Rt.astack_pool -> exn -> unit
(** Unlink every queued waiter and deliver [exn] into it instead of a
    grant. Called by {!Binding.revoke} when the binding dies (§5.3), so
    a caller queued on the pool of a terminated binding fails with
    call-failed rather than receiving an A-stack it can no longer use.
    Engine-level safe (no effects performed). *)

val validate : Rt.runtime -> Rt.proc_binding -> Rt.astack -> unit
(** Kernel-side validation on call: membership of the procedure's
    A-stack set (a range check for the primary contiguous region — free,
    folded into the kernel-transfer constant — and a slower lookup,
    [extra_astack_validation], for extras), plus the
    nobody-else-is-using-this-A-stack/linkage check. Raises
    [Rt.Bad_binding] on failure. *)
