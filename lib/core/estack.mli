(** Execution-stack management (paper §3.2).

    E-stacks are large ("tens of kilobytes") and live in the server's
    address space, so they are managed conservatively: rather than
    pairing one with every A-stack at bind time, the kernel delays the
    A-stack/E-stack association until a call actually arrives with an
    unassociated A-stack, reusing any E-stack that is allocated but
    currently unassociated, and reclaiming associations from
    least-recently-used A-stacks when the server's address space runs
    low. *)

val associate : Rt.runtime -> server:Lrpc_kernel.Pdomain.t -> Rt.astack -> Rt.estack
(** Return the E-stack for this A-stack, associating lazily. Charges
    [estack_alloc_cost] (in-thread) only when a fresh E-stack must be
    allocated. When a fresh E-stack would exceed the server's
    address-space budget ({!Lrpc_kernel.Kernel.region_fits}, checked
    before anything is built), associations of not-recently-used
    A-stacks are reclaimed instead; raises [Out_of_memory] if nothing
    can be reclaimed, and [Domain_terminated] for a terminated server
    with no free E-stack. A new association patches the A-stack's
    call-side footprint ({!Footprint.set_estack}); one that reuses an
    E-stack allocates nothing. *)

val preallocate_all : Rt.runtime -> server:Lrpc_kernel.Pdomain.t -> Rt.astack list -> unit
(** Static policy (ablation A5): pair every A-stack with its own E-stack
    at bind time. *)

val reclaim : Rt.runtime -> server:Lrpc_kernel.Pdomain.t -> keep_newer_than:Lrpc_sim.Time.t -> int
(** Disassociate E-stacks whose A-stacks were last used at or before the
    given time, returning them to the free pool; returns how many were
    reclaimed. An A-stack whose linkage record is in use has a call in
    the server, running on its E-stack: that association is kept. *)

val pool_stats : Rt.runtime -> server:Lrpc_kernel.Pdomain.t -> total:int ref -> free:int ref -> unit
