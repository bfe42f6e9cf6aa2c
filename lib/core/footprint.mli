(** TLB page footprints of the LRPC transfer path.

    On an untagged-TLB machine every context switch invalidates the TLB,
    and the pages the path then touches are refilled at 0.9 us apiece —
    about 25% of the Null call (paper §4). These functions enumerate the
    pages touched after each switch; the working sets (25 pages after
    the call-side switch, 18 after the return-side one, 43 total for the
    Null call) are derived in DESIGN.md §4 and asserted by tests.

    Footprints are {!Lrpc_sim.Tlb.footprint}s, built once: the call
    side once per A-stack, at its first call, the return side once per
    binding, at its first return. The call path builds each before the
    context switch it is refilled after, so on the switch path the VM
    reload and the refill are one charge. The first footprint built for
    a domain allocates the domain's code and stack pages then, just
    ahead of the reload; page ids are compared only for equality, so
    that moves no simulated number. Each counts its distinct pages when
    built; kernel page ids are never reused, so on this path the count
    is the length. When lazy association (paper §3.2) gives an A-stack
    another E-stack, {!set_estack} overwrites the E-stack's pages in
    place, so re-association allocates nothing. Only an out-of-band
    argument segment, fresh each call, gets a fresh call-side
    footprint.

    A TLB refilled right after a flush keeps the footprint it was
    handed, not its pages (DESIGN.md §10), so a built footprint is
    written only through {!Lrpc_sim.Engine.patch_footprint}. *)

val call_side :
  Rt.runtime ->
  Rt.binding ->
  Rt.astack ->
  Rt.estack ->
  data_region:Lrpc_kernel.Vm.region ->
  Lrpc_sim.Tlb.footprint
(** Pages touched in the server context: kernel text and data, the
    server's entry stubs and procedure code, the E-stack working set (4
    pages), the argument data (A-stack or out-of-band segment), the PDL,
    the linkage record and the binding table. [estack] must be the
    A-stack's associated E-stack. The footprint is the A-stack's own
    when [data_region] is its A-stack: callers touch it and keep no
    copy. *)

val set_estack : Rt.runtime -> Rt.astack -> Rt.estack -> unit
(** The A-stack is now associated with this E-stack: overwrite the
    E-stack pages of its call-side footprint, when built, in place,
    through {!Lrpc_sim.Engine.patch_footprint}, which first settles any
    processor's TLB that holds a refill of it. The same pages in the
    same order as a footprint built for this E-stack. Allocates
    nothing. *)

val return_side : Rt.runtime -> Rt.binding -> Lrpc_sim.Tlb.footprint
(** Pages touched back in the client context: the kernel's (shorter)
    return path, the client stubs, client code and the client stack. *)
