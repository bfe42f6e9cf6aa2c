(** TLB page footprints of the LRPC transfer path.

    On an untagged-TLB machine every context switch invalidates the TLB,
    and the pages the path then touches are refilled at 0.9 us apiece —
    about 25% of the Null call (paper §4). These functions enumerate the
    pages touched after each switch; the working sets (25 pages after
    the call-side switch, 18 after the return-side one, 43 total for the
    Null call) are derived in DESIGN.md §4 and asserted by tests.

    Footprints are int arrays, built once and then only read: the call
    side once per A-stack, at its first call, the return side once per
    binding, at its first return. When lazy association (paper §3.2)
    gives an A-stack another E-stack, {!set_estack} overwrites the
    E-stack's pages in place, so re-association allocates nothing. Only
    an out-of-band argument segment, fresh each call, gets a fresh
    call-side array. *)

val call_side :
  Rt.runtime ->
  Rt.binding ->
  Rt.astack ->
  Rt.estack ->
  data_region:Lrpc_kernel.Vm.region ->
  int array
(** Pages touched in the server context: kernel text and data, the
    server's entry stubs and procedure code, the E-stack working set (4
    pages), the argument data (A-stack or out-of-band segment), the PDL,
    the linkage record and the binding table. [estack] must be the
    A-stack's associated E-stack. The array is the A-stack's own when
    [data_region] is its A-stack: callers read it and keep no copy. *)

val set_estack : Rt.astack -> Rt.estack -> unit
(** The A-stack is now associated with this E-stack: overwrite the
    E-stack pages of its call-side footprint, when built, in place. The
    same pages in the same order as a footprint built for this E-stack.
    Allocates nothing. *)

val return_side : Rt.runtime -> Rt.binding -> int array
(** Pages touched back in the client context: the kernel's (shorter)
    return path, the client stubs, client code and the client stack. *)

(** {1 Building ahead of the switch}

    The first footprint built for a domain allocates its code and stack
    pages from the kernel's global page counter, at that simulated
    instant. A footprint that allocates nothing is the same whenever it
    is built. *)

val call_side_ready :
  Rt.runtime ->
  Rt.binding ->
  Rt.astack ->
  data_region:Lrpc_kernel.Vm.region ->
  bool
(** {!call_side} with these arguments is kept, or builds without
    allocating a page. *)

val return_side_ready : Rt.runtime -> Rt.binding -> bool
(** {!return_side} is kept, or builds without allocating a page. *)
