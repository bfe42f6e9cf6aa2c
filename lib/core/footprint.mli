(** TLB page footprints of the LRPC transfer path.

    On an untagged-TLB machine every context switch invalidates the TLB,
    and the pages the path then touches are refilled at 0.9 us apiece —
    about 25% of the Null call (paper §4). These functions enumerate the
    pages touched after each switch; the working sets (25 pages after
    the call-side switch, 18 after the return-side one, 43 total for the
    Null call) are derived in DESIGN.md §4 and asserted by tests.

    Neither side is rebuilt per call: the call side is kept on the
    A-stack for the E-stack it is associated with, the return side on the
    binding. Only an out-of-band argument segment, fresh each call, gets
    a fresh call-side list. *)

val call_side :
  Rt.runtime ->
  Rt.binding ->
  Rt.astack ->
  Rt.estack ->
  data_region:Lrpc_kernel.Vm.region ->
  int list
(** Pages touched in the server context: kernel text and data, the
    server's entry stubs and procedure code, the E-stack working set (4
    pages), the argument data (A-stack or out-of-band segment), the PDL,
    the linkage record and the binding table. *)

val return_side : Rt.runtime -> Rt.binding -> int list
(** Pages touched back in the client context: the kernel's (shorter)
    return path, the client stubs, client code and the client stack. *)
