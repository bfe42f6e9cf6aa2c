(** Binding: exporting interfaces and importing Binding Objects (paper
    §3.1).

    A server module exports an interface through a clerk; a client binds
    by an import call through the kernel, which pair-wise allocates the
    A-stacks and linkage records and hands back a Binding Object — the
    client's unforgeable key for the interface, presented on every call.
    Binding happens once, off the critical path, so these operations
    charge no simulated time and may be invoked outside simulated
    threads during experiment set-up. *)

val export :
  Rt.runtime ->
  domain:Lrpc_kernel.Pdomain.t ->
  ?defensive_copies:bool ->
  Lrpc_idl.Types.interface ->
  impls:(string * Rt.impl) list ->
  Rt.export
(** Register the interface with the name server. Every procedure must
    have an implementation; the interface must validate. Waiting
    importers are notified. *)

val import :
  ?wait:bool ->
  Rt.runtime ->
  domain:Lrpc_kernel.Pdomain.t ->
  interface:string ->
  Rt.binding
(** Bind to an exported interface. With [~wait:true] (in-thread only) the
    importer blocks until some clerk exports the interface; otherwise an
    absent interface raises [Rt.Not_exported]. Raises
    [Rt.Bad_binding] when binding to a terminating domain. *)

val make_remote_binding :
  ?window:int ->
  Rt.runtime ->
  client:Lrpc_kernel.Pdomain.t ->
  server:Lrpc_kernel.Pdomain.t ->
  Lrpc_idl.Types.interface ->
  transport:Rt.remote_transport ->
  Rt.binding
(** A Binding Object whose remote bit is set (paper §5.1): calls branch
    to [transport] in the first stub instruction. Used by the network
    RPC layer; no A-stacks are allocated — instead at most [window]
    (default 8, clamped to at least 1) calls may be in flight at once;
    issuers past the window block FIFO until a reply lands. *)

val find_proc : Rt.binding -> string -> Rt.proc_binding
(** The named procedure of the Binding Object's interface, found without
    allocating.
    @raise Rt.Bad_binding when the interface has no such procedure. *)

val verify : Rt.runtime -> Rt.binding -> caller:Lrpc_kernel.Pdomain.t -> unit
(** The kernel's call-time check: the Binding Object must be one the
    kernel issued (forgeries are detected by identity against the
    binding table), not revoked, and presented by the domain it was
    issued to. The procedure is not looked up again: the client stub
    found it on this Binding Object at issue, and a binding's
    procedures never change. *)

val revoke : Rt.runtime -> Rt.binding -> unit
(** Revoke one Binding Object: no more in- or out-calls through it, and
    all its active linkage records are invalidated. *)
