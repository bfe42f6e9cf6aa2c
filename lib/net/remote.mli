(** The remote-call path both network transports share (paper §5.1).

    {!Netrpc} and {!Erpc} differ only in their wire models. Everything
    else about a call through a remote Binding Object lives here, once:
    import validation, the per-binding sequence number, the
    ["net.remote_calls"] count, payload byte counts, and at-most-once
    execution.

    The stub's argument checks are not here: {!Lrpc_core.Call} makes
    them at issue, on the Binding Object's interface, before the call
    claims a window slot. A transport call therefore always carries a
    known procedure and well-typed arguments.

    {b At-most-once.} Each transport call gets one {!cell}. The first
    {!execute} on the cell runs the procedure. Every later one (a
    retransmitted request whose reply was lost, or a request the wire
    delivered twice) returns the stored results and counts a duplicate.
    Only the call that owns a [seq] ever retransmits it, and the server
    runs inline in that call, so the cell is all the state at-most-once
    needs. It is released when the transport call exits, on every path:
    a reply, a typed failure, an exception from the procedure, or a
    killed caller. Live cells are therefore bounded by the binding's
    in-flight window, and nothing is kept per completed call. *)

type t
(** One remote binding's shared state. *)

type cell
(** One transport call: its procedure, arguments, [seq] and results. *)

val create :
  who:string ->
  duplicates:string ->
  live:string ->
  peak:string ->
  Lrpc_core.Api.t ->
  client:Lrpc_kernel.Pdomain.t ->
  server:Lrpc_kernel.Pdomain.t ->
  Lrpc_idl.Types.interface ->
  impls:(string * (Lrpc_idl.Value.t list -> Lrpc_idl.Value.t list)) list ->
  t
(** Validate an import and set up its state. Raises [Invalid_argument]
    (prefixed by [who]) when [client] and [server] share a machine or
    the interface is malformed. [duplicates] names the counter that
    {!execute} increments per answered duplicate. [live] and [peak] name
    the gauges of live cells: executed, and whose transport call has not
    exited yet. Each write sets [live] to this binding's count and
    raises [peak] to it when it is higher. Several bindings may share
    them. *)

val bind :
  ?window:int -> t -> (cell -> Lrpc_idl.Value.t list) -> Lrpc_core.Rt.binding
(** The remote Binding Object ([window] as in
    {!Lrpc_core.Binding.make_remote_binding}). Each transport call
    through it looks up the procedure's impl (raising [Rt.Bad_binding]
    when the server has none), takes the next [seq] (counting from 0),
    counts one ["net.remote_calls"], and runs the wire model on a fresh
    cell. *)

val execute : cell -> Lrpc_idl.Value.t list
(** Deliver the request to the server: run the procedure on the first
    delivery, answer every later one from the cell. *)

val proc : cell -> string
val seq : cell -> int

val binding : cell -> int
(** The id of the Binding Object the call went through. *)

val arg_bytes : cell -> int
(** Payload bytes of the arguments. *)

val payload_bytes : Lrpc_idl.Value.t list -> int

val remote_calls : Lrpc_core.Api.t -> int
(** Transport calls through this runtime's remote bindings, read from
    ["net.remote_calls"] in the engine's metrics registry. *)

val reset_remote_calls : Lrpc_core.Api.t -> unit
