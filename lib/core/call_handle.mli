(** Read-only view of an asynchronous call handle.

    A handle is issued by {!Api.call_async} (or consumed transparently
    inside {!Api.call}) and travels through four states: issued (inline
    — the completion half will run on the awaiting thread), in flight
    (a carrier thread is executing the transfer), landed (outcome
    known, results still parked in the A-stack awaiting their copy-F
    readback), and consumed (awaited; a second await raises
    {!Rt.Already_awaited}). *)

type t = Rt.call_handle

type state = [ `Issued | `In_flight | `Landed_ok | `Landed_error | `Consumed ]

val id : t -> int
(** Unique per runtime, monotonically increasing; matches the [handle]
    field of the [Call_issued]/[Call_completed] trace events. *)

val proc : t -> string
val binding : t -> Rt.binding

val issuer : t -> Lrpc_sim.Engine.thread
(** The thread that issued the call. *)

val carrier : t -> Lrpc_sim.Engine.thread option
(** The carrier thread executing a pipelined call's completion half;
    [None] for inline (synchronous) handles. This is the thread to
    {!Api.alert} or {!Api.release_captured} when the call is stuck in
    the server. *)

val state : t -> state
val is_consumed : t -> bool

val is_remote : t -> bool
(** The binding's remote bit (paper §5.1): the call went over the
    network path under the in-flight window, not through an A-stack. *)
