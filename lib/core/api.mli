(** The public LRPC API.

    Typical use (and see [examples/quickstart.ml]):

    {[
      let engine = Engine.create ~processors:2 Cost_model.cvax_firefly in
      let kernel = Kernel.boot engine in
      let rt = Api.init kernel in
      let server = Kernel.create_domain kernel ~name:"arith" in
      let client = Kernel.create_domain kernel ~name:"app" in
      let iface = Lrpc_idl.Parser.parse
        "interface Arith { proc add(a: int, b: int): int; }" in
      let _export =
        Api.export rt ~domain:server iface
          ~impls:[ ("add", fun ctx ->
            match Server_ctx.args ctx with
            | [ Int a; Int b ] -> [ Value.int (a + b) ]
            | _ -> assert false) ]
      in
      let binding = Api.import rt ~domain:client ~interface:"Arith" in
      (* from a simulated thread: *)
      ignore (Kernel.spawn kernel client (fun () ->
        (* synchronous: *)
        match Api.call rt binding ~proc:"add" [ Value.int 2; Value.int 3 ] with
        | [ Int 5 ] -> ()
        | _ -> assert false));
      ignore (Kernel.spawn kernel client (fun () ->
        (* pipelined: issue several calls, then collect *)
        let hs =
          List.map
            (fun i ->
              Api.call_async rt binding ~proc:"add"
                [ Value.int i; Value.int i ])
            [ 1; 2; 3 ]
        in
        ignore (Api.await_all rt hs)));
      Engine.run engine
    ]} *)

type t = Rt.runtime

exception Not_in_thread of string
(** A call-path entry point ({!call}, {!call_async}, {!await}, ...) was
    invoked outside a simulated thread; the payload names the offending
    function. *)

(** Per-operation options, collapsing the former [?audit] /
    [?defensive_copies] / [?wait] optional-argument sprawl into one
    documented record. Build from {!Options.default}:
    [{ Options.default with audit = Some a }]. *)
module Options : sig
  type t = {
    audit : Lrpc_kernel.Vm.audit option;
        (** record every call-path copy with its Table 3 label (A, E,
            F) — {!call}/{!call_async} *)
    defensive_copies : bool;
        (** server stubs defensively copy interpreted arguments off the
            A-stack (paper §3.5) — {!export} *)
    wait : bool;
        (** block in the kernel until the interface is exported rather
            than raising [Rt.Not_exported] — {!import} *)
    deadline : Lrpc_sim.Time.t option;
        (** abort the call through the §5.3 captured-thread path if it
            has not landed within this much simulated time of issue —
            {!call}/{!call_async}. A synchronous {!call} with a deadline
            rides a carrier thread (an awaiting thread cannot release
            itself), so this is the one option that changes a call's
            simulated cost. *)
  }

  val default : t
  (** No auditing, no defensive copies, non-blocking import, no
      deadline. *)
end

(** Why a call failed, for the [result]-typed entry points. Driven by
    the typed runtime exceptions; see {!call_result}. *)
type failure =
  | Failed of string
      (** [Rt.Call_failed]: server domain terminated mid-call, binding
          revoked while queued for an A-stack, or remote retry
          exhaustion. *)
  | Aborted of string
      (** [Rt.Call_aborted]: the call was released while captured
          (§5.3). *)
  | Deadline of string
      (** [Rt.Deadline_exceeded]: a [deadline] or [?timeout] fired. *)
  | Rejected of string
      (** [Rt.Bad_binding] / [Rt.Not_exported]: the call never started. *)
  | Overloaded of { reason : string; retry_after_us : float }
      (** [Rt.Overloaded]: refused by admission control or shed from the
          A-stack queue under an installed {!Rt.admission} policy — the
          call never consumed a server thread. [retry_after_us] is the
          server's backoff hint. *)
  | Stub_raised of string
      (** Any other exception escaping the server procedure,
          [Printexc]-rendered. *)

val failure_to_string : failure -> string

val init : ?config:Rt.config -> Lrpc_kernel.Kernel.t -> t
(** Create the LRPC runtime on a booted kernel and install its
    termination collector. One runtime per kernel. *)

val kernel : t -> Lrpc_kernel.Kernel.t
val engine : t -> Lrpc_sim.Engine.t

val export :
  t ->
  domain:Lrpc_kernel.Pdomain.t ->
  ?options:Options.t ->
  Lrpc_idl.Types.interface ->
  impls:(string * Rt.impl) list ->
  Rt.export
(** See {!Binding.export}. [options.defensive_copies] selects the §3.5
    defensive-stub variant. *)

val import :
  ?options:Options.t ->
  t ->
  domain:Lrpc_kernel.Pdomain.t ->
  interface:string ->
  Rt.binding
(** See {!Binding.import}. [options.wait] blocks until the interface is
    exported instead of raising [Rt.Not_exported]. *)

val call :
  ?options:Options.t ->
  t ->
  Rt.binding ->
  proc:string ->
  Lrpc_idl.Value.t list ->
  Lrpc_idl.Value.t list
(** See {!Call.call}: one synchronous LRPC, a thin
    {!call_async}+{!await} pair over an inline handle (the awaiting
    thread itself crosses into the server, so the cost is exactly the
    paper's synchronous path). Must run inside a simulated thread —
    raises {!Not_in_thread} otherwise. Auditing and deadlines come from
    [?options]. *)

val call_async :
  ?options:Options.t ->
  t ->
  Rt.binding ->
  proc:string ->
  Lrpc_idl.Value.t list ->
  Call_handle.t
(** See {!Call.call_async}: claim a free A-stack, marshal, dispatch a
    carrier thread, return immediately. Blocks only on A-stack-pool
    exhaustion (FIFO back-pressure) or a full remote in-flight window.
    Raises {!Not_in_thread} outside a simulated thread. *)

val await :
  ?timeout:Lrpc_sim.Time.t -> t -> Call_handle.t -> Lrpc_idl.Value.t list
(** See {!Call.await}: block until the call lands (if it hasn't), read
    the results back, release the A-stack. One await per handle —
    raises [Rt.Already_awaited] on the second. With [?timeout], an
    in-flight call that does not land in time is aborted and the await
    raises [Rt.Deadline_exceeded]. *)

val await_any :
  t -> Call_handle.t list -> Call_handle.t * Lrpc_idl.Value.t list
(** See {!Call.await_any}. *)

val await_all :
  ?timeout:Lrpc_sim.Time.t ->
  t -> Call_handle.t list -> Lrpc_idl.Value.t list list
(** See {!Call.await_all}: on failure the error propagates immediately,
    leaving later handles unconsumed — use {!await_all_results} when
    every handle must be drained. *)

val abort : t -> Call_handle.t -> reason:string -> unit
(** See {!Call.abort}: land an unlanded call with
    [Rt.Deadline_exceeded reason] now, abandoning its vehicle per
    §5.3. *)

val set_admission : t -> Rt.admission option -> unit
(** Install (or clear, with [None]) the runtime-wide overload-control
    policy. With a policy installed, calls are refused with
    [Rt.Overloaded] when a binding reaches its concurrency limit, when
    the A-stack FIFO is past its depth bound, when a queued wait
    exceeds the target sojourn (CoDel-style shedding), or — with
    deadline-aware admission — when a call's whole deadline budget is
    below the binding's observed service time. With no policy installed
    (the default), the call path does no admission work and its delay
    sequence is bit-identical to pre-admission builds. *)

val call_result :
  ?options:Options.t ->
  t ->
  Rt.binding ->
  proc:string ->
  Lrpc_idl.Value.t list ->
  (Lrpc_idl.Value.t list, failure) result
(** {!call}, with the typed LRPC failures reified as [Error _] instead
    of raised. Caller bugs ([Not_in_thread], [Rt.Already_awaited],
    [Invalid_argument]) and thread death still raise. *)

val await_result :
  ?timeout:Lrpc_sim.Time.t ->
  t -> Call_handle.t -> (Lrpc_idl.Value.t list, failure) result
(** {!await} with failures reified, like {!call_result}. *)

val await_all_results :
  ?timeout:Lrpc_sim.Time.t ->
  t -> Call_handle.t list -> (Lrpc_idl.Value.t list, failure) result list
(** {!await_result} each handle in order: every handle is drained and
    its A-stack released no matter how its neighbours fared — the
    shutdown-safe way to collect a batch under fault injection. *)

val call1 :
  ?options:Options.t ->
  t ->
  Rt.binding ->
  proc:string ->
  Lrpc_idl.Value.t list ->
  Lrpc_idl.Value.t
(** [call] for procedures with exactly one output. *)

val terminate_domain : t -> Lrpc_kernel.Pdomain.t -> unit
(** Terminate a domain, running the LRPC collector (paper §5.3). *)

val release_captured :
  t ->
  captured:Lrpc_sim.Engine.thread ->
  replacement:(unit -> unit) ->
  Lrpc_sim.Engine.thread
(** See {!Termination.release_captured}. For a pipelined call the
    captured thread is the handle's {!Call_handle.carrier}. *)

val alert : t -> Lrpc_sim.Engine.thread -> unit
(** Taos-style alert: ask (but not force) a thread's current server
    procedure to come home (paper §5.3). *)

val calls_completed : t -> int

val calls_in_flight : t -> int
(** Issued-but-not-landed calls, local and remote — the live value of
    the ["lrpc.calls_in_flight"] gauge. *)
