(** Serial vs. pipelined LRPC throughput on 1-4 processors: the
    [bench/pipeline.exe] study.

    One client thread calls [add] [calls] times, either back to back
    ({!Lrpc_core.Api.call}) or keeping {!window} calls in flight
    ({!Lrpc_core.Api.call_async} then {!Lrpc_core.Api.await_all}), after
    {!window} warm-up calls. Each pipelined call rides a carrier thread
    that crosses trap → kernel transfer on its own. *)

val window : int
(** Calls kept in flight by the pipelined client: 4. *)

val proc : string
(** The procedure called: ["add"]. *)

val throughput : processors:int -> pipelined:bool -> calls:int -> float
(** Simulated calls per millisecond on a fresh C-VAX Firefly machine.
    @raise Failure when a simulated thread dies. *)

type row = {
  processors : int;
  serial_cpms : float;  (** serial calls per simulated millisecond *)
  pipelined_cpms : float;
  speedup : float;  (** [pipelined_cpms /. serial_cpms] *)
}

val rows : calls:int -> row list
(** One row per processor count, 1 to 4. *)
