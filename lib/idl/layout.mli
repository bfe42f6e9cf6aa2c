(** A-stack sizing and call-time slot planning.

    The stub generator determines the number and size of A-stacks per
    procedure at compile time (paper §5.2): exactly when every parameter
    and return value has fixed size, and the Ethernet-packet default when
    any is variable-sized. At call time, {!plan} packs the actual argument
    values into slots; when they do not fit the A-stack the call must fall
    back to out-of-band transfer (handled by the LRPC runtime). *)

val ethernet_packet_size : int
(** 1500 bytes — the era's Ethernet MTU, the paper's default A-stack size
    for procedures with variable-size arguments. *)

type t = private {
  proc : Types.proc;
  astack_size : int;
  exact : bool;  (** size known exactly at compile time *)
}

val of_proc : ?default_size:int -> Types.proc -> t
(** [default_size] defaults to {!ethernet_packet_size} and can be
    overridden by the interface writer, as the paper allows. *)

type slot = {
  sparam : Types.param option;  (** [None] for the function result slot *)
  svalue : Value.t option;  (** argument value to marshal, if input *)
  offset : int;
  size : int;
}

type plan = { slots : slot list; total_bytes : int }

exception Arity_mismatch of string

val plan : t -> args:Value.t list -> plan
(** Pack the given input arguments (one per [In]/[In_out] parameter, in
    declaration order) into consecutive slots, reserving maximum-size
    space for [Out] parameters and the result. Raises {!Arity_mismatch}
    when the argument count is wrong and [Value.Conformance_error] when a
    value does not conform to its parameter's declared type. *)

val fits : t -> plan -> bool
(** Whether the planned call fits the procedure's A-stacks, or must go
    out-of-band. *)

val input_slots : plan -> slot list
(** Slots carrying an argument value (copy A on call). *)

val output_slots : plan -> slot list
(** Slots the client must read back on return ([Out]/[In_out] parameters
    and the result — copy F). *)

val immutable_copy_slots : plan -> slot list
(** Input slots whose parameter the server interprets (not flagged
    [uninterpreted]): when immutability matters these are the ones the
    server stub defensively copies (copy E; paper §3.5). *)
