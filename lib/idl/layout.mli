(** A-stack sizing and call-time slot planning.

    The stub generator determines the number and size of A-stacks per
    procedure at compile time (paper §5.2): exactly when every parameter
    and return value has fixed size, and the Ethernet-packet default when
    any is variable-sized. The slots are laid out then too, unless an
    input has a variable size: at call time {!plan} checks the argument
    values and, only for such a procedure, lays out slots to fit them.
    When they do not fit the A-stack the call must fall back to
    out-of-band transfer (handled by the LRPC runtime). *)

val ethernet_packet_size : int
(** 1500 bytes — the era's Ethernet MTU, the paper's default A-stack size
    for procedures with variable-size arguments. *)

type t = private {
  proc : Types.proc;
  astack_size : int;
  exact : bool;  (** size known exactly at compile time *)
  in_params : Types.param list;  (** [In]/[In_out] parameters, in order *)
  n_inputs : int;
  static_plan : plan option;
      (** the plan of every call when every input has a fixed size, as
          the stub generator lays it out at compile time *)
}

and slot = {
  sparam : Types.param option;  (** [None] for the function result slot *)
  offset : int;
  size : int;
}

and plan = {
  in_slots : slot list;
      (** one slot per [In]/[In_out] parameter, in declaration order:
          the arguments, copied in on call (copy A) *)
  out_slots : slot list;
      (** [Out]/[In_out] parameters, then the result: what the client
          reads back on return (copy F) *)
  total_bytes : int;
}

val of_proc : ?default_size:int -> Types.proc -> t
(** [default_size] defaults to {!ethernet_packet_size} and can be
    overridden by the interface writer, as the paper allows. *)

exception Arity_mismatch of string

val plan : t -> args:Value.t list -> plan
(** Check the given input arguments (one per [In]/[In_out] parameter, in
    declaration order) and lay them out in consecutive slots, reserving
    maximum-size space for [Out] parameters and the result. Raises
    {!Arity_mismatch} when the argument count is wrong and
    [Value.Conformance_error] when a value does not conform to its
    parameter's declared type. Returns the layout's [static_plan] when
    there is one, so only a call with a variable-size argument builds a
    plan.
    The arguments themselves are not in the plan: they pair, in order,
    with its [in_slots]. *)

val fits : t -> plan -> bool
(** Whether the planned call fits the procedure's A-stacks, or must go
    out-of-band. *)

val slot_type : slot -> proc:Types.proc -> Types.base
(** The type of the value in a slot of [proc]'s plan: its parameter's,
    or [proc]'s result type for the result slot. *)

val immutable_copy_slots : plan -> slot list
(** Input slots whose parameter the server interprets (not flagged
    [uninterpreted]): when immutability matters these are the ones the
    server stub defensively copies (copy E; paper §3.5). *)
