(** Runtime values crossing the RPC boundary, and their wire encoding.

    Encoding and decoding here are pure [Bytes.t] manipulation; the cost
    and protection of moving those bytes live in the kernel layer
    ([Lrpc_kernel.Vm]), which keeps this module usable by both LRPC and
    the message-passing baselines without double-charging. *)

type t =
  | Int of int
  | Card of int
  | Bool of bool
  | Bytes of bytes  (** fixed- or variable-size payloads *)
  | Struct of t list  (** record fields, positionally *)

exception Conformance_error of string
(** A value does not conform to its declared type — e.g. a negative
    [Card]. The paper (§3.5) folds this check into the copy so a client
    cannot crash a type-safe server with an unwanted negative value. *)

val int : int -> t
val card : int -> t
val bool : bool -> t
val bytes : bytes -> t
val bytes_of_string : string -> t
val struct_ : t list -> t

val type_check : Types.base -> t -> (unit, string) result
(** Structural conformance: constructor matches the declared type, fixed
    payload length matches exactly, variable payload within bound, cards
    non-negative, ints within 32 bits. *)

val check_exn : Types.base -> t -> unit
(** [type_check], raising {!Conformance_error}. *)

val encoded_size : Types.base -> t -> int
(** Bytes this value occupies on the A-stack / in a message under its
    declared type (variable-size payloads take 4 + actual length). *)

val encode : Types.base -> t -> bytes
(** Wire form. Raises {!Conformance_error} on mismatch. *)

val encode_into : Types.base -> t -> bytes -> off:int -> int
(** [encode_into ty v buf ~off] writes the wire form of [v] straight into
    [buf] at [off], with no intermediate copy, and returns its length,
    {!encoded_size}. Checks as {!encode} does, before writing anything;
    the caller makes sure the value fits. *)

val decode : Types.base -> bytes -> off:int -> t * int
(** [decode ty buf ~off] reads a value of type [ty], returning it and the
    number of bytes consumed. Inverse of {!encode}. *)

val decode_value : Types.base -> bytes -> off:int -> stop:int -> t
(** The value {!decode} reads, read straight out of [buf] as if the
    buffer ended at [stop]: a read that would cross [stop] raises the
    [Invalid_argument] that a copy of [\[off, stop)] decoded at offset 0
    would raise. With [stop] at the end of [buf] it is [fst (decode ty buf
    ~off)]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val payload_bytes : t -> int
(** Logical payload size: 4 for scalars, length for byte arrays. Used by
    workload statistics (Figure 1 counts argument/result bytes). *)
