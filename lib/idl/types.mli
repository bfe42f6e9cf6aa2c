(** Interface definitions.

    The Modula2+ definition files of the paper, reduced to the features
    the evaluation actually exercises: fixed-size scalar and byte-array
    parameters (the overwhelmingly common case per §2.2), variable-size
    byte arrays (which force the Ethernet-packet default A-stack size,
    §5.2), by-reference parameters (referent copied onto the A-stack,
    §3.2), parameters the server never interprets (which skip the
    immutability copy, §3.5), and procedures flagged complex (linked
    lists etc.), which fall back to conventional marshaling (§3.3). *)

type base =
  | Int32
  | Card32  (** positive integers only; conformance-checked in the stub *)
  | Bool
  | Fixed_bytes of int
  | Var_bytes of int  (** maximum size; wire form is 4-byte length + data *)
  | Record of (string * base) list
      (** flat structured values (directory entries, file attributes);
          fields concatenate on the wire and may nest. Recursive types —
          linked lists, trees — are beyond the generator, exactly as in
          the paper: flag such procedures [Complex] instead. *)

type mode = In | Out | In_out

type param = {
  pname : string;
  ty : base;
  mode : mode;
  by_ref : bool;
  uninterpreted : bool;
      (** the server treats the bytes as opaque (e.g. Write's buffer);
          no defensive copy is ever needed *)
}

type complexity = Simple | Complex

type proc = {
  proc_name : string;
  params : param list;
  result : base option;
  astacks : int;  (** simultaneous calls initially permitted; default 5 *)
  complexity : complexity;
}

type interface = { interface_name : string; procs : proc list }

val param :
  ?mode:mode -> ?by_ref:bool -> ?uninterpreted:bool -> string -> base -> param

val proc :
  ?result:base -> ?astacks:int -> ?complexity:complexity ->
  string -> param list -> proc

val interface : string -> proc list -> interface

val find_proc : interface -> string -> proc option

val default_astacks : int
(** 5, the paper's default number of simultaneous calls. *)

val base_size : base -> int
(** Bytes occupied on the A-stack. *)

val is_fixed_size : base -> bool

val proc_fixed_size : proc -> bool
(** All parameters and the result are of compile-time-known size. *)

val validate : interface -> (unit, string) result
(** Reject duplicate procedure/parameter names, non-positive sizes and
    zero A-stack counts. *)

val pp_base : Format.formatter -> base -> unit
