(** The stub generator's code emitter.

    LRPC stubs are generated directly in assembly language (paper §3.3):
    simple procedures compile to a handful of move and trap instructions,
    which is where the factor-of-four win over Modula2+ stubs comes from.
    This module renders that output — a pseudo C-VAX listing per stub —
    and reports the instruction counts the runtime uses as a sanity check
    against the cost model. Procedures flagged [Complex] instead emit a
    Modula2+-style marshaling skeleton, as the paper's generator does for
    linked lists and other heavyweight types. *)

type stub_listing = {
  listing_proc : string;
  client_asm : string;
  server_asm : string;
  client_instructions : int;
  server_instructions : int;
  language : [ `Assembly | `Modula2plus ];
}

val generate : Types.interface -> stub_listing list

val total_instructions : stub_listing -> int

val render : Format.formatter -> stub_listing -> unit
(** Both listings with a header, as the stub generator's file output. *)
