(** Table 1 — Frequency of Remote Activity.

    "Percentage of operations that cross machine boundaries": V 3.0%,
    Taos 5.3%, Sun UNIX+NFS 0.6%. Regenerated by sampling the
    operation-mix models of {!Lrpc_workload.Os_profiles}. *)

type row = {
  os : string;
  operations : int;
  cross_machine : int;
  measured_percent : float;
  paper_percent : float;
}

type result = {
  rows : row list;
  sessions : Lrpc_workload.Session.report list;
      (** the same mixes run as real simulated workstation sessions —
          every local operation is an actual LRPC, every remote one an
          actual network RPC — showing the time split too *)
  seed : int64;
}

val run : ?seed:int64 -> ?operations:int -> unit -> result
(** Default one million sampled operations per system, plus a 20,000-
    operation live session each. *)

val render : result -> string
