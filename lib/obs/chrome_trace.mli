(** Chrome [trace_event] export.

    Serializes a {!Trace.t} to the JSON Array/Object format understood by
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: one track
    per simulated thread, {!Event.Slice} events as duration slices
    (phase ["X"]) and everything else as thread-scoped instants
    (phase ["i"]). Timestamps are microseconds of simulated time and are
    monotone in emission order. *)

val to_json : Trace.t -> Lrpc_util.Json.t
(** The retained events as one self-contained JSON document, drawn as
    process 0, ["lrpc-sim"]. The number of events that fell off the ring
    is recorded under [otherData.droppedEvents]. *)
