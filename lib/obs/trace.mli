(** Execution tracing.

    A bounded ring of timestamped, typed {!Event.t}s, off by default and
    attached to an engine with [Engine.set_tracer]. Useful for debugging
    deadlocks in simulated protocols, for tests that assert on the
    {e sequence} of scheduling decisions rather than on time, and as the
    source for the {!Chrome_trace} exporter. *)

type event = {
  at : Time.t;
  tid : int;  (** thread id, -1 for engine-level events *)
  cpu : int;  (** processor index, -1 when off-processor *)
  kind : Event.t;
}

type t

val create : ?capacity:int -> unit -> t
(** Keep at most [capacity] (default 4096) most-recent events. *)

val emit : t -> at:Time.t -> tid:int -> cpu:int -> Event.t -> unit

val events : t -> event list
(** Retained events, oldest first. Only populated slots are visited. *)

val iter : t -> (event -> unit) -> unit
(** Like {!events}, without building the list. *)

val count : t -> int
(** Total events emitted, including those that fell off the ring. *)

val dropped : t -> int
(** Events lost to ring overwrites: [count t - List.length (events t)]. *)

val find : t -> kind:string -> event list
(** Retained events whose {!Event.name} equals [kind], oldest first. *)

val clear : t -> unit

val dump : t -> string
(** One line per retained event, same line shape as the pre-typed trace. *)
