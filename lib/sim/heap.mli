(** Binary min-heap keyed by [(time, sequence)].

    The event queue of the discrete-event engine. Ties on time are broken
    by insertion sequence so that simulation runs are deterministic.

    Stored as three parallel arrays (struct-of-arrays): a push allocates
    nothing beyond amortized array doubling, and {!top_time}/{!take} give
    the engine's run loop an allocation-free pop. Popped payload slots
    are nulled immediately, so the heap never retains a popped payload. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val push : 'a t -> time:Time.t -> 'a -> unit
(** Insertion order among equal times is preserved on [pop]/[take]. *)

val top_time : 'a t -> Time.t
(** Time of the earliest event, without allocating.
    @raise Invalid_argument on an empty heap. *)

val take : 'a t -> 'a
(** Remove and return the earliest event's payload, without allocating.
    Read {!top_time} first when the timestamp is needed.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event (allocating convenience form of
    {!top_time} + {!take}). *)

val clear : 'a t -> unit
(** Empty the heap, releasing every payload reference it holds. *)
