(** The engine's event queues: int payloads keyed by [(time, sequence)].

    Ties on time are broken by insertion sequence so that simulation
    runs are deterministic.

    A queue is two parts. The {e lane} is an append-only ring of entries
    already in [(time, sequence)] order: a push whose time is at or
    after the time of the lane's newest entry, or any push onto an
    empty lane, appends to it in O(1). Every other push goes to a 4-ary
    min-heap. {!take}, {!top_time}, {!top_seq}, {!earliest} and
    {!precedes} read whichever of the two heads comes first, so the
    queue pops in exactly the order one heap would.

    Entries are held in parallel int arrays (struct-of-arrays): a push
    allocates nothing beyond amortized array doubling, {!top_time} and
    {!take} give the engine's run loop an allocation-free pop, and the
    queue holds no pointer, so a popped payload is never retained.

    Queues built with [~share] draw their sequences from one counter:
    merging such queues by [(top_time, top_seq)] pops every entry in
    exactly the order one queue holding all of them would. *)

type t

val create : ?share:t -> unit -> t
(** An empty queue. With [~share:h], the new queue and [h] (and every
    queue already sharing with [h]) take insertion sequences from one
    counter; without it, the queue has a counter of its own. *)

val is_empty : t -> bool

val length : t -> int
(** The number of entries held, in the lane and the heap together. *)

val push : t -> time:Time.t -> int -> unit
(** Insertion order among equal times is preserved on [pop]/[take]. The
    entry takes sequence {!next_seq}, and the shared counter advances. *)

val next_seq : t -> int
(** The sequence the next push on this queue, or on any queue sharing
    its counter, will receive. *)

val top_time : t -> Time.t
(** Time of the earliest event, without allocating.
    @raise Invalid_argument on an empty queue. *)

val top_seq : t -> int
(** Insertion sequence of the earliest event, without allocating.
    @raise Invalid_argument on an empty queue. *)

val earliest : t -> Time.t
(** Time of the earliest event, or [max_int] on an empty queue. *)

val precedes : t -> t -> bool
(** [precedes a b]: [a] is non-empty and its earliest entry comes
    before [b]'s by [(time, sequence)], or [b] is empty. Meaningful for
    queues sharing a counter. *)

val take : t -> int
(** Remove and return the earliest event's payload, without allocating.
    Read {!top_time} first when the timestamp is needed.
    @raise Invalid_argument on an empty queue. *)

val pop : t -> (Time.t * int) option
(** Remove and return the earliest event (allocating convenience form of
    {!top_time} + {!take}). *)
