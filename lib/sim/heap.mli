(** 4-ary min-heap keyed by [(time, sequence)].

    The engine's event queues. Ties on time are broken by insertion
    sequence so that simulation runs are deterministic.

    Stored as three parallel arrays (struct-of-arrays): a push allocates
    nothing beyond amortized array doubling, and {!top_time}/{!take} give
    the engine's run loop an allocation-free pop. Each node has four
    children, and both sifts move a hole rather than swapping entries.
    Popped payload slots are nulled immediately, so the heap never
    retains a popped payload.

    Heaps built with [~share] draw their sequences from one counter:
    merging such heaps by [(top_time, top_seq)] pops every entry in
    exactly the order one heap holding all of them would. *)

type 'a t

val create : ?share:'b t -> unit -> 'a t
(** An empty heap. With [~share:h], the new heap and [h] (and every
    heap already sharing with [h]) take insertion sequences from one
    counter; without it, the heap has a counter of its own. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** The number of entries held. *)

val push : 'a t -> time:Time.t -> 'a -> unit
(** Insertion order among equal times is preserved on [pop]/[take]. The
    entry takes sequence {!next_seq}, and the shared counter advances. *)

val next_seq : 'a t -> int
(** The sequence the next push on this heap, or on any heap sharing its
    counter, will receive. *)

val top_time : 'a t -> Time.t
(** Time of the earliest event, without allocating.
    @raise Invalid_argument on an empty heap. *)

val top_seq : 'a t -> int
(** Insertion sequence of the earliest event, without allocating.
    @raise Invalid_argument on an empty heap. *)

val earliest : 'a t -> Time.t
(** Time of the earliest event, or [max_int] on an empty heap. *)

val precedes : 'a t -> 'b t -> bool
(** [precedes a b]: [a] is non-empty and its earliest entry comes
    before [b]'s by [(time, sequence)], or [b] is empty. Meaningful for
    heaps sharing a counter. *)

val take : 'a t -> 'a
(** Remove and return the earliest event's payload, without allocating.
    Read {!top_time} first when the timestamp is needed.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event (allocating convenience form of
    {!top_time} + {!take}). *)

val clear : 'a t -> unit
(** Empty the heap, releasing every payload reference it holds. The
    sequence counter keeps counting. *)
