(** Tables keyed by small non-negative ids, such as domain and thread
    ids, which are handed out consecutively from 0.

    The table is one growable array indexed by id. A lookup is a bounds
    test and a load, and allocates nothing. A table starts empty and
    grows, by doubling, on the first write past its end, so a table
    that nobody writes costs nothing to create. *)

type 'a t

val create : 'a -> 'a t
(** An empty table in which every id reads as the given default. *)

val get : 'a t -> int -> 'a
(** The value last set for the id, or the default when it was never set
    or is negative. *)

val set : 'a t -> int -> 'a -> unit
(** Grows the table to cover the id.
    @raise Invalid_argument when the id is negative. *)
