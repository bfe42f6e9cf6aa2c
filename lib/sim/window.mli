(** Conservative time-window bounds for the partitioned engine.

    Pure helpers for the isolated engine's window synchronization: the
    base of the next window and its exclusive upper bound. *)

val min_time : 'a Heap.t array -> Time.t option
(** Earliest head time across all heaps — the base of the next
    synchronization window. *)

val window_end : start:Time.t -> lookahead:Time.t -> limit:Time.t -> Time.t
(** Exclusive upper bound of the window opening at [start]: events with
    [time < window_end] belong to the window. Clamped so no event after
    [limit] is admitted; a degenerate non-positive lookahead still
    yields a one-tick window so the simulation always progresses. *)
