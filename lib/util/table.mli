(** ASCII table rendering for the experiment harness.

    Every reproduced paper table is printed through this module so that
    bench output is uniform and diffable. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] begins a table with the given header cells. *)

val add_row : t -> string list -> unit
(** Append a row; it must have exactly as many cells as there are columns. *)

val add_separator : t -> unit
(** Append a horizontal rule between body rows. *)

val render : t -> Format.formatter -> unit

val to_string : t -> string

val cell_us : float -> string
(** Format a latency in microseconds, one decimal, no unit suffix. *)
