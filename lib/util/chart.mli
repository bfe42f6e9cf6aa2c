(** ASCII line charts for figure reproduction (paper Figure 2).

    A chart holds one or more named series of (x, y) points and renders
    them on a shared character grid with axes and a legend. *)

type t

val create : x_label:string -> y_label:string -> unit -> t
(** An empty chart whose plot area is 18 rows by 60 columns. *)

val add_series : t -> name:string -> (float * float) list -> unit
(** Series are drawn with distinct marker characters in insertion order. *)

val render : t -> Format.formatter -> unit

val to_string : t -> string
