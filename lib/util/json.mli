(** JSON values and their one printer.

    Every JSON document the program writes is built as a {!t} and
    printed by {!to_string}: the metrics snapshot, the Chrome trace,
    the chaos-soak report, the studies' [--json] renderings and the
    host and pipeline benches. So escaping, separators, [null] and the
    text of numbers are decided here alone. The layout is compact,
    [{"k":v,...}] with no whitespace, and there is no other. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64  (** printed as [%Ld]: seeds keep all 64 bits *)
  | Fixed of int * float
      (** [Fixed (d, x)]: [x] with [d] decimals, as [%.*f] *)
  | Float of float  (** six significant digits, as [%.6g] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members print in list order *)

val to_string : t -> string
(** Compact JSON text. Strings, keys included, escape the double quote
    and the backslash, and every byte below 0x20 as [\n], [\t], [\r] or
    [\u00xx]; other bytes pass through. A float that is not finite
    prints [null]. *)
