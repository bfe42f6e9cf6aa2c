(** Domain-parallel [map] for independent work items.

    Built for the experiment harness: each paper artifact is a pure
    function of its seed with its own engine, so artifacts can be
    regenerated on separate domains without changing any simulated
    number. Results come back in input order, so printing them is
    byte-identical to a serial run. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] evaluates [f] on every item across [jobs]
    domains (clamped to [1 .. length items]; default
    {!default_jobs}) and returns the results in input order.

    With [jobs <= 1] no domain is spawned and items are evaluated
    left to right in the calling domain. If any [f item] raises, the
    exception is re-raised (with its backtrace) in the caller after
    all workers have drained; when several items raise, the one with
    the lowest input index wins. *)
