(** Translation lookaside buffer model.

    One per simulated processor. Pages are abstract integer identifiers
    handed out by the kernel's virtual-memory layer. The TLB is a bounded
    LRU set: [access] reports how many of the touched pages missed (the
    caller charges [misses * cost_model.tlb_miss]). An untagged TLB is
    flushed wholesale by [invalidate] on every context switch — the effect
    responsible for ~25% of the Null LRPC's latency (paper §4) — whereas a
    process-tagged TLB (ablation A1) keys entries by (domain, page) and
    survives switches.

    Representation: two preallocated int arrays of [capacity] slots, one
    of keys and one of last-use stamps, with a live count. An untagged
    key is the page itself; a tagged key packs the domain above a 40-bit
    page number into one int. The LRU is exact: every touch takes a fresh
    stamp from one clock, so stamps are unique and eviction takes the
    slot with the minimum, i.e. the least recently used entry. Eviction
    is a linear scan over the live slots. Lookup is too, except on a sure
    miss: one summary word holds a bit per key inserted since the last
    flush (the key mod 63), and a key whose bit is clear is absent
    without a scan. [invalidate] clears the word; evicted keys keep their
    bits, which only cost a scan. The refill after a context switch is
    then nearly all sure misses into free slots. [access], [invalidate]
    and [resident] allocate nothing. *)

type t

val create : capacity:int -> tagged:bool -> t

val invalidate : t -> unit
(** Flush: resets the live count. A no-op on a tagged TLB (invalidation is
    what tagging avoids). *)

val access : t -> domain:int -> pages:int array -> int
(** Touch the given pages, in order, in the context of [domain]; returns
    the number of misses and inserts the pages (evicting LRU entries if
    full).
    @raise Invalid_argument on a tagged TLB when a page is outside
    [\[0, 2{^40})] or the domain outside [\[0, 2{^23})]. *)

val resident : t -> domain:int -> page:int -> bool
(** Whether the page is cached for [domain]; raises as {!access} does. *)

val miss_count : t -> int
(** Cumulative misses since creation. *)

val flush_count : t -> int
(** Cumulative invalidations that actually flushed entries. *)
