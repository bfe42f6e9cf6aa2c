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
    slot with the minimum, i.e. the least recently used entry. Lookup and
    eviction are linear scans over the live slots.

    The refill after a flush is in closed form. When an empty untagged
    TLB is given a footprint of n pages, 0 < n <= capacity, the per-page
    loop would evict nothing, miss once on each distinct page, and leave
    the distinct pages in first-touch order with stamps fixed by the
    clock it started from. So [access] records the footprint and that
    clock, advances the clock by n, and returns the distinct count, in
    O(1). The record keeps the live count, the clock and the counters
    exact; [invalidate] drops it. A reader of the slots ([resident], or
    an [access] that takes the loop) first replays the loop from the
    recorded clock, so it reads exactly the state the loop would have
    built. Tagged TLBs, non-empty TLBs and footprints longer than the
    capacity take the loop. [access], [invalidate] and [resident]
    allocate nothing. *)

type t

type footprint
(** A page array with its count of distinct pages, counted once when
    built. A TLB holding a recorded refill reads the array later, so it
    is written only through {!blit}. *)

val footprint : int array -> footprint
(** The footprint of these pages, in touch order. It takes the array,
    not a copy: the caller must not write it afterwards. *)

val empty_footprint : footprint
(** The footprint of no pages, shared. *)

val footprint_length : footprint -> int
val footprint_distinct : footprint -> int

val footprint_pages : footprint -> int array
(** A copy of the pages. *)

val settle : t -> footprint -> unit
(** If [t] holds a recorded refill of this footprint, build its slots
    now, so that [t] no longer reads the footprint. *)

val blit : src:int array -> footprint -> pos:int -> len:int -> unit
(** Overwrite [len] pages of the footprint from [pos] with
    [src.(0 .. len - 1)], and recount its distinct pages, comparing
    ints. When every page was distinct before, only the new pages are
    compared, with the rest and with each other; otherwise the whole
    footprint is recounted. Allocates nothing. Every TLB that may hold a recorded refill
    of the footprint must be {!settle}d first: [Engine.patch_footprint]
    does both.
    @raise Invalid_argument when a range is out of bounds. *)

val create : capacity:int -> tagged:bool -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val invalidate : t -> unit
(** Flush: resets the live count and drops a recorded refill. A no-op on
    a tagged TLB (invalidation is what tagging avoids). *)

val access : t -> domain:int -> pages:footprint -> int
(** Touch the given pages, in order, in the context of [domain]; returns
    the number of misses and inserts the pages (evicting LRU entries if
    full). On an empty untagged TLB with [0 < n <= capacity] pages, this
    records the refill in O(1) and returns the distinct count.
    @raise Invalid_argument on a tagged TLB when a page is outside
    [\[0, 2{^40})] or the domain outside [\[0, 2{^23})]. *)

val resident : t -> domain:int -> page:int -> bool
(** Whether the page is cached for [domain]; raises as {!access} does.
    Settles a recorded refill first. *)

val miss_count : t -> int
(** Cumulative misses since creation. *)

val flush_count : t -> int
(** Cumulative invalidations that actually flushed entries. *)
