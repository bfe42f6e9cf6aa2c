(** Simulated spinlocks.

    A waiter busy-waits: it keeps its processor, which stays unavailable
    for other work — exactly the behaviour that makes SRC RPC's single
    global lock cap Figure 2's throughput at ~4000 calls/s regardless of
    processor count. Handover is FIFO and happens at the precise release
    instant, so results are deterministic; the spin time is charged to the
    waiter's processor and to the [Lock] category by the engine.

    [hold] optionally models work performed *inside* the critical section:
    [with_lock] delays for it while holding the lock. Acquire and release
    themselves take no simulated time. *)

type t

val create : ?name:string -> Engine.t -> t
(** Acquire and contention counts are kept in the engine's metrics
    registry under ["sim.lock_acquires{lock=<name>}"] and
    ["sim.lock_contended{lock=<name>}"] — locks created with the same
    [name] on the same engine share counters — and each acquire/contend
    emits a typed trace event when a tracer is attached. *)

val acquire : t -> unit
(** Take the lock, spinning (processor busy) until available. *)

val release : t -> unit
(** Release; the longest-waiting spinner (if any) gets the lock. The
    releaser must hold the lock. *)

val with_lock : t -> hold:Time.t -> (unit -> 'a) -> 'a
(** [acquire]; delay [hold] (charged to the [Lock] category); run the
    function; [release]. The function runs while holding the lock and may
    itself consume simulated time. *)

val holder : t -> Engine.thread option

val contended_acquires : t -> int
(** Number of acquires that had to wait (for this lock's name). *)
