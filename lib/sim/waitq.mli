(** Blocking wait queues (condition-variable style).

    Unlike {!Spinlock} waiters, threads waiting here release their
    processor — this is how message queues, clerks awaiting imports, and
    clients waiting for a free A-stack sleep. FIFO and deterministic. *)

type t

val create : Engine.t -> t

val wait : t -> unit
(** Release the processor and sleep until signalled. *)

val signal : t -> bool
(** Wake the longest-waiting thread; [false] if nobody was waiting. *)

val broadcast : t -> int
(** Wake everyone; returns how many were woken. *)

val waiting : t -> int

val signal_handoff : t -> bool
(** Like [signal], but the caller immediately blocks and donates its
    processor to the woken thread (handoff scheduling); [false] (and no
    block) if nobody was waiting. The caller must later be woken through
    some other channel. *)

val wait_handoff : t -> to_:Engine.thread -> unit
(** Enqueue the caller as a waiter and, in the same step, hand its
    processor directly to [to_] (which must be blocked). This is the
    server side of handoff scheduling: reply to the client on our
    processor while going back to sleep on the message queue. *)
