(** The typed trace-event vocabulary.

    One constructor per architecturally meaningful occurrence in the
    simulated system, replacing the old stringly-typed
    [kind : string, detail : string] pairs: scheduling (dispatch, block,
    wake, finish), protection-domain crossings (context switch, processor
    exchange), kernel traps, argument copies, spinlock activity, binding
    and termination, network traffic, and charged-time slices.

    {!Mark} is the escape hatch for ad-hoc instrumentation that has no
    dedicated constructor yet. *)

type t =
  | Dispatch of { thread : string; domain : int; switched : bool }
      (** A thread was placed on a processor; [switched] when the
          processor had to load a different VM context. *)
  | Block of { thread : string }
  | Wake of { thread : string }
  | Finish of { thread : string; error : string option }
  | Switch of { from_domain : int; to_domain : int }
      (** Direct context switch of the running thread (the essence of
          LRPC's domain crossing). *)
  | Exchange of { from_cpu : int; to_cpu : int }
      (** Idle-processor exchange (paper §3.4). *)
  | Trap  (** Kernel trap entry. *)
  | Copy of { label : string; bytes : int }
      (** An argument/result byte copy; [label] is the paper's copy
          taxonomy ("A" client-stack-to-A-stack, "E" defensive, "F"
          readback, "B"/"C"/"D" message-path copies). *)
  | Lock_acquire of { lock : string }
  | Lock_contend of { lock : string }
      (** An acquire that found the lock held and had to spin. *)
  | Bound of { interface : string; binding : int }
      (** A Binding Object was issued. *)
  | Call_issued of { binding : int; proc : string; handle : int }
      (** A call handle was issued: arguments are marshalled and an
          A-stack (or remote window slot) is claimed. *)
  | Call_completed of { binding : int; proc : string; handle : int; ok : bool }
      (** The call's completion half landed; on [ok] the results await
          their readback by the awaiting thread. *)
  | Call_failed of { binding : int; proc : string; handle : int; reason : string }
      (** The call landed with an error: server termination, deadline
          abort, retry exhaustion, an injected or real server-stub
          exception. Emitted alongside the (not-[ok]) [Call_completed]
          with the human-readable [reason]. *)
  | Call_rejected of { binding : int; proc : string; reason : string }
      (** The call was refused synchronously at issue, before a handle
          existed: an admission-control rejection or queue-delay shed
          (overload), a bad/revoked binding, or a deadline that expired
          while queued for an A-stack. No [Call_issued] precedes it. *)
  | Terminated of { domain : string }
  | Net_send of { bytes : int }
  | Net_recv of { bytes : int }
  | Net_packet of { seq : int; pkt : int; bytes : int; retransmit : bool }
      (** One MTU-sized fragment injected by the packet-granular
          ({!Lrpc_net.Erpc}) transport; [pkt] is the fragment index
          within message [seq]. *)
  | Slice of { category : Category.t; dur : Time.t }
      (** A charged delay: [dur] of simulated time attributed to
          [category], starting at the event's timestamp. Renders as a
          duration slice in Chrome tracing. *)
  | Mark of { name : string; detail : string }

val name : t -> string
(** Stable short kind name ("dispatch", "block", ...), the key {!Trace.find}
    filters on and the Chrome-trace event name. *)

val detail : t -> string
(** Human-readable payload; for the scheduling events this matches the old
    string-trace format byte for byte. *)

val args : t -> (string * Lrpc_util.Json.t) list
(** Structured payload for machine consumers (Chrome-trace [args]). *)
