(** The three-way transport study: LRPC local vs classic {!Lrpc_net.Netrpc}
    vs the packet-granular {!Lrpc_net.Erpc} transport, on one variable-size
    echo interface.

    Three axes. {b Message size}: single-caller steady-state latency and
    closed-loop goodput per system at each payload size (the payload is
    echoed, so a size-N point moves 2N bytes end to end). {b Packet
    loss} at 64 B: the classic whole-message transport (per-attempt
    [wire_drop]/[wire_reply_drop]) against the eRPC selective-retransmit
    path (per-packet [pkt_drop]) at the same rate — the degradation
    story. {b Ablations}: the Arcalis-style binding-context cache at
    64 B and zero-copy vs staged copy at the largest size, plus a
    headline Null pair: one caller on one processor calling the
    paper's Bench suite over each transport.

    Deterministic: every world is freshly built per measurement and
    every fault plan is seeded, so the result is a pure function of
    [(seed, quick)]. *)

type size_point = {
  sp_bytes : int;  (** echoed payload, each direction *)
  sp_latency_us : float;  (** single-caller steady-state per call *)
  sp_cps : float;  (** closed-loop completions/s, [tr_clients] callers *)
}

type size_curve = { sc_system : string; sc_points : size_point list }

type loss_point = {
  lp_loss : float;  (** per-packet (and per classic attempt) drop rate *)
  lp_classic_cps : float;
  lp_classic_failed : int;
  lp_classic_retries : int;
  lp_erpc_cps : float;
  lp_erpc_failed : int;
  lp_erpc_retx : int;
}

type result = {
  tr_seed : int64;
  tr_clients : int;
  tr_horizon : Lrpc_sim.Time.t;
  tr_sizes : size_curve list;  (** systems [lrpc], [netrpc], [erpc] *)
  tr_loss : loss_point list;
  tr_null_classic_us : float;  (** Bench Null latency, classic transport *)
  tr_null_erpc_us : float;  (** Bench Null latency, eRPC transport *)
  tr_cache_off_us : float;  (** eRPC 64 B latency, full kernel mediation *)
  tr_cache_on_us : float;  (** same with the Arcalis binding cache *)
  tr_zero_copy_us : float;  (** eRPC largest-size latency, zero-copy *)
  tr_staged_copy_us : float;  (** same with the staged-copy ablation *)
}

val run : ?seed:int64 -> ?quick:bool -> unit -> result
(** Sizes 64/512/1500/6000 B and losses 0/1/5% with 16 callers over
    100 ms (quick: 64/1500 B, 0/1%, 8 callers, 50 ms), 4 processors. *)

val speedup_at_64 : result -> float
(** eRPC closed-loop goodput over classic at the 64 B point. *)

val render : result -> string

val to_json : result -> Lrpc_util.Json.t
(** One object: ["experiment"], ["seed"], ["clients"], ["horizon_us"],
    the headline scalars (["null_classic_us"], ["null_erpc_us"],
    ["erpc_vs_classic_speedup_64b"], cache and copy ablations), a
    ["systems"] array of per-size curves and a ["loss"] array. *)
