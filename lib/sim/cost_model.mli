(** Per-architecture cost constants.

    Each simulated machine charges the call paths through these constants.
    The C-VAX Firefly model is calibrated from the paper's Table 5 and
    Section 4 (see DESIGN.md section 4 for the derivation); the other
    models exist for Table 2's cross-system comparison and for the
    MicroVAX II five-processor speedup check. *)

type topology = {
  topo_name : string;
  cluster_size : int;  (** CPUs per cluster (the last may be partial) *)
  cross_mult : float;
      (** multiplier on [vm_reload] for a thread migration between two
          clusters, steals included (finite, >= 1.0); a migration
          within a cluster pays the plain reload *)
  near_steal : bool;
      (** true: thieves scan distance-ordered victim rings (own cluster
          first); false: the flat oldest-first scan, with distance costs
          still charged — the distance-blind ablation arm *)
}
(** A clustered CPU locality model. Installed on a {!t} it makes every
    cross-CPU migration distance-dependent; [None] (all published
    models) keeps the engine byte-identical to the flat behaviour. *)

type t = {
  name : string;
  proc_call : Time.t;  (** local procedure call + return (7 us on C-VAX) *)
  trap : Time.t;  (** one kernel trap, entry or exit (18 us) *)
  vm_reload : Time.t;
      (** one virtual-memory context-register reload, excluding TLB refill
          (13.65 us) *)
  tlb_miss : Time.t;  (** one translation-buffer refill (0.9 us) *)
  tlb_capacity : int;  (** entries per processor TLB *)
  tlb_tagged : bool;
      (** a process-tagged TLB survives context switches (paper §3.4
          discussion; false on the C-VAX) *)
  page_size : int;  (** bytes per page (512 on the VAX) *)
  per_value : Time.t;
      (** LRPC stub cost to move one argument or result value (5/3 us) *)
  per_byte : Time.t;  (** LRPC stub cost per byte copied (1/6 us) *)
  client_stub_call : Time.t;
      (** LRPC client stub fixed work on the call side, excluding the
          A-stack queue lock (10 us); with the return side (5), two lock
          holds (2 x 1.5) and the server stub (2 + 1) this reproduces
          Table 5's 21 us stub total *)
  client_stub_return : Time.t;  (** 5 us *)
  server_stub_call : Time.t;  (** 2 us *)
  server_stub_return : Time.t;  (** 1 us *)
  kernel_call : Time.t;
      (** LRPC kernel work on call: binding validation, linkage record,
          E-stack association (20 us) *)
  kernel_return : Time.t;  (** LRPC kernel work on return (7 us) *)
  processor_exchange : Time.t;
      (** swapping the caller onto an idle processor already holding the
          server context (17 us per exchange) *)
  astack_lock : Time.t;
      (** acquire+release of one A-stack queue lock (~2% of call time) *)
  coherency_per_byte : Time.t;
      (** extra cost per byte consumed on a processor other than the one
          that wrote it (cache-coherency traffic); this is why the paper's
          LRPC/MP saving shrinks as arguments grow — BigInOut gains only
          8 us from domain caching against Null's 32 (fitted: 62 ns/byte) *)
  bus_alpha : float;
      (** memory-bus dilation per additional concurrently-executing
          processor (fitted to Figure 2's 3.7x speedup at 4 CPUs) *)
  topology : topology option;
      (** CPU locality model; [None] (all published machines) means flat
          costs and bit-identical pre-topology behaviour. *)
}

val cvax_firefly : t
(** Four C-VAX processors + one MicroVAX II I/O processor; the machine of
    Tables 4, 5 and Figure 2. *)

val microvax2_firefly : t
(** The five-processor MicroVAX II Firefly (paper reports speedup 4.3 at 5
    processors); roughly 2.7x slower per operation than the C-VAX model. *)

val m68020 : t
(** 68020-class machine used by V, Amoeba and DASH in Table 2
    (Null minimum 170 us). *)

val perq_accent : t
(** PERQ running Accent in Table 2 (Null minimum 444 us). *)

val null_minimum : t -> Time.t
(** The theoretical minimum cross-domain Null time on this architecture:
    one procedure call, two traps, two context switches including TLB
    refill (paper §2.3). [null_tlb_misses] refills are charged. *)

val null_tlb_misses : int
(** TLB misses attributable to the two context switches of a minimal
    cross-domain call on an untagged-TLB machine (43 on the C-VAX; paper
    §4 estimates the same). *)

val call_side_tlb_misses : int
(** Of [null_tlb_misses], those taken after the call-side switch (25). *)

val return_side_tlb_misses : int
(** Of [null_tlb_misses], those taken after the return-side switch (18). *)

val scaled : t -> factor:float -> name:string -> t
(** Uniformly scale all time constants (used to derive slower machines).
    @raise Invalid_argument unless [factor] is finite and > 0 (a NaN
    factor would make every cost 0 ns, and a negative one negative), or
    when a scaled cost would not fit in an int. *)

val clustered :
  ?cross_mult:float -> ?near_steal:bool -> cluster_size:int -> name:string ->
  t -> t
(** Install a clustered locality {!topology} on [base]. [cross_mult]
    (default 4.0) is the cross-cluster multiplier. [near_steal]
    (default true) selects distance-ordered victim rings; pass [false]
    for the distance-blind ablation arm.
    @raise Invalid_argument when [cluster_size < 1] or [cross_mult] is
    not a finite number >= 1.0. *)

val cluster_of : topology -> int -> int
(** The cluster index a CPU belongs to. *)

val mult : topology -> int -> int -> float
(** Migration-cost multiplier between two CPUs: 1.0 when they share a
    cluster (the same CPU included), [cross_mult] otherwise. *)

val victim_ring : topology -> cpus:int -> cpu:int -> int array
(** The deterministic near-first steal scan order for [cpu]: the rest
    of its cluster (rotated to start just past [cpu]), then all other
    CPUs starting at the next cluster. Covers every CPU except [cpu]
    exactly once. @raise Invalid_argument when [cpu] is out of range. *)
