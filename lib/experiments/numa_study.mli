(** Placement quality on a clustered (NUMA-ish) topology — the
    Figure 2 scaling workload re-measured under
    {!Lrpc_sim.Cost_model.clustered} with caller placement swept from
    friendly to adversarial.

    Four series per processor count: [flat] (no topology — the
    published regime, and the yardstick), [clu] (clustered costs,
    balanced placement), [far_aware] (adversarial placement, steals
    drain near queues first via the distance-ordered victim rings) and
    [far_blind] (same placement and costs, flat victim scan). Every
    run yields between calls so stealing stays live in the steady
    state. The headline number is {e recovery}: the fraction of
    flat-topology throughput the adversarial placement gets back, with
    and without distance awareness. *)

type series = {
  sr_cps : float;  (** completed null calls per simulated second *)
  sr_steals : int;  (** total steals (tagged included) *)
  sr_near : int;  (** steals that stayed within a cluster *)
  sr_far : int;  (** steals that crossed a cluster boundary *)
}

type point = {
  cpus : int;
  flat : series;
  clu : series;
  far_aware : series;
  far_blind : series;
}

type result = {
  points : point list;
  cluster_size : int;
  cross_mult : float;
  horizon : Lrpc_sim.Time.t;
}

val run : ?max_cpus:int -> ?horizon:Lrpc_sim.Time.t -> unit -> result
(** Ladder of 4–32 processors (clusters of 4, 4x cross-cluster
    migration), 100 ms horizon by default. Deterministic: a pure
    function of its arguments. *)

val recovery : flat:float -> float -> float
(** [recovery ~flat cps]: [cps] as a fraction of the flat-topology
    throughput [flat]; 0 when [flat] is not positive. *)

val render : result -> string
val to_json : result -> Lrpc_util.Json.t
(** One object: ["experiment"], ["cluster_size"], ["cross_mult"],
    ["horizon_us"] and a ["points"] array with the four series and the
    two recovery ratios per processor count. *)
