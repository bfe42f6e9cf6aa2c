module Time = Lrpc_sim.Time
module Cost_model = Lrpc_sim.Cost_model
module Table = Lrpc_util.Table
module Driver = Lrpc_workload.Driver

(* The placement-quality companion to {!Fig2_scale}: the same closed-loop
   null-call workload, measured on a clustered cost topology, with caller
   placement swept from friendly to adversarial. All runs yield between
   calls so redistribution (and therefore stealing) stays live in the
   steady state instead of being a one-time startup effect.

   Four series per processor count:
   - [flat]: no topology installed — the published Figure 2 regime and
     the yardstick the others are scored against;
   - [clu]: clustered topology, balanced placement — what locality costs
     when nothing needs to migrate;
   - [far_aware]: adversarial placement (every caller enters on the
     first CPU of some cluster) with distance-ordered victim rings, so
     thieves drain near queues first;
   - [far_blind]: same placement, same costs, flat victim scan — every
     steal is as likely to cross a cluster as not. *)

type series = {
  sr_cps : float;
  sr_steals : int;
  sr_near : int;
  sr_far : int;
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
  horizon : Time.t;
}

let cluster_size = 4
let cross_mult = 4.0

let ladder max_cpus = List.filter (fun n -> n <= max_cpus) [ 4; 8; 16; 32 ]

let series_of (s : Driver.scale_stats) =
  {
    sr_cps = s.Driver.ss_cps;
    sr_steals =
      Array.fold_left ( + ) 0 s.Driver.ss_steals
      + Array.fold_left ( + ) 0 s.Driver.ss_steals_tagged;
    sr_near = s.Driver.ss_steals_near;
    sr_far = s.Driver.ss_steals_far;
  }

let run ?(max_cpus = 32) ?(horizon = Time.ms 100) () =
  let points =
    List.map
      (fun n ->
        (* 1.5x as many callers as processors: victim queues then hold
           real backlogs at steal time, so which queue a thief drains —
           and where each caller's working set ends up living — is an
           actual choice, not a singleton pick. *)
        let measure ?home cm =
          series_of
            (Driver.lrpc_scale ?home ~yield_between:true
               ~config:
                 {
                   Driver.Config.default with
                   Driver.Config.processors = n;
                   cost_model = cm;
                 }
               ~clients:(3 * n / 2) ~horizon ())
        in
        let clustered ~near_steal =
          Cost_model.clustered ~cluster_size ~cross_mult ~near_steal
            ~name:(Printf.sprintf "clu%d" cluster_size)
            Cost_model.cvax_firefly
        in
        (* Adversarial-far placement: every caller is submitted on the
           head CPU of some cluster, so the rest of each cluster is fed
           only by stealing — near thieves pay nothing, blind thieves
           keep paying the cross-cluster migration. *)
        let far i = i mod (n / cluster_size) * cluster_size in
        {
          cpus = n;
          flat = measure Cost_model.cvax_firefly;
          clu = measure (clustered ~near_steal:true);
          far_aware = measure ~home:far (clustered ~near_steal:true);
          far_blind = measure ~home:far (clustered ~near_steal:false);
        })
      (ladder max_cpus)
  in
  { points; cluster_size; cross_mult; horizon }

let recovery ~flat cps = if flat <= 0.0 then 0.0 else cps /. flat

let render r =
  let t =
    Table.create
      ~columns:
        [
          ("CPUs", Table.Right);
          ("flat calls/s", Table.Right);
          ("clustered", Table.Right);
          ("adv-far aware", Table.Right);
          ("adv-far blind", Table.Right);
          ("aware recov.", Table.Right);
          ("blind recov.", Table.Right);
          ("aware near/far", Table.Right);
          ("blind near/far", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.flat.sr_cps;
          Printf.sprintf "%.0f" p.clu.sr_cps;
          Printf.sprintf "%.0f" p.far_aware.sr_cps;
          Printf.sprintf "%.0f" p.far_blind.sr_cps;
          Printf.sprintf "%.0f%%"
            (100.0 *. recovery ~flat:p.flat.sr_cps p.far_aware.sr_cps);
          Printf.sprintf "%.0f%%"
            (100.0 *. recovery ~flat:p.flat.sr_cps p.far_blind.sr_cps);
          Printf.sprintf "%d/%d" p.far_aware.sr_near p.far_aware.sr_far;
          Printf.sprintf "%d/%d" p.far_blind.sr_near p.far_blind.sr_far;
        ])
    r.points;
  let last = List.nth r.points (List.length r.points - 1) in
  Printf.sprintf
    "Placement quality on a clustered topology (clusters of %d, %.0fx \
     cross-cluster migration cost; every run yields between calls)\n%s\n\
     At %d processors the adversarial-far placement recovers %.0f%% of \
     flat-topology throughput with distance-ordered victim rings versus \
     %.0f%% with the distance-blind scan: near thieves drain their own \
     cluster's head queue at full speed while blind thieves keep paying \
     the cross-cluster reload on every migration (aware near/far steals \
     %d/%d, blind %d/%d).\n"
    r.cluster_size r.cross_mult (Table.to_string t) last.cpus
    (100.0 *. recovery ~flat:last.flat.sr_cps last.far_aware.sr_cps)
    (100.0 *. recovery ~flat:last.flat.sr_cps last.far_blind.sr_cps)
    last.far_aware.sr_near last.far_aware.sr_far last.far_blind.sr_near
    last.far_blind.sr_far

let to_json r =
  let open Lrpc_util.Json in
  let series s =
    Obj
      [
        ("cps", Fixed (1, s.sr_cps)); ("steals", Int s.sr_steals);
        ("steals_near", Int s.sr_near); ("steals_far", Int s.sr_far);
      ]
  in
  let point p =
    Obj
      [
        ("cpus", Int p.cpus); ("flat", series p.flat); ("clu", series p.clu);
        ("far_aware", series p.far_aware); ("far_blind", series p.far_blind);
        ("aware_recovery", Fixed (3, recovery ~flat:p.flat.sr_cps p.far_aware.sr_cps));
        ("blind_recovery", Fixed (3, recovery ~flat:p.flat.sr_cps p.far_blind.sr_cps));
      ]
  in
  Obj
    [
      ("experiment", String "numa"); ("cluster_size", Int r.cluster_size);
      ("cross_mult", Fixed (1, r.cross_mult));
      ("horizon_us", Fixed (0, Time.to_us r.horizon));
      ("points", List (List.map point r.points));
    ]
