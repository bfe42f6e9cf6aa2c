(* Every paper artifact by short name — the single list shared by the
   [lrpc_experiments] CLI and [bench/host], so the entry points cannot
   drift apart in names, seeds or sample sizes.

   [run] is a pure function of [(seed, quick, name)]: each artifact
   builds its own engine and PRNGs, so the renderings are bit-identical
   whether the names are evaluated serially or fanned across domains
   with {!Lrpc_harness.Parallel.map}. *)

let paper = [ "t1"; "f1"; "t2"; "t3"; "t4"; "t5"; "f2" ]
let ablations = [ "a1"; "a2"; "a3"; "a4"; "a5"; "a6" ]
let supplementary = [ "lat"; "f2s"; "openloop"; "numa"; "transport" ]
let names = paper @ ablations @ supplementary

let mem name = List.mem name names

(* Figure 2's horizon, also the latency distribution's. *)
let f2_horizon ~quick = Lrpc_sim.Time.ms (if quick then 150 else 500)

(* Its own ladder-dependent horizon: the big rungs at the full 500 ms
   would dominate the suite's wall-clock. Fig2_scale additionally tapers
   the window above 32 CPUs, so the 64–256 rungs stay affordable. *)
let fig2_scale_result ~quick =
  Fig2_scale.run
    ~max_cpus:(if quick then 8 else 256)
    ~horizon:(Lrpc_sim.Time.ms (if quick then 100 else 250))
    ()

(* Smaller ladder than fig2_scale: four runs per rung (three of them on
   the clustered topology with live stealing) would make the 64+ rungs
   dominate the suite. *)
let numa_result ~quick =
  Numa_study.run
    ~max_cpus:(if quick then 8 else 32)
    ~horizon:(Lrpc_sim.Time.ms (if quick then 50 else 100))
    ()

let json_names = [ "f2s"; "openloop"; "numa"; "transport" ]

let json ?(seed = 1989L) ?(quick = false) ?(shedding = false) name =
  match name with
  | "f2s" -> Fig2_scale.to_json (fig2_scale_result ~quick)
  | "numa" -> Numa_study.to_json (numa_result ~quick)
  | "transport" -> Transport_study.to_json (Transport_study.run ~seed ~quick ())
  | "openloop" when shedding ->
      Openloop.to_json ~experiment:"openloop_shed"
        (Openloop.run_shedding ~seed ~quick ())
  | "openloop" -> Openloop.to_json (Openloop.run ~seed ~quick ())
  | other -> invalid_arg ("Suite.json: no JSON rendering for " ^ other)

let run ?(seed = 1989L) ?(quick = false) ?(shedding = false) name =
  let ops = if quick then 100_000 else 1_000_000 in
  let calls = if quick then 150_000 else 1_487_105 in
  match name with
  | "t1" -> Table1.render (Table1.run ~seed ~operations:ops ())
  | "f1" -> Fig1.render (Fig1.run ~seed ~calls ())
  | "t2" -> Table2.render (Table2.run ())
  | "t3" -> Table3.render (Table3.run ())
  | "t4" -> Table4.render (Table4.run ())
  | "t5" -> Table5.render (Table5.run ())
  | "f2" -> Fig2.render (Fig2.run ~horizon:(f2_horizon ~quick) ())
  | "a1" -> Ablations.render_a1 (Ablations.run_a1 ())
  | "a2" -> Ablations.render_a2 (Ablations.run_a2 ())
  | "a3" -> Ablations.render_a3 (Ablations.run_a3 ())
  | "a4" -> Ablations.render_a4 (Ablations.run_a4 ())
  | "a5" -> Ablations.render_a5 (Ablations.run_a5 ())
  | "a6" -> Ablations.render_a6 (Ablations.run_a6 ())
  | "lat" -> Latency.render (Latency.run ~horizon:(f2_horizon ~quick) ())
  | "f2s" -> Fig2_scale.render (fig2_scale_result ~quick)
  | "numa" -> Numa_study.render (numa_result ~quick)
  | "transport" -> Transport_study.render (Transport_study.run ~seed ~quick ())
  | "openloop" when shedding ->
      Openloop.render (Openloop.run_shedding ~seed ~quick ())
  | "openloop" -> Openloop.render (Openloop.run ~seed ~quick ())
  | other -> invalid_arg ("Suite.run: unknown artifact " ^ other)
