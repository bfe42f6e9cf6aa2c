(* Host-clock benchmark: how fast the simulator itself runs on this
   machine, as opposed to the simulated times it reports. Writes one
   JSON object (BENCH_host.json when regenerated with `make
   bench-host-full`) whose numbers are tracked across commits:

     engine_events_per_sec       delays/sec of a lone thread (run-ahead path)
     fig1_synthesis_calls_per_sec  Fig.1 traffic synthesis throughput
     fig2_wallclock_sec          the 4-CPU throughput experiment, wall
     fig2_scale_wallclock_sec    the 1-256 CPU scaling study, wall
     fig2_numa_wallclock_sec     the clustered placement-quality study, wall
     numa_aware_recovery         simulated: adversarial-far throughput as a
                                 fraction of flat, distance-ordered rings
     numa_blind_recovery         same, distance-blind scan (the ablation)
     openloop_sweep_wallclock_sec  the open-loop latency-vs-load sweep, wall
     transport_sweep_wallclock_sec  the three-way transport study, wall
     erpc_vs_classic_speedup     simulated: eRPC-style goodput over classic
                                 Netrpc at the 64 B point of that study
     chaos_calls_per_sec         chaos soak rate (stress call count)
     suite_serial_sec            every paper artifact, --jobs 1
     suite_jobs_sec              same artifacts fanned across domains
     suite_speedup               serial / jobs
     suite_efficiency            speedup / usable cores (min jobs cores)

   The environment keys host_cores and ocaml_version pin down what
   machine and toolchain produced the numbers, so cross-commit diffs of
   BENCH_host.json are interpretable — a speedup below 1.0 on a 1-core
   host is the expected domain-scheduling overhead, which is why
   suite_efficiency normalizes by usable cores rather than by the job
   count requested.

   `--quick` shrinks every sample size for the `make check` smoke run;
   the committed BENCH_host.json comes from the full mode. The suite is
   run both ways and the outputs are compared — a digest mismatch
   between serial and parallel runs is a hard failure here, same as in
   the test suite. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Cost_model = Lrpc_sim.Cost_model
module Suite = Lrpc_experiments.Suite
module Parallel = Lrpc_harness.Parallel
module Prng = Lrpc_util.Prng
module Sizes = Lrpc_workload.Sizes
module Soak = Lrpc_fault.Soak

let quick = Array.exists (( = ) "--quick") Sys.argv

let arg_value flag default parse =
  let v = ref default in
  Array.iteri
    (fun i a ->
      if a = flag && i + 1 < Array.length Sys.argv then
        match parse Sys.argv.(i + 1) with
        | Some x -> v := x
        | None -> invalid_arg (flag ^ ": bad value " ^ Sys.argv.(i + 1)))
    Sys.argv;
  !v

let jobs = arg_value "--jobs" (Parallel.default_jobs ()) (fun s ->
    match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let out_path = arg_value "--out" "BENCH_host.json" (fun s -> Some s)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Delay rate of one thread in a tight loop, no tracer. With nothing
   else queued, each delay ends before every queued event and is charged
   in place (Engine.delay's run-ahead path): no effect, no heap push or
   pop. So this measures that path, not the heap. *)
let engine_events_per_sec () =
  let n = if quick then 200_000 else 2_000_000 in
  let e = Engine.create ~processors:1 Cost_model.cvax_firefly in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         for _ = 1 to n do
           Engine.delay e (Time.ns 10)
         done));
  let (), dt = wall (fun () -> Engine.run e) in
  float_of_int n /. dt

let fig1_synthesis_calls_per_sec () =
  let calls = if quick then 50_000 else 500_000 in
  let rng = Prng.create ~seed:7L in
  let pop = Sizes.generate_population rng in
  let _, dt = wall (fun () -> Sizes.synthesize_traffic rng pop ~calls) in
  float_of_int calls /. dt

let fig2_wallclock_sec () =
  let horizon = Time.ms (if quick then 150 else 500) in
  let _, dt = wall (fun () -> Lrpc_experiments.Fig2.run ~horizon ()) in
  dt

let fig2_scale_wallclock_sec () =
  let _, dt =
    wall (fun () ->
        Lrpc_experiments.Fig2_scale.run
          ~max_cpus:(if quick then 8 else 256)
          ~horizon:(Time.ms (if quick then 100 else 250))
          ())
  in
  dt

(* The placement-quality study runs the scaling workload four times
   per rung, three of them on a clustered topology with distance costs
   and victim rings live — tracked both for its wall-clock (the
   locality paths are on the dispatch/steal hot path) and for its two
   headline simulated ratios, which pin the topology configuration the
   committed numbers were produced under. *)
let fig2_numa_wallclock () =
  wall (fun () ->
      Lrpc_experiments.Numa_study.run
        ~max_cpus:(if quick then 8 else 32)
        ~horizon:(Time.ms (if quick then 50 else 100))
        ())

(* The open-loop study is the heaviest per-point simulation in the
   suite (thousands of sessions, four systems, a sweep past
   saturation); its wall-clock is tracked so a hot-path regression in
   the engine's timer/wake machinery shows up here first. *)
let openloop_sweep_wallclock_sec () =
  let _, dt = wall (fun () -> Lrpc_experiments.Openloop.run ~quick ()) in
  dt

(* The transport study rebuilds a world per measurement (three systems
   x sizes, a loss sweep, the ablations), so its wall-clock tracks the
   whole boot-and-run path; the simulated speedup ratio pins the
   study's headline claim alongside the hardware-independent keys. *)
let transport_wallclock () =
  wall (fun () -> Lrpc_experiments.Transport_study.run ~quick ())

(* The soak at its stress tier: the headroom reclaimed by the hot-path
   work pays for a call count well past the smoke configuration. *)
let chaos_calls_per_sec () =
  let calls = if quick then 6_000 else 50_000 in
  let cfg = { Soak.default with Soak.calls = calls } in
  let report, dt = wall (fun () -> Soak.run cfg) in
  if not (Soak.ok report) then failwith "chaos soak invariants failed";
  float_of_int calls /. dt

let suite_times () =
  (* The open-loop sweep dwarfs every other artifact at full settings
     (~30 s vs ~5 s for the rest combined) and is already tracked by
     its own wall-clock key above, so it is excluded here — otherwise
     suite_serial_sec stops being comparable across commits and the
     serial-vs-jobs delta measures heap warm-up, not fan-out. The
     transport study is excluded for the same reason: it has its own
     wall-clock key. *)
  let names =
    List.filter (fun n -> n <> "openloop" && n <> "transport") Suite.names
  in
  let render js = Parallel.map ~jobs:js (Suite.run ~quick) names in
  let serial, serial_dt = wall (fun () -> render 1) in
  let fanned, jobs_dt = wall (fun () -> render jobs) in
  if serial <> fanned then
    failwith "suite output differs between --jobs 1 and parallel run";
  (serial_dt, jobs_dt)

let () =
  let events = engine_events_per_sec () in
  let fig1 = fig1_synthesis_calls_per_sec () in
  let fig2 = fig2_wallclock_sec () in
  let fig2_scale = fig2_scale_wallclock_sec () in
  let numa_result, fig2_numa = fig2_numa_wallclock () in
  let numa_last =
    List.nth numa_result.Lrpc_experiments.Numa_study.points
      (List.length numa_result.Lrpc_experiments.Numa_study.points - 1)
  in
  let numa_recovery (s : Lrpc_experiments.Numa_study.series) =
    s.Lrpc_experiments.Numa_study.sr_cps
    /. numa_last.Lrpc_experiments.Numa_study.flat
         .Lrpc_experiments.Numa_study.sr_cps
  in
  let openloop = openloop_sweep_wallclock_sec () in
  let transport_result, transport_dt = transport_wallclock () in
  let erpc_speedup =
    Lrpc_experiments.Transport_study.speedup_at_64 transport_result
  in
  let chaos = chaos_calls_per_sec () in
  let suite_serial, suite_jobs = suite_times () in
  let host_cores = Domain.recommended_domain_count () in
  (* Speedup can't exceed the cores actually available to the fan-out;
     efficiency divides by that, so 1.0 means "perfect use of this
     host" on any machine, including a 1-core CI container. *)
  let efficiency ~ways speedup = speedup /. float_of_int (min ways host_cores) in
  let suite_speedup = suite_serial /. suite_jobs in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"bench\": \"host\",\n";
  Printf.bprintf buf "  \"mode\": \"%s\",\n" (if quick then "quick" else "full");
  Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
  Printf.bprintf buf "  \"host_cores\": %d,\n" host_cores;
  Printf.bprintf buf "  \"ocaml_version\": \"%s\",\n" Sys.ocaml_version;
  Printf.bprintf buf "  \"engine_events_per_sec\": %.0f,\n" events;
  Printf.bprintf buf "  \"fig1_synthesis_calls_per_sec\": %.0f,\n" fig1;
  Printf.bprintf buf "  \"fig2_wallclock_sec\": %.3f,\n" fig2;
  Printf.bprintf buf "  \"fig2_scale_wallclock_sec\": %.3f,\n" fig2_scale;
  Printf.bprintf buf "  \"fig2_numa_wallclock_sec\": %.3f,\n" fig2_numa;
  Printf.bprintf buf "  \"numa_cluster_size\": %d,\n"
    numa_result.Lrpc_experiments.Numa_study.cluster_size;
  Printf.bprintf buf "  \"numa_cross_mult\": %.1f,\n"
    numa_result.Lrpc_experiments.Numa_study.cross_mult;
  Printf.bprintf buf "  \"numa_max_cpus\": %d,\n"
    numa_last.Lrpc_experiments.Numa_study.cpus;
  Printf.bprintf buf "  \"numa_aware_recovery\": %.3f,\n"
    (numa_recovery numa_last.Lrpc_experiments.Numa_study.far_aware);
  Printf.bprintf buf "  \"numa_blind_recovery\": %.3f,\n"
    (numa_recovery numa_last.Lrpc_experiments.Numa_study.far_blind);
  Printf.bprintf buf "  \"openloop_sweep_wallclock_sec\": %.3f,\n" openloop;
  Printf.bprintf buf "  \"transport_sweep_wallclock_sec\": %.3f,\n" transport_dt;
  Printf.bprintf buf "  \"erpc_vs_classic_speedup\": %.2f,\n" erpc_speedup;
  Printf.bprintf buf "  \"chaos_calls_per_sec\": %.0f,\n" chaos;
  Printf.bprintf buf "  \"suite_serial_sec\": %.3f,\n" suite_serial;
  Printf.bprintf buf "  \"suite_jobs_sec\": %.3f,\n" suite_jobs;
  Printf.bprintf buf "  \"suite_speedup\": %.2f,\n" suite_speedup;
  Printf.bprintf buf "  \"suite_efficiency\": %.2f\n"
    (efficiency ~ways:jobs suite_speedup);
  Buffer.add_string buf "}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf);
  Printf.printf "bench-host: wrote %s\n" out_path
