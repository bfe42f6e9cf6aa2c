module Prng = Lrpc_util.Prng
module Histogram = Lrpc_util.Histogram
module Os = Lrpc_workload.Os_profiles
module Sizes = Lrpc_workload.Sizes
module Driver = Lrpc_workload.Driver
module Time = Lrpc_sim.Time
module V = Lrpc_idl.Value

(* --- Table 1 models --------------------------------------------------------- *)

let test_expected_percents_match_paper () =
  List.iter
    (fun m ->
      let expected = Os.expected_percent m in
      Alcotest.(check bool)
        (Printf.sprintf "%s analytic %.2f near paper %.1f" m.Os.os_name expected
           m.Os.paper_percent)
        true
        (Float.abs (expected -. m.Os.paper_percent) < 0.3))
    Os.all

let test_sampling_converges () =
  let rng = Prng.create ~seed:11L in
  List.iter
    (fun m ->
      let r = Os.run (Prng.split rng) m ~operations:400_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s sampled %.2f" m.Os.os_name r.Os.percent_cross_machine)
        true
        (Float.abs (r.Os.percent_cross_machine -. Os.expected_percent m) < 0.25);
      Alcotest.(check int) "counts partition" r.Os.operations
        (r.Os.cross_domain + r.Os.cross_machine))
    Os.all

let test_cross_domain_dominates_everywhere () =
  let rng = Prng.create ~seed:5L in
  List.iter
    (fun m ->
      let r = Os.run (Prng.split rng) m ~operations:50_000 in
      Alcotest.(check bool) "cross-domain dominates" true
        (r.Os.cross_domain > 9 * r.Os.cross_machine))
    Os.all

let test_run_deterministic () =
  let run () = Os.run (Prng.create ~seed:3L) Os.taos ~operations:10_000 in
  Alcotest.(check int) "same counts" (run ()).Os.cross_machine
    (run ()).Os.cross_machine

(* --- Figure 1 population ------------------------------------------------------ *)

let pop = Sizes.generate_population (Prng.create ~seed:42L)

let test_population_shape () =
  Alcotest.(check int) "services" 28 pop.Sizes.services;
  Alcotest.(check int) "procedures" 366 (Array.length pop.Sizes.procs);
  Alcotest.(check bool) "over 1000 parameters" true (Sizes.param_count pop > 1000)

let near name target tolerance value =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f within %.3f of %.3f" name value tolerance target)
    true
    (Float.abs (value -. target) <= tolerance)

let test_population_statics () =
  near "fixed params (4 of 5)" 0.80 0.05 (Sizes.static_fixed_param_fraction pop);
  near "small params (65%)" 0.65 0.05 (Sizes.static_small_param_fraction pop);
  near "all-fixed procs (2/3)" 0.67 0.07 (Sizes.static_all_fixed_proc_fraction pop);
  near "small procs (60%)" 0.60 0.10 (Sizes.static_small_proc_fraction pop)

let test_traffic_landmarks () =
  let rng = Prng.create ~seed:42L in
  let stats = Sizes.synthesize_traffic rng pop ~calls:300_000 in
  Alcotest.(check int) "112 distinct procs" 112 stats.Sizes.distinct_procs;
  near "top-3 share" 0.75 0.02 stats.Sizes.top3_share;
  near "top-10 share" 0.95 0.02 stats.Sizes.top10_share;
  let h = stats.Sizes.histogram in
  Alcotest.(check int) "mode under 50 bytes" 0 (Histogram.mode_bin h);
  Alcotest.(check bool) "majority under 200" true
    (Histogram.cumulative_at h 199 > 0.5);
  Alcotest.(check bool) "visible tail beyond 200" true
    (Histogram.cumulative_at h 199 < 0.99)

let test_traffic_deterministic () =
  let stats seed =
    let rng = Prng.create ~seed in
    let p = Sizes.generate_population rng in
    Sizes.synthesize_traffic rng p ~calls:20_000
  in
  let a = stats 9L and b = stats 9L in
  Alcotest.(check int) "same max" a.Sizes.max_single b.Sizes.max_single;
  Alcotest.(check (float 1e-12)) "same share" a.Sizes.top3_share b.Sizes.top3_share

(* --- Session: a real simulated workstation ------------------------------------ *)

module Session = Lrpc_workload.Session

let test_session_counts_partition () =
  let r = Session.run ~operations:3_000 Os.taos in
  Alcotest.(check int) "all operations performed" r.Session.operations
    (r.Session.local_calls + r.Session.remote_calls);
  Alcotest.(check int) "3000 total" 3_000 r.Session.operations

let test_session_percent_near_model () =
  let r = Session.run ~operations:20_000 Os.taos in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f%% near 5.3%%" r.Session.percent_remote_calls)
    true
    (Float.abs (r.Session.percent_remote_calls -. 5.25) < 1.0)

let test_session_time_amplification () =
  (* the paper's motivation: a cross-machine RPC is slower than even a
     slow cross-domain RPC, so a sliver of remote calls dominates time *)
  let r = Session.run ~operations:10_000 Os.taos in
  Alcotest.(check bool) "time share >> call share" true
    (r.Session.percent_time_remote > 4.0 *. r.Session.percent_remote_calls);
  Alcotest.(check bool) "network time below elapsed" true
    (Lrpc_sim.Time.compare r.Session.network_time r.Session.elapsed < 0)

let test_session_no_remote_for_pure_local_model () =
  let local_only =
    {
      Os.os_name = "local-only";
      classes = [ { Os.class_name = "ipc"; weight = 1.0; remote_probability = 0.0 } ];
      paper_percent = 0.0;
    }
  in
  let r = Session.run ~operations:500 local_only in
  Alcotest.(check int) "no remote calls" 0 r.Session.remote_calls;
  Alcotest.(check int) "no network time" 0 r.Session.network_time

let test_session_deterministic () =
  let a = Session.run ~seed:7L ~operations:2_000 Os.v_system in
  let b = Session.run ~seed:7L ~operations:2_000 Os.v_system in
  Alcotest.(check int) "same remote count" a.Session.remote_calls
    b.Session.remote_calls;
  Alcotest.(check int) "same elapsed" a.Session.elapsed b.Session.elapsed

(* --- Driver ----------------------------------------------------------------- *)

let test_driver_four_tests_shapes () =
  let tests = Driver.four_tests () in
  Alcotest.(check (list string))
    "names"
    [ "Null"; "Add"; "BigIn"; "BigInOut" ]
    (List.map (fun t -> t.Driver.test_name) tests);
  let bigin = List.nth tests 2 in
  match bigin.Driver.args with
  | [ V.Bytes b ] -> Alcotest.(check int) "200 bytes" 200 (Bytes.length b)
  | _ -> Alcotest.fail "BigIn args"

let test_driver_lrpc_latency_sane () =
  let w = Driver.make_lrpc () in
  let null = Driver.lrpc_latency ~calls:50 w ~proc:"null" ~args:[] in
  Alcotest.(check (float 0.01)) "157" 157.0 null

let test_driver_throughput_matches_latency () =
  let tput =
    Driver.lrpc_throughput ~clients:1 ~horizon:(Time.ms 100) ()
  in
  (* 1e6/157 = 6369 *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f in 6300..6400" tput)
    true
    (tput > 6_300. && tput < 6_400.)

let test_driver_failure_propagates () =
  (* A driver world with a broken impl must raise, not hang or succeed. *)
  let w = Driver.make_lrpc () in
  match
    Driver.lrpc_latency ~calls:1 w ~proc:"add" ~args:[ V.bool true; V.int 2 ]
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "type error should surface"

(* --- Open-loop arrival streams ------------------------------------------- *)

module Ol = Lrpc_workload.Openloop
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Engine = Lrpc_sim.Engine

let gaps cfg ~per_stream =
  let ss = Ol.streams cfg in
  Array.to_list ss
  |> List.concat_map (fun s -> List.init per_stream (fun _ -> Ol.next_gap s))

let poisson_cfg =
  {
    Ol.ol_seed = 7L;
    ol_sessions = 16;
    ol_offered_cps = 8_000.0;
    ol_process = Ol.Poisson;
    ol_horizon = Time.ms 100;
    ol_warmup = Time.ms 10;
  }

let bursty_cfg =
  {
    poisson_cfg with
    Ol.ol_process =
      Ol.Bursty
        { burst_mult = 4.0; mean_burst = Time.ms 5; mean_idle = Time.ms 15 };
  }

let test_openloop_streams_deterministic () =
  List.iter
    (fun cfg ->
      let a = gaps cfg ~per_stream:200 and b = gaps cfg ~per_stream:200 in
      Alcotest.(check (list (float 0.0))) "same gap sequence" a b)
    [ poisson_cfg; bursty_cfg ];
  let a = gaps poisson_cfg ~per_stream:10 in
  let b = gaps { poisson_cfg with Ol.ol_seed = 8L } ~per_stream:10 in
  Alcotest.(check bool) "seed changes the stream" false (a = b)

let test_openloop_mean_rate () =
  (* 16 sessions at 8000 cps total: 500/s each, mean gap 2000 us.
     Holds for the MMPP too — its idle/burst rates are balanced to
     preserve the session mean. *)
  List.iter
    (fun cfg ->
      let g = gaps cfg ~per_stream:3000 in
      let mean = List.fold_left ( +. ) 0.0 g /. float_of_int (List.length g) in
      Alcotest.(check bool)
        (Printf.sprintf "mean gap %.0f near 2000" mean)
        true
        (Float.abs (mean -. 2000.0) < 150.0))
    [ poisson_cfg; bursty_cfg ]

let test_openloop_run_tracks_offered () =
  (* A real LRPC world at ~29% of its single-CPU capacity: achieved
     throughput tracks offered, and latency stays near the closed-loop
     157 us null time. *)
  let w = Driver.make_lrpc () in
  let binding =
    Api.import w.Driver.lw_rt ~domain:w.Driver.lw_client ~interface:"Bench"
  in
  let cfg =
    {
      Ol.ol_seed = 11L;
      ol_sessions = 8;
      ol_offered_cps = 1_800.0;
      ol_process = Ol.Poisson;
      ol_horizon = Time.ms 200;
      ol_warmup = Time.ms 40;
    }
  in
  let r =
    Ol.run cfg ~engine:w.Driver.lw_engine
      ~spawn:(fun ~session body ->
        ignore
          (Kernel.spawn w.Driver.lw_kernel w.Driver.lw_client
             ~name:(Printf.sprintf "ol%d" session) body))
      ~call:(fun ~session:_ ~lateness_us:_ ->
        ignore (Api.call w.Driver.lw_rt binding ~proc:"null" []);
        `Ok)
  in
  Alcotest.(check bool) "issued some calls" true (r.Ol.ol_issued > 200);
  Alcotest.(check bool) "completed <= issued" true
    (r.Ol.ol_completed <= r.Ol.ol_issued);
  Alcotest.(check int) "sketch holds the measured calls" r.Ol.ol_measured
    (Lrpc_util.Qsketch.count r.Ol.ol_sketch);
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.0f tracks offered" r.Ol.ol_achieved_cps)
    true
    (Float.abs (r.Ol.ol_achieved_cps -. 1_800.0) < 300.0);
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f us near unloaded null" r.Ol.ol_mean_us)
    true
    (r.Ol.ol_mean_us > 100.0 && r.Ol.ol_mean_us < 500.0)

let test_openloop_shed_accounting () =
  (* Shed plumbing: refused arrivals are tallied, never measured, and
     every call sees a non-negative lateness (run-queue wait plus the
     session's backlog past its scheduled arrival). An overloaded-style
     client that sheds every other arrival must end with
     issued = completed + shed and a sketch holding only the
     completions. *)
  let w = Driver.make_lrpc () in
  let binding =
    Api.import w.Driver.lw_rt ~domain:w.Driver.lw_client ~interface:"Bench"
  in
  let cfg =
    {
      Ol.ol_seed = 23L;
      ol_sessions = 4;
      ol_offered_cps = 1_000.0;
      ol_process = Ol.Poisson;
      ol_horizon = Time.ms 100;
      ol_warmup = Time.ms 20;
    }
  in
  let parity = ref 0 in
  let min_lateness = ref infinity in
  let r =
    Ol.run cfg ~engine:w.Driver.lw_engine
      ~spawn:(fun ~session body ->
        ignore
          (Kernel.spawn w.Driver.lw_kernel w.Driver.lw_client
             ~name:(Printf.sprintf "ol%d" session) body))
      ~call:(fun ~session:_ ~lateness_us ->
        if lateness_us < !min_lateness then min_lateness := lateness_us;
        incr parity;
        if !parity mod 2 = 0 then `Shed
        else begin
          ignore (Api.call w.Driver.lw_rt binding ~proc:"null" []);
          `Ok
        end)
  in
  Alcotest.(check bool) "issued some calls" true (r.Ol.ol_issued > 20);
  Alcotest.(check int) "every arrival tallied exactly once" r.Ol.ol_issued
    (r.Ol.ol_completed + r.Ol.ol_shed);
  Alcotest.(check bool) "about half shed" true
    (abs ((2 * r.Ol.ol_shed) - r.Ol.ol_issued) <= 1);
  Alcotest.(check bool) "shed calls are not measured" true
    (r.Ol.ol_measured <= r.Ol.ol_completed);
  Alcotest.(check int) "sketch holds only completions" r.Ol.ol_measured
    (Lrpc_util.Qsketch.count r.Ol.ol_sketch);
  Alcotest.(check bool) "lateness is never negative" true
    (!min_lateness >= 0.0)

let test_openloop_rejects () =
  (match Ol.streams { poisson_cfg with Ol.ol_sessions = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no sessions");
  match Ol.streams { poisson_cfg with Ol.ol_offered_cps = 0.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero load"

(* --- Counter hygiene across worlds ----------------------------------------- *)

(* A scale run on a clustered topology steals plenty; a world booted
   right after it starts from zero on every engine counter — Driver.boot
   builds a fresh engine, nothing leaks through globals. *)
let test_counters_fresh_across_boots () =
  let module Engine = Lrpc_sim.Engine in
  let module Cost_model = Lrpc_sim.Cost_model in
  let clu =
    Cost_model.clustered ~cluster_size:4 ~name:"clu4" Cost_model.cvax_firefly
  in
  let config =
    { Driver.Config.default with Driver.Config.processors = 8; cost_model = clu }
  in
  let stats =
    Driver.lrpc_scale ~yield_between:true
      ~home:(fun i -> i mod 2 * 4)
      ~config ~clients:12 ~horizon:(Time.ms 20) ()
  in
  let stolen =
    Array.fold_left ( + ) 0 stats.Driver.ss_steals
    + Array.fold_left ( + ) 0 stats.Driver.ss_steals_tagged
  in
  Alcotest.(check bool) "first world stole" true (stolen > 0);
  let b = Driver.boot config in
  Alcotest.(check int) "fresh steals" 0 (Engine.total_steals b.Driver.bt_engine);
  Alcotest.(check int) "fresh near" 0
    (Engine.total_steals_near b.Driver.bt_engine);
  Alcotest.(check int) "fresh far" 0
    (Engine.total_steals_far b.Driver.bt_engine);
  Alcotest.(check int) "fresh tlb" 0
    (Engine.total_tlb_misses b.Driver.bt_engine)

let () =
  Alcotest.run "lrpc_workload"
    [
      ( "table1 models",
        [
          Alcotest.test_case "analytic percents" `Quick test_expected_percents_match_paper;
          Alcotest.test_case "sampling converges" `Quick test_sampling_converges;
          Alcotest.test_case "cross-domain dominates" `Quick test_cross_domain_dominates_everywhere;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        ] );
      ( "figure1 model",
        [
          Alcotest.test_case "population shape" `Quick test_population_shape;
          Alcotest.test_case "population statics" `Quick test_population_statics;
          Alcotest.test_case "traffic landmarks" `Quick test_traffic_landmarks;
          Alcotest.test_case "deterministic" `Quick test_traffic_deterministic;
        ] );
      ( "session",
        [
          Alcotest.test_case "counts partition" `Quick test_session_counts_partition;
          Alcotest.test_case "percent near model" `Quick test_session_percent_near_model;
          Alcotest.test_case "time amplification" `Quick test_session_time_amplification;
          Alcotest.test_case "pure local" `Quick test_session_no_remote_for_pure_local_model;
          Alcotest.test_case "deterministic" `Quick test_session_deterministic;
        ] );
      ( "driver",
        [
          Alcotest.test_case "four tests" `Quick test_driver_four_tests_shapes;
          Alcotest.test_case "latency sane" `Quick test_driver_lrpc_latency_sane;
          Alcotest.test_case "throughput" `Quick test_driver_throughput_matches_latency;
          Alcotest.test_case "failures surface" `Quick test_driver_failure_propagates;
          Alcotest.test_case "counters fresh across boots" `Quick
            test_counters_fresh_across_boots;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "streams deterministic" `Quick
            test_openloop_streams_deterministic;
          Alcotest.test_case "mean rate preserved" `Quick test_openloop_mean_rate;
          Alcotest.test_case "run tracks offered" `Quick
            test_openloop_run_tracks_offered;
          Alcotest.test_case "shed accounting" `Quick
            test_openloop_shed_accounting;
          Alcotest.test_case "rejects" `Quick test_openloop_rejects;
        ] );
    ]
