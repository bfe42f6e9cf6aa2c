(* End-to-end checks that every regenerated table and figure lands on the
   paper's numbers (exactly where the simulation is deterministic, within
   stated tolerance where a workload is sampled). These are the repo's
   reproduction contract. *)

module E = Lrpc_experiments
module Time = Lrpc_sim.Time
module Json = Lrpc_util.Json

let near name target tolerance value =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f within %.2f of %.2f" name value tolerance target)
    true
    (Float.abs (value -. target) <= tolerance)

(* --- Table 1 ---------------------------------------------------------------- *)

let test_table1 () =
  let r = E.Table1.run ~operations:300_000 () in
  List.iter
    (fun row ->
      near row.E.Table1.os row.E.Table1.paper_percent 0.4
        row.E.Table1.measured_percent)
    r.E.Table1.rows;
  Alcotest.(check int) "three systems" 3 (List.length r.E.Table1.rows)

(* --- Figure 1 ---------------------------------------------------------------- *)

let test_fig1 () =
  let r = E.Fig1.run ~calls:200_000 () in
  let s = r.E.Fig1.stats in
  near "top3" 0.75 0.02 s.Lrpc_workload.Sizes.top3_share;
  near "top10" 0.95 0.02 s.Lrpc_workload.Sizes.top10_share;
  Alcotest.(check int) "distinct" 112 s.Lrpc_workload.Sizes.distinct_procs;
  Alcotest.(check int) "mode <50B" 0
    (Lrpc_util.Histogram.mode_bin s.Lrpc_workload.Sizes.histogram);
  Alcotest.(check bool) "render mentions landmarks" true
    (String.length (E.Fig1.render r) > 500)

(* --- Table 2 ---------------------------------------------------------------- *)

let test_table2 () =
  let r = E.Table2.run ~calls:50 () in
  List.iter
    (fun row ->
      near (row.E.Table2.system ^ " minimum") row.E.Table2.paper_minimum 0.5
        row.E.Table2.minimum_us;
      near (row.E.Table2.system ^ " actual") row.E.Table2.paper_actual 1.0
        row.E.Table2.actual_us;
      Alcotest.(check bool)
        (row.E.Table2.system ^ " overhead consistent")
        true
        (Float.abs
           (row.E.Table2.overhead_us
           -. (row.E.Table2.actual_us -. row.E.Table2.minimum_us))
        < 1e-6))
    r.E.Table2.rows;
  Alcotest.(check int) "six systems" 6 (List.length r.E.Table2.rows)

(* --- Table 3 ---------------------------------------------------------------- *)

let test_table3 () =
  let r = E.Table3.run () in
  Alcotest.(check (list string)) "LRPC call" [ "A" ]
    r.E.Table3.lrpc_mutable.E.Table3.call_copies;
  Alcotest.(check (list string)) "LRPC return" [ "F" ]
    r.E.Table3.lrpc_mutable.E.Table3.return_copies;
  Alcotest.(check (list string)) "LRPC immutable call" [ "A"; "E" ]
    r.E.Table3.lrpc_immutable.E.Table3.call_copies;
  Alcotest.(check (list string)) "MP call" [ "A"; "B"; "C"; "E" ]
    r.E.Table3.message_passing.E.Table3.call_copies;
  Alcotest.(check (list string)) "MP return" [ "B"; "C"; "F" ]
    r.E.Table3.message_passing.E.Table3.return_copies;
  Alcotest.(check (list string)) "RMP call" [ "A"; "D"; "E" ]
    r.E.Table3.restricted.E.Table3.call_copies;
  Alcotest.(check (list string)) "RMP return" [ "D"; "F" ]
    r.E.Table3.restricted.E.Table3.return_copies;
  (* the paper's headline counts: 3 vs 7 vs 5 *)
  Alcotest.(check int) "LRPC 3" 3
    (E.Table3.total_when_immutable r.E.Table3.lrpc_immutable);
  Alcotest.(check int) "MP 7" 7
    (E.Table3.total_when_immutable r.E.Table3.message_passing);
  Alcotest.(check int) "RMP 5" 5
    (E.Table3.total_when_immutable r.E.Table3.restricted)

(* --- Table 4 ---------------------------------------------------------------- *)

let test_table4 () =
  let r = E.Table4.run ~calls:100 () in
  List.iter
    (fun row ->
      let pm, pl, pt = row.E.Table4.paper in
      near (row.E.Table4.test ^ " LRPC/MP") pm 3.0 row.E.Table4.lrpc_mp_us;
      near (row.E.Table4.test ^ " LRPC") pl 0.2 row.E.Table4.lrpc_us;
      near (row.E.Table4.test ^ " Taos") pt 0.5 row.E.Table4.taos_us;
      (* the paper's headline: LRPC is a factor of three faster than SRC *)
      Alcotest.(check bool)
        (row.E.Table4.test ^ " factor ~3")
        true
        (row.E.Table4.taos_us /. row.E.Table4.lrpc_us > 2.5))
    r.E.Table4.rows

(* --- Table 5 ---------------------------------------------------------------- *)

let test_table5 () =
  let r = E.Table5.run ~calls:200 () in
  near "total" 157.0 0.01 r.E.Table5.total_us;
  near "tlb misses" 43.0 0.01 r.E.Table5.tlb_misses_per_call;
  near "tlb fraction ~25%" 0.246 0.01 r.E.Table5.tlb_fraction;
  List.iter
    (fun row ->
      (match row.E.Table5.paper_minimum with
      | Some p -> near row.E.Table5.operation p 0.01 row.E.Table5.minimum_us
      | None -> ());
      match row.E.Table5.paper_overhead with
      | Some p -> near row.E.Table5.operation p 0.01 row.E.Table5.overhead_us
      | None -> ())
    r.E.Table5.rows

(* --- Figure 2 ---------------------------------------------------------------- *)

let test_fig2 () =
  let r = E.Fig2.run ~horizon:(Time.ms 200) () in
  near "speedup at 4" 3.7 0.1 r.E.Fig2.lrpc_speedup_at_4;
  near "microvax speedup at 5" 4.3 0.2 r.E.Fig2.microvax_speedup_at_5;
  let p4 = List.nth r.E.Fig2.points 3 in
  Alcotest.(check bool) "lrpc over 23000" true (p4.E.Fig2.lrpc > 22_000.);
  Alcotest.(check bool) "src capped near 4000" true
    (p4.E.Fig2.src > 3_000. && p4.E.Fig2.src < 4_600.);
  let p2 = List.nth r.E.Fig2.points 1 in
  Alcotest.(check bool) "src flat after 2 cpus" true
    (p4.E.Fig2.src < p2.E.Fig2.src *. 1.15)

(* --- Ablations ---------------------------------------------------------------- *)

let test_a1 () =
  let a = E.Ablations.run_a1 () in
  near "untagged" 157.0 0.01 a.E.Ablations.untagged_null_us;
  near "tagged" 118.3 0.01 a.E.Ablations.tagged_null_us;
  near "cached" 125.0 0.01 a.E.Ablations.domain_cached_null_us

let test_a2 () =
  let a = E.Ablations.run_a2 () in
  List.iter
    (fun (n, trusting, defensive) ->
      Alcotest.(check bool)
        (Printf.sprintf "defensive slower at %d bytes" n)
        true (defensive > trusting))
    a.E.Ablations.sizes;
  (* penalty grows with size *)
  let penalties = List.map (fun (_, t, d) -> d -. t) a.E.Ablations.sizes in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "penalty grows" true (increasing penalties)

let test_a3 () =
  let a = E.Ablations.run_a3 () in
  near "handoff is the 464 path" 464.0 0.01 a.E.Ablations.handoff_null_us;
  Alcotest.(check bool) "general path slower" true
    (a.E.Ablations.general_null_us > a.E.Ablations.handoff_null_us +. 50.0)

let test_a4 () =
  let a = E.Ablations.run_a4 ~horizon:(Time.ms 150) () in
  let last l = List.nth l (List.length l - 1) in
  let per4 = last a.E.Ablations.per_astack in
  let glob4 = last a.E.Ablations.global_lock in
  Alcotest.(check bool) "per-astack scales" true (per4 > 22_000.);
  Alcotest.(check bool) "global lock caps" true (glob4 < 12_000.);
  (* and the global-lock curve is flat from 2 CPUs on *)
  let glob2 = List.nth a.E.Ablations.global_lock 1 in
  Alcotest.(check bool) "flat" true (glob4 < glob2 *. 1.15)

let test_a5 () =
  let a = E.Ablations.run_a5 () in
  Alcotest.(check bool) "lazy saves address space" true
    (a.E.Ablations.static_pages_after_bind
    > 50 * a.E.Ablations.lazy_pages_after_bind);
  Alcotest.(check bool) "lazy defers the cost to first call" true
    (a.E.Ablations.lazy_first_call_us > a.E.Ablations.static_first_call_us);
  Alcotest.(check bool) "steady state equal" true a.E.Ablations.steady_state_equal

let test_a6 () =
  let a = E.Ablations.run_a6 () in
  Alcotest.(check int) "32-byte budget" 32 a.E.Ablations.register_budget_bytes;
  let find n =
    let _, regs, plain, lrpc =
      List.find (fun (m, _, _, _) -> m = n) a.E.Ablations.points
    in
    (regs, plain, lrpc)
  in
  let r32, p32, _ = find 32 in
  let r36, _, _ = find 36 in
  (* registers help while they fit... *)
  Alcotest.(check bool) "faster in budget" true (r32 < p32 -. 50.0);
  (* ...then the cliff: one 4-byte overflow loses the whole benefit *)
  Alcotest.(check bool) "discontinuity" true (r36 > r32 +. 50.0);
  (* LRPC degrades smoothly across the same boundary *)
  let _, _, l32 = find 32 in
  let _, _, l36 = find 36 in
  Alcotest.(check bool) "lrpc smooth" true (Float.abs (l36 -. l32) < 2.0);
  (* and LRPC still beats even the register fast path *)
  List.iter
    (fun (_, regs, _, lrpc) ->
      Alcotest.(check bool) "lrpc fastest" true (lrpc < regs))
    a.E.Ablations.points

let test_latency_distribution () =
  let r = E.Latency.run ~horizon:(Time.ms 100) () in
  Alcotest.(check int) "six rows" 6 (List.length r.E.Latency.rows);
  let find system clients =
    List.find
      (fun row -> row.E.Latency.system = system && row.E.Latency.clients = clients)
      r.E.Latency.rows
  in
  let lrpc1 = find "LRPC" 1 and lrpc4 = find "LRPC" 4 in
  let src1 = find "SRC RPC" 1 and src4 = find "SRC RPC" 4 in
  near "lrpc single mean" 157.0 1.0 lrpc1.E.Latency.mean_us;
  near "src single mean" 464.0 1.0 src1.E.Latency.mean_us;
  (* contention shifts SRC wholesale; LRPC only by the bus factor *)
  Alcotest.(check bool) "src degrades >1.8x" true
    (src4.E.Latency.mean_us > 1.8 *. src1.E.Latency.mean_us);
  Alcotest.(check bool) "lrpc degrades <15%" true
    (lrpc4.E.Latency.mean_us < 1.15 *. lrpc1.E.Latency.mean_us);
  List.iter
    (fun row ->
      Alcotest.(check bool) "percentiles ordered" true
        (row.E.Latency.p50_us <= row.E.Latency.p90_us
        && row.E.Latency.p90_us <= row.E.Latency.p99_us))
    r.E.Latency.rows

(* --- open-loop load study -------------------------------------------------- *)

let openloop_quick = lazy (E.Openloop.run ~quick:true ())

let test_openloop_shape () =
  let r = Lazy.force openloop_quick in
  let systems = List.map (fun c -> c.E.Openloop.oc_system) r.E.Openloop.or_curves in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " curve present") true
        (List.mem required systems))
    [ "lrpc"; "src_rpc"; "netrpc" ];
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.E.Openloop.oc_system ^ " capacity positive")
        true
        (c.E.Openloop.oc_capacity_cps > 0.0);
      let offered =
        List.map (fun p -> p.E.Openloop.op_offered_cps) c.E.Openloop.oc_points
      in
      Alcotest.(check bool)
        (c.E.Openloop.oc_system ^ " offered load strictly increasing")
        true
        (List.for_all2 (fun a b -> a < b)
           (List.filteri (fun i _ -> i < List.length offered - 1) offered)
           (List.tl offered));
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s@%.0f quantiles ordered" c.E.Openloop.oc_system
               p.E.Openloop.op_offered_cps)
            true
            (p.E.Openloop.op_p50_us <= p.E.Openloop.op_p99_us
            && p.E.Openloop.op_p99_us <= p.E.Openloop.op_p999_us);
          Alcotest.(check bool) "measured <= completed <= issued" true
            (p.E.Openloop.op_measured <= p.E.Openloop.op_completed
            && p.E.Openloop.op_completed <= p.E.Openloop.op_issued))
        c.E.Openloop.oc_points)
    r.E.Openloop.or_curves

let test_openloop_knee_detected () =
  (* The sweep deliberately runs past capacity, so every system must
     saturate — the study's whole point. *)
  let r = Lazy.force openloop_quick in
  List.iter
    (fun c ->
      match c.E.Openloop.oc_knee_cps with
      | Some k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s knee %.0f within sweep" c.E.Openloop.oc_system k)
            true
            (k > 0.0 && k <= 1.35 *. c.E.Openloop.oc_capacity_cps +. 1.0)
      | None ->
          Alcotest.fail (c.E.Openloop.oc_system ^ ": no saturation knee found"))
    r.E.Openloop.or_curves

let test_openloop_json_render () =
  let r = Lazy.force openloop_quick in
  let json = E.Openloop.to_json r in
  Alcotest.check Json_check.t "experiment" (Json.String "openloop")
    (Json_check.field "experiment" json);
  Alcotest.check Json_check.t "seed" (Json.Int64 r.E.Openloop.or_seed)
    (Json_check.field "seed" json);
  Alcotest.(check int) "one object per system"
    (List.length r.E.Openloop.or_curves)
    (List.length (Json_check.items (Json_check.field "systems" json)));
  Alcotest.(check bool) "text render substantial" true
    (String.length (E.Openloop.render r) > 200)

(* The overload-control ablation against the bounds `make
   overload-smoke` used to check on its JSON: one capacity anchor for
   both arms; with shedding on, goodput past the knee holds 0.85x of it
   and p99 stays within 30 ms while the shed-off arm's last p99 is at
   least 3x the shed-on one; sheds grow with offered load and are zero
   with the policy off. *)
let test_openloop_shedding_bounds () =
  let module O = E.Openloop in
  let r = O.run_shedding ~quick:true () in
  Alcotest.(check (list string)) "two arms" [ "lrpc_shed_off"; "lrpc_shed_on" ]
    (List.sort compare (List.map (fun c -> c.O.oc_system) r.O.or_curves));
  let arm name = List.find (fun c -> c.O.oc_system = name) r.O.or_curves in
  let off = arm "lrpc_shed_off" and on = arm "lrpc_shed_on" in
  let cap = on.O.oc_capacity_cps in
  Alcotest.(check (float 0.0)) "arms share the capacity anchor" cap
    off.O.oc_capacity_cps;
  Alcotest.(check int) "arms have the same points"
    (List.length off.O.oc_points) (List.length on.O.oc_points);
  Alcotest.(check bool) "at least 3 points" true
    (List.length on.O.oc_points >= 3);
  let past_knee =
    List.filter (fun p -> p.O.op_offered_cps > cap) on.O.oc_points
  in
  Alcotest.(check bool) "sweep runs past capacity" true (past_knee <> []);
  List.iter
    (fun p ->
      let at = Printf.sprintf "shed-on @%.0f " p.O.op_offered_cps in
      Alcotest.(check bool) (at ^ "goodput >= 0.85x capacity") true
        (p.O.op_achieved_cps >= 0.85 *. cap);
      Alcotest.(check bool) (at ^ "p99 <= 30 ms") true
        (p.O.op_p99_us <= 30_000))
    past_knee;
  let last c = List.nth c.O.oc_points (List.length c.O.oc_points - 1) in
  Alcotest.(check bool) "shed-off p99 >= 3x shed-on at the last point" true
    ((last off).O.op_p99_us >= 3 * (last on).O.op_p99_us);
  let sheds = List.map (fun p -> p.O.op_shed) on.O.oc_points in
  Alcotest.(check bool) "sheds never decrease" true
    (List.sort compare sheds = sheds);
  Alcotest.(check bool) "last point sheds" true ((last on).O.op_shed > 0);
  List.iter
    (fun p -> Alcotest.(check int) "no sheds with the policy off" 0 p.O.op_shed)
    off.O.oc_points

(* --- Figure 2 scaling --------------------------------------------------------- *)

(* The CLI's `f2s --quick` study against the bounds `make
   fig2-scale-smoke` used to check on its JSON: the 1/2/4/8 ladder,
   LRPC throughput rising strictly with processors, SRC RPC held under
   its ~4000 calls/s global-lock ceiling, and, at the top rung, work
   stealing spreading the all-on-processor-0 callers to every other
   processor. *)
let test_fig2_scale_bounds () =
  let module F = E.Fig2_scale in
  let r = E.Suite.fig2_scale_result ~quick:true in
  let ps = r.F.points in
  Alcotest.(check (list int)) "ladder" [ 1; 2; 4; 8 ] (List.map (fun p -> p.F.cpus) ps);
  let rec rising = function
    | a :: (b :: _ as rest) -> a.F.lrpc < b.F.lrpc && rising rest
    | _ -> true
  in
  Alcotest.(check bool) "LRPC calls/s rise strictly" true (rising ps);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "SRC below its lock ceiling at %d CPUs (%.0f calls/s)"
           p.F.cpus p.F.src)
        true (p.F.src < 4100.0))
    ps;
  let top = List.hd (List.rev ps) in
  Alcotest.(check int) "one steal per other processor at the top rung"
    (top.F.cpus - 1) top.F.unbal_steals

(* --- Pipelining ------------------------------------------------------------------ *)

(* `bench/pipeline.exe --smoke`'s rows: one per processor count 1-4,
   the same serial rate on every row (one thread calling back to back
   uses one processor), pipelining ahead from two processors on, and the
   smoke rates pinned as the JSON prints them. Carriers spawn a thread
   per call and cross trap → kernel transfer on their own: no lrpcbench
   workload times that path. *)
let test_pipeline_bounds () =
  let module P = E.Pipeline in
  let rows = P.rows ~calls:40 in
  Alcotest.(check (list int)) "processors" [ 1; 2; 3; 4 ]
    (List.map (fun r -> r.P.processors) rows);
  let serial = (List.hd rows).P.serial_cpms in
  List.iter
    (fun r ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "serial rate at %d CPUs" r.P.processors)
        serial r.P.serial_cpms;
      if r.P.processors >= 2 then
        Alcotest.(check bool)
          (Printf.sprintf "pipelined ahead at %d CPUs (%.4fx)" r.P.processors
             r.P.speedup)
          true (r.P.speedup > 1.0))
    rows;
  Alcotest.(check (list string))
    "smoke rates (serial / pipelined calls per ms)"
    [
      "6.0974/5.9611";
      "6.0974/10.3070";
      "6.0974/12.6405";
      "6.0974/15.7242";
    ]
    (List.map
       (fun r -> Printf.sprintf "%.4f/%.4f" r.P.serial_cpms r.P.pipelined_cpms)
       rows)

(* --- Locality study ------------------------------------------------------------ *)

(* The CLI's `numa --quick` study against the bounds `make numa-smoke`
   used to check on its JSON: the 4/8 ladder, every series key at every
   rung, no near or far steals without a topology, every clustered
   steal counted as near or far, the distance-aware thief preferring
   near victims at the top rung, and both recovery ratios positive and
   finite. *)
let test_numa_bounds () =
  let module N = E.Numa_study in
  let r = E.Suite.numa_result ~quick:true in
  let ps = r.N.points in
  Alcotest.(check (list int)) "ladder" [ 4; 8 ] (List.map (fun p -> p.N.cpus) ps);
  let series = [ "flat"; "clu"; "far_aware"; "far_blind" ] in
  let points = Json_check.items (Json_check.field "points" (N.to_json r)) in
  Alcotest.(check int) "one JSON point per rung" (List.length ps) (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "point keys"
        (("cpus" :: series) @ [ "aware_recovery"; "blind_recovery" ])
        (Json_check.keys p);
      List.iter
        (fun s ->
          Alcotest.(check (list string)) (s ^ " keys")
            [ "cps"; "steals"; "steals_near"; "steals_far" ]
            (Json_check.keys (Json_check.field s p)))
        series)
    points;
  List.iter
    (fun p ->
      let at what = Printf.sprintf "%s at %d CPUs" what p.N.cpus in
      Alcotest.(check (pair int int))
        (at "flat near/far") (0, 0)
        (p.N.flat.N.sr_near, p.N.flat.N.sr_far);
      List.iter
        (fun (name, s) ->
          Alcotest.(check int)
            (at (name ^ " near + far = steals"))
            s.N.sr_steals (s.N.sr_near + s.N.sr_far))
        [ ("clu", p.N.clu); ("far_aware", p.N.far_aware); ("far_blind", p.N.far_blind) ];
      List.iter
        (fun (name, s) ->
          let recovery = N.recovery ~flat:p.N.flat.N.sr_cps s.N.sr_cps in
          Alcotest.(check bool)
            (at (Printf.sprintf "%s recovery %g positive and finite" name recovery))
            true
            (recovery > 0.0 && Float.is_finite recovery))
        [ ("aware", p.N.far_aware); ("blind", p.N.far_blind) ])
    ps;
  let top = List.hd (List.rev ps) in
  Alcotest.(check bool)
    (Printf.sprintf "aware thief prefers near victims (%d near, %d far)"
       top.N.far_aware.N.sr_near top.N.far_aware.N.sr_far)
    true
    (top.N.far_aware.N.sr_near >= top.N.far_aware.N.sr_far)

(* --- Transport study --------------------------------------------------------- *)

(* The quick three-way study against the bounds `make transport-smoke`
   used to check on its JSON: every system measured, eRPC ahead of
   classic at 64 B and on Null, graceful degradation under 1 % loss,
   and both ablations pointing the right way. *)
let test_transport_smoke () =
  let module T = E.Transport_study in
  let r = T.run ~quick:true () in
  Alcotest.(check (list string)) "three systems" [ "erpc"; "lrpc"; "netrpc" ]
    (List.sort compare (List.map (fun c -> c.T.sc_system) r.T.tr_sizes));
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %d B point positive" c.T.sc_system p.T.sp_bytes)
            true
            (p.T.sp_bytes > 0 && p.T.sp_latency_us > 0.0 && p.T.sp_cps > 0.0))
        c.T.sc_points)
    r.T.tr_sizes;
  Alcotest.(check bool) "eRPC beats classic at 64 B" true
    (T.speedup_at_64 r >= 1.0);
  Alcotest.(check bool) "Null on eRPC below Null on classic" true
    (r.T.tr_null_erpc_us < r.T.tr_null_classic_us);
  let loss = List.sort (fun a b -> compare a.T.lp_loss b.T.lp_loss) r.T.tr_loss in
  let base = List.hd loss and worst = List.hd (List.rev loss) in
  Alcotest.(check bool) "loss-free baseline and >= 1 % loss" true
    (base.T.lp_loss = 0.0 && worst.T.lp_loss >= 0.01);
  Alcotest.(check bool) "eRPC goodput keeps 0.4x under loss" true
    (worst.T.lp_erpc_cps >= 0.4 *. base.T.lp_erpc_cps);
  Alcotest.(check bool) "loss triggers retransmits" true
    (worst.T.lp_erpc_retx > 0);
  Alcotest.(check bool) "binding cache helps" true
    (r.T.tr_cache_on_us < r.T.tr_cache_off_us);
  Alcotest.(check bool) "staged copy costs" true
    (r.T.tr_staged_copy_us > r.T.tr_zero_copy_us)

(* The CLI's `--json` path, checked on its value: each artifact names
   its experiment, and every f2s rung carries all fourteen point keys. *)
let test_suite_json () =
  let json ?shedding name = E.Suite.json ~quick:true ?shedding name in
  let f2s = json "f2s" in
  List.iter
    (fun (experiment, v) ->
      Alcotest.check Json_check.t experiment (Json.String experiment)
        (Json_check.field "experiment" v))
    [
      ("fig2_scale", f2s); ("numa", json "numa"); ("transport", json "transport");
      ("openloop", json "openloop"); ("openloop_shed", json ~shedding:true "openloop");
    ];
  let points = Json_check.items (Json_check.field "points" f2s) in
  Alcotest.(check int) "four rungs" 4 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "f2s point keys"
        [
          "cpus"; "lrpc_cps"; "lrpc_speedup"; "src_cps"; "src_speedup"; "unbal_cps";
          "unbal_steals"; "steals"; "steals_tagged"; "shard_contended";
          "lrpc_spin_us"; "src_steals"; "src_spin_us"; "src_lock_contended";
        ]
        (Json_check.keys p))
    points

(* renders should never raise and always mention the paper *)
let test_renders () =
  let nonempty name s =
    Alcotest.(check bool) (name ^ " render") true (String.length s > 100)
  in
  nonempty "t1" (E.Table1.render (E.Table1.run ~operations:10_000 ()));
  nonempty "t3" (E.Table3.render (E.Table3.run ()));
  nonempty "t5" (E.Table5.render (E.Table5.run ~calls:10 ()))

(* --- EXPERIMENTS.md against the renderings ---------------------------------

   The measured cells of EXPERIMENTS.md's Table 4 and Figure 2 tables,
   one by one, against the `t4 --quick` and `f2 --quick` renderings. *)

(* The lines of [doc] after the one that starts with [heading], up to
   the next "## " heading. *)
let md_section doc heading =
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:heading l then take rest else skip rest
  and take = function
    | l :: rest when not (String.starts_with ~prefix:"## " l) -> l :: take rest
    | _ -> []
  in
  String.concat "\n" (skip (String.split_on_char '\n' doc))

(* The rows of the markdown or ASCII pipe tables in [text]: each line
   that starts with '|', split into trimmed cells. *)
let pipe_rows text =
  List.filter_map
    (fun line ->
      match String.split_on_char '|' line with
      | "" :: cells -> Some (List.map String.trim cells)
      | _ -> None)
    (String.split_on_char '\n' text)

(* One line per measured cell where [documented] and [rendered], both
   (row key, cells) lists, disagree. *)
let cell_mismatches ~table ~columns ~documented ~rendered =
  List.concat_map
    (fun (key, cells) ->
      match List.assoc_opt key documented with
      | None -> [ Printf.sprintf "%s, %s: no row in EXPERIMENTS.md" table key ]
      | Some doc_cells when List.length doc_cells <> List.length cells ->
          [ Printf.sprintf "%s, %s: %d cells in EXPERIMENTS.md" table key
              (List.length doc_cells) ]
      | Some doc_cells ->
          List.concat
            (List.map2
               (fun column (d, r) ->
                 if d = r then []
                 else
                   [
                     Printf.sprintf "%s, %s, %s: EXPERIMENTS.md %s, rendering %s"
                       table key column d r;
                   ])
               columns (List.combine doc_cells cells)))
    rendered
  @ List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key rendered then None
        else Some (Printf.sprintf "%s, %s: not in the rendering" table key))
      documented

let test_experiments_md () =
  let doc = In_channel.with_open_text "../EXPERIMENTS.md" In_channel.input_all in
  let rendering name = pipe_rows (E.Suite.run ~seed:1989L ~quick:true name) in
  let words s =
    List.filter (fun w -> w <> "" && w <> "\xc2\xb7") (String.split_on_char ' ' s)
  in
  let tests = [ "Null"; "Add"; "BigIn"; "BigInOut" ] in
  let t4_doc =
    List.filter_map
      (function
        | key :: _paper :: measured :: _ when List.mem key tests ->
            Some (key, words measured)
        | _ -> None)
      (pipe_rows (md_section doc "## Table 4"))
  in
  let t4_rendered =
    List.filter_map
      (function
        | key :: _ :: mp :: lrpc :: taos :: _ when List.mem key tests ->
            Some (key, [ mp; lrpc; taos ])
        | _ -> None)
      (rendering "t4")
  in
  (* Figure 2's rows are keyed by CPU count; the document groups digits
     in thousands with a space. *)
  let f2_rows ~joined rows =
    List.filter_map
      (function
        | cpus :: lrpc :: optimal :: src :: _ when int_of_string_opt cpus <> None ->
            Some (cpus, List.map joined [ lrpc; optimal; src ])
        | _ -> None)
      rows
  in
  let f2_rendered = f2_rows ~joined:Fun.id (rendering "f2") in
  let mismatches =
    cell_mismatches ~table:"Table 4" ~columns:[ "LRPC/MP"; "LRPC"; "Taos" ]
      ~documented:t4_doc ~rendered:t4_rendered
    @ cell_mismatches ~table:"Figure 2"
        ~columns:[ "LRPC measured"; "LRPC optimal"; "SRC RPC" ]
        ~documented:
          (f2_rows ~joined:(fun c -> String.concat "" (words c))
             (pipe_rows (md_section doc "## Figure 2")))
        ~rendered:f2_rendered
  in
  Alcotest.(check int) "Table 4 rows" 4 (List.length t4_rendered);
  Alcotest.(check int) "Figure 2 rows" 4 (List.length f2_rendered);
  Alcotest.(check (list string)) "cells that differ" [] mismatches

(* --- the Table 4/5 pin ----------------------------------------------------

   The md5 of the `t4 t5 --quick` rendering (the Makefile's T45_DIGEST,
   also pinned by lrpcbench): the classic-path LRPC numbers the paper's
   tables publish, which no other path may perturb. *)

let t45_digest = "8da7f56177c9c5c4908222de5c262ccd"

let test_t45_digest () =
  let rendering =
    String.concat ""
      (List.map
         (fun n -> E.Suite.run ~seed:1989L ~quick:true n ^ "\n\n")
         [ "t4"; "t5" ])
  in
  Alcotest.(check string) "t4 t5 rendering pin" t45_digest
    (Digest.to_hex (Digest.string rendering))

let () =
  Alcotest.run "lrpc_experiments"
    [
      ( "paper artifacts",
        [
          Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "figure 1" `Quick test_fig1;
          Alcotest.test_case "table 2" `Quick test_table2;
          Alcotest.test_case "table 3" `Quick test_table3;
          Alcotest.test_case "table 4" `Quick test_table4;
          Alcotest.test_case "table 5" `Quick test_table5;
          Alcotest.test_case "figure 2" `Slow test_fig2;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "a1 tlb" `Quick test_a1;
          Alcotest.test_case "a2 copies" `Quick test_a2;
          Alcotest.test_case "a3 handoff" `Quick test_a3;
          Alcotest.test_case "a4 locks" `Slow test_a4;
          Alcotest.test_case "a5 estacks" `Quick test_a5;
          Alcotest.test_case "a6 registers" `Quick test_a6;
        ] );
      ( "supplementary",
        [ Alcotest.test_case "latency distribution" `Slow test_latency_distribution ] );
      ( "openloop",
        [
          Alcotest.test_case "curve shape" `Slow test_openloop_shape;
          Alcotest.test_case "knee detected" `Slow test_openloop_knee_detected;
          Alcotest.test_case "renders" `Slow test_openloop_json_render;
          Alcotest.test_case "shedding bounds" `Quick test_openloop_shedding_bounds;
        ] );
      ("fig2 scale", [ Alcotest.test_case "smoke bounds" `Quick test_fig2_scale_bounds ]);
      ("pipeline", [ Alcotest.test_case "pipeline bounds" `Quick test_pipeline_bounds ]);
      ("locality", [ Alcotest.test_case "numa bounds" `Quick test_numa_bounds ]);
      ("transport", [ Alcotest.test_case "smoke bounds" `Quick test_transport_smoke ]);
      ( "rendering",
        [
          Alcotest.test_case "renders" `Quick test_renders;
          Alcotest.test_case "suite json" `Quick test_suite_json;
          Alcotest.test_case "EXPERIMENTS.md t4 f2" `Quick test_experiments_md;
        ] );
      ("pins", [ Alcotest.test_case "t4 t5 digest" `Quick test_t45_digest ]);
    ]
