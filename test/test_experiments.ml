(* End-to-end checks that every regenerated table and figure lands on the
   paper's numbers (exactly where the simulation is deterministic, within
   stated tolerance where a workload is sampled). These are the repo's
   reproduction contract. *)

module E = Lrpc_experiments
module Time = Lrpc_sim.Time

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
  Alcotest.(check bool) "json mentions experiment" true
    (String.length json > 200
    && String.sub json 0 25 = "{\"experiment\": \"openloop\"");
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

(* renders should never raise and always mention the paper *)
let test_renders () =
  let nonempty name s =
    Alcotest.(check bool) (name ^ " render") true (String.length s > 100)
  in
  nonempty "t1" (E.Table1.render (E.Table1.run ~operations:10_000 ()));
  nonempty "t3" (E.Table3.render (E.Table3.run ()));
  nonempty "t5" (E.Table5.render (E.Table5.run ~calls:10 ()))

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
      ("transport", [ Alcotest.test_case "smoke bounds" `Quick test_transport_smoke ]);
      ("rendering", [ Alcotest.test_case "renders" `Quick test_renders ]);
    ]
