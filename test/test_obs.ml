(* The observability subsystem: generic ring, metrics registry, typed
   trace, Chrome export, and the migrated counters' ground truth. *)

module Ring = Lrpc_obs.Ring
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics
module Chrome_trace = Lrpc_obs.Chrome_trace
module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Trace = Lrpc_sim.Trace
module Category = Lrpc_sim.Category
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Rt = Lrpc_core.Rt
module Driver = Lrpc_workload.Driver

(* --- Ring ----------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 8 do
    Ring.push r i
  done;
  Alcotest.(check int) "total" 8 (Ring.total r);
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "dropped" 5 (Ring.dropped r);
  Alcotest.(check (list int)) "newest kept, oldest first" [ 6; 7; 8 ]
    (Ring.to_list r)

let test_ring_partial () =
  let r = Ring.create ~capacity:8 in
  Ring.push r "a";
  Ring.push r "b";
  Alcotest.(check int) "dropped none" 0 (Ring.dropped r);
  Alcotest.(check (list string)) "only populated slots" [ "a"; "b" ]
    (Ring.to_list r);
  let visited = ref 0 in
  Ring.iter r (fun _ -> incr visited);
  Alcotest.(check int) "iter visits populated only" 2 !visited;
  Ring.clear r;
  Alcotest.(check (list string)) "cleared" [] (Ring.to_list r)

(* --- Metrics registry ----------------------------------------------------- *)

let test_metrics_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("who", "x") ] "test.count" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.Counter.value c);
  (* find-or-register: same name and labels yields the same instrument *)
  let c' = Metrics.counter m ~labels:[ ("who", "x") ] "test.count" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "aliased" 6 (Metrics.Counter.value c);
  let g = Metrics.gauge m "test.gauge" in
  Metrics.Gauge.set g 2.5;
  let h = Metrics.histogram m "test.hist" in
  Metrics.Histo.observe h 10;
  Metrics.Histo.observe h 90;
  Alcotest.(check int) "histo count" 2 (Metrics.Histo.count h);
  let s = Metrics.snapshot m in
  Alcotest.(check (option int)) "snapshot counter" (Some 6)
    (Metrics.get_counter s "test.count{who=x}");
  Alcotest.(check bool) "renders" true (String.length (Metrics.render s) > 0)

(* [observe_us] rounds in integer nanoseconds to the microsecond bin
   [Float.round (Time.to_us d)] picks for d >= 0, halves away from
   zero, and puts a negative duration in bin 0. *)
let test_observe_us_rounding () =
  let m = Metrics.create () in
  List.iteri
    (fun i d ->
      let h name = Metrics.histogram m ~bin_width:1 ~max_value:5_000_000 (name ^ string_of_int i) in
      let got = h "test.us" and want = h "test.ref" in
      Metrics.Histo.observe_us got (Time.ns d);
      Metrics.Histo.observe want (int_of_float (Float.round (Time.to_us (Time.ns d))));
      Alcotest.(check int)
        (Printf.sprintf "%d ns" d)
        (Metrics.Histo.percentile want 50.0)
        (Metrics.Histo.percentile got 50.0))
    [ 0; 1; 499; 500; 501; 999; 1_000; 1_499; 1_500; 2_500; 4_095_499; 4_095_500;
      4_999_999_500; -1; -499; -500; -501; -1_500; min_int ];
  let neg = Metrics.histogram m ~bin_width:1 ~max_value:10 "test.neg" in
  Metrics.Histo.observe_us neg (Time.ns (-2_600));
  Alcotest.(check int) "negative: bin 0" 1 (Metrics.Histo.percentile neg 50.0)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "test.k");
  match Metrics.gauge m "test.k" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same key registered as two instrument kinds"

let test_metrics_empty_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "test.empty" in
  (* No samples: every percentile is defined as 0, not an exception. *)
  Alcotest.(check int) "p50 of empty" 0 (Metrics.Histo.percentile h 50.0);
  Alcotest.(check int) "p99 of empty" 0 (Metrics.Histo.percentile h 99.0);
  let full = Metrics.histogram m "test.full" in
  Metrics.Histo.observe full 7;
  let s = Metrics.snapshot m in
  (match Metrics.get_histogram s "test.empty" with
  | Some hs ->
      Alcotest.(check int) "snapshot count" 0 hs.Metrics.hs_count;
      Alcotest.(check int) "snapshot p50" 0 hs.Metrics.hs_p50
  | None -> Alcotest.fail "empty histogram still appears in the snapshot");
  (* ... but the JSON rendering omits it: its quantiles would be the
     meaningless empty-histogram 0s, not data. *)
  let json = Metrics.to_json s in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "non-empty histogram serialized" true
    (contains "\"test.full\"");
  Alcotest.(check bool) "empty histogram omitted from JSON" false
    (contains "\"test.empty\"")

(* --- A fixed serial workload --------------------------------------------- *)

let run_calls ?(tracer = false) n =
  let w = Driver.make_lrpc () in
  let tr = if tracer then Some (Trace.create ()) else None in
  Engine.set_tracer w.Driver.lw_engine tr;
  let b = Api.import w.Driver.lw_rt ~domain:w.Driver.lw_client ~interface:"Bench" in
  ignore
    (Kernel.spawn w.Driver.lw_kernel w.Driver.lw_client ~name:"client"
       (fun () ->
         for _ = 1 to n do
           ignore (Api.call w.Driver.lw_rt b ~proc:"null" [])
         done));
  Engine.run w.Driver.lw_engine;
  (w, b, tr)

let test_per_binding_histograms () =
  let w, b, _ = run_calls 25 in
  let st = b.Rt.b_stats in
  Alcotest.(check int) "per-binding calls" 25
    (Metrics.Counter.value st.Rt.cs_calls);
  Alcotest.(check int) "total latencies recorded" 25
    (Metrics.Histo.count st.Rt.cs_total);
  List.iter
    (fun (what, h) ->
      Alcotest.(check int) (what ^ " latencies recorded") 25
        (Metrics.Histo.count h))
    [
      ("bind", st.Rt.cs_bind);
      ("marshal", st.Rt.cs_marshal);
      ("transfer", st.Rt.cs_transfer);
      ("server", st.Rt.cs_server);
      ("return", st.Rt.cs_return);
    ];
  (* a serial Null call takes ~207us end to end *)
  let p50 = Metrics.Histo.percentile st.Rt.cs_total 50.0 in
  Alcotest.(check bool) "total p50 plausible" true (p50 >= 150 && p50 <= 260);
  ignore w

let test_migrated_counters_ground_truth () =
  let w, _, _ = run_calls 10 in
  let e = w.Driver.lw_engine in
  Alcotest.(check int) "calls_completed" 10 (Api.calls_completed w.Driver.lw_rt);
  (* single processor, serial workload: the category breakdown in the
     registry must account for every simulated nanosecond *)
  let total =
    List.fold_left (fun acc (_, t) -> acc + t) 0 (Engine.breakdown e)
  in
  Alcotest.(check int) "breakdown sums to now" (Engine.now e) total;
  let s = Metrics.snapshot (Engine.metrics e) in
  (* the breakdown and the registry are the same store *)
  let trap_registry =
    Option.value ~default:(-1)
      (Metrics.get_counter s "sim.time_ns{category=trap}")
  in
  let trap_breakdown =
    Option.value ~default:(-2)
      (List.assoc_opt Category.Trap (Engine.breakdown e))
  in
  Alcotest.(check int) "registry is the breakdown's home" trap_breakdown
    trap_registry

(* --- Chrome trace export -------------------------------------------------- *)

let test_chrome_json () =
  let w, _, tr = run_calls ~tracer:true 3 in
  let tr = Option.get tr in
  (* The local path sends no packet: add a retransmitted one. *)
  Trace.emit tr ~at:(Engine.now w.Driver.lw_engine) ~tid:0 ~cpu:0
    (Event.Net_packet { seq = 0; pkt = 0; bytes = 64; retransmit = true });
  let json = Chrome_trace.to_json tr in
  Alcotest.(check bool) "well-formed JSON" true
    (Json_check.well_formed (Lrpc_util.Json.to_string json));
  Alcotest.(check bool) "traceEvents non-empty" true
    (Json_check.items (Json_check.field "traceEvents" json) <> []);
  Alcotest.check Json_check.t "records drops"
    (Lrpc_util.Json.Int (Trace.dropped tr))
    (Json_check.field "droppedEvents" (Json_check.field "otherData" json));
  (* A dispatch's [switched], a completion's [ok] and a packet's
     [retransmit] are JSON booleans. *)
  let args =
    List.filter_map
      (function
        | Lrpc_util.Json.Obj kvs -> List.assoc_opt "args" kvs | _ -> None)
      (Json_check.items (Json_check.field "traceEvents" json))
  in
  List.iter
    (fun flag ->
      let values =
        List.filter_map
          (function
            | Lrpc_util.Json.Obj kvs -> List.assoc_opt flag kvs | _ -> None)
          args
      in
      Alcotest.(check bool) (flag ^ " present") true (values <> []);
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is a boolean: %s" flag
               (Lrpc_util.Json.to_string v))
            true
            (match v with Lrpc_util.Json.Bool _ -> true | _ -> false))
        values)
    [ "switched"; "ok"; "retransmit" ];
  (* timestamps are monotone in emission order *)
  let last = ref Time.zero in
  let monotone = ref true in
  Trace.iter tr (fun ev ->
      if Time.compare ev.Trace.at !last < 0 then monotone := false;
      last := ev.Trace.at);
  Alcotest.(check bool) "monotone timestamps" true !monotone

let test_trace_find_and_dropped () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.emit tr ~at:i ~tid:i ~cpu:0 (Event.Mark { name = "m"; detail = "" })
  done;
  Alcotest.(check int) "count is total" 6 (Trace.count tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr);
  Alcotest.(check int) "find sees only retained" 4
    (List.length (Trace.find tr ~kind:"m"));
  Alcotest.(check (list int)) "newest retained" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Trace.tid) (Trace.events tr))

let () =
  Alcotest.run "lrpc_obs"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest" `Quick
            test_ring_wraparound;
          Alcotest.test_case "partial fill" `Quick test_ring_partial;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "roundtrip and aliasing" `Quick
            test_metrics_roundtrip;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_metrics_kind_mismatch;
          Alcotest.test_case "empty histogram" `Quick
            test_metrics_empty_histogram;
          Alcotest.test_case "observe_us rounding" `Quick test_observe_us_rounding;
        ] );
      ( "call path",
        [
          Alcotest.test_case "per-binding histograms" `Quick
            test_per_binding_histograms;
          Alcotest.test_case "migrated counters ground truth" `Quick
            test_migrated_counters_ground_truth;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome json" `Quick test_chrome_json;
          Alcotest.test_case "find and dropped" `Quick
            test_trace_find_and_dropped;
        ] );
    ]
