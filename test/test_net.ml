open Lrpc_sim
open Lrpc_kernel
open Lrpc_core
module Netrpc = Lrpc_net.Netrpc
module Erpc = Lrpc_net.Erpc
module Fault_plan = Lrpc_fault.Plan
module Metrics = Lrpc_obs.Metrics
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

let iface =
  I.interface "Echo"
    [
      I.proc ~result:I.Int32 "echo" [ I.param "x" I.Int32 ];
      I.proc ~result:(I.Var_bytes 4096) "blob" [ I.param "b" (I.Var_bytes 4096) ];
    ]

let impls =
  [
    ("echo", fun args -> match args with [ V.Int x ] -> [ V.int x ] | _ -> assert false);
    ("blob", fun args -> match args with [ V.Bytes b ] -> [ V.bytes b ] | _ -> assert false);
  ]

let make_world () =
  let engine = Engine.create Cost_model.cvax_firefly in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let client = Kernel.create_domain kernel ~name:"client" in
  let server = Kernel.create_domain kernel ~machine:1 ~name:"remote" in
  (engine, kernel, rt, client, server)

let test_wire_time_null () =
  Alcotest.(check int) "2660us" (Time.us 2660) (Netrpc.wire_time ~bytes:0)

let test_wire_time_grows_with_bytes () =
  let small = Netrpc.wire_time ~bytes:100 in
  let large = Netrpc.wire_time ~bytes:1000 in
  Alcotest.(check bool) "monotone" true (Time.compare large small > 0)

let test_wire_time_multipacket_penalty () =
  (* just under vs just over one MTU: the packet boundary costs extra
     beyond the per-byte difference *)
  let under = Netrpc.wire_time ~bytes:1400 in
  let over = Netrpc.wire_time ~bytes:1600 in
  let per_byte_only = Time.ns (200 * 800) in
  Alcotest.(check bool) "discontinuity" true
    (Time.compare (Time.sub over under) per_byte_only > 0)

let test_remote_call_roundtrip () =
  let engine, kernel, rt, client, server = make_world () in
  Netrpc.reset_remote_calls rt;
  let b = Netrpc.import_remote rt ~client ~server iface ~impls in
  let got = ref 0 in
  ignore
    (Kernel.spawn kernel client (fun () ->
         match Api.call rt b ~proc:"echo" [ V.int 55 ] with
         | [ V.Int x ] -> got := x
         | _ -> ()));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check int) "result" 55 !got;
  Alcotest.(check int) "counted" 1 (Netrpc.remote_calls rt)

let test_remote_call_slow () =
  let engine, kernel, rt, client, server = make_world () in
  let b = Netrpc.import_remote rt ~client ~server iface ~impls in
  let elapsed = ref 0 in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let t0 = Engine.now engine in
         ignore (Api.call rt b ~proc:"echo" [ V.int 1 ]);
         elapsed := Time.sub (Engine.now engine) t0));
  Engine.run engine;
  Alcotest.(check bool) "millisecond scale" true (!elapsed > Time.us 2600);
  (* and the network time is attributed to the Network category *)
  let net =
    List.assoc_opt Category.Network (Engine.breakdown engine)
    |> Option.value ~default:0
  in
  Alcotest.(check bool) "network category" true (net > Time.us 2600)

let test_local_pair_rejected () =
  let _, kernel, rt, client, _ = make_world () in
  let local_server = Kernel.create_domain kernel ~name:"local" in
  match Netrpc.import_remote rt ~client ~server:local_server iface ~impls with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "local pair accepted as remote"

let test_remote_conformance_checked () =
  let engine, kernel, rt, client, server = make_world () in
  let b = Netrpc.import_remote rt ~client ~server iface ~impls in
  ignore
    (Kernel.spawn kernel client (fun () ->
         (match Api.call rt b ~proc:"echo" [ V.bool true ] with
         | exception V.Conformance_error _ -> ()
         | _ -> Alcotest.fail "bad type accepted");
         match Api.call rt b ~proc:"missing" [] with
         | exception Rt.Bad_binding _ -> ()
         | _ -> Alcotest.fail "missing proc accepted"));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine)

let test_remote_binding_has_remote_bit () =
  let _, _, rt, client, server = make_world () in
  let b = Netrpc.import_remote rt ~client ~server iface ~impls in
  Alcotest.(check bool) "remote bit" true (b.Rt.b_remote <> None)

(* --- the packet-granular (eRPC-style) transport -------------------------- *)

let ctr engine name =
  Metrics.Counter.value (Metrics.counter (Engine.metrics engine) name)

let gauge engine name =
  Metrics.Gauge.value (Metrics.gauge (Engine.metrics engine) name)

let test_erpc_roundtrip_and_latency () =
  let engine, kernel, rt, client, server = make_world () in
  Netrpc.reset_remote_calls rt;
  let b = Erpc.import_remote rt ~client ~server iface ~impls in
  let got = ref 0 and elapsed = ref 0 in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let t0 = Engine.now engine in
         (match Api.call rt b ~proc:"echo" [ V.int 55 ] with
         | [ V.Int x ] -> got := x
         | _ -> ());
         elapsed := Time.sub (Engine.now engine) t0));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check int) "result" 55 !got;
  Alcotest.(check int) "counted" 1 (Netrpc.remote_calls rt);
  (* The whole point: the packet transport loses the classic path's
     2.66 ms protocol constant. *)
  Alcotest.(check bool) "far below the classic Null wire" true
    (!elapsed < Time.us 600 && !elapsed > Time.us 50);
  Alcotest.(check bool) "request + response packets" true
    (ctr engine "net.erpc.pkts_sent" >= 2);
  Alcotest.(check int) "credit accounting balanced" 0
    (ctr engine "net.erpc.credit_underflow")

let test_erpc_multipacket_fragmentation () =
  let engine, kernel, rt, client, server = make_world () in
  let b = Erpc.import_remote rt ~client ~server iface ~impls in
  let payload = Bytes.create 4096 in
  let ok = ref false in
  ignore
    (Kernel.spawn kernel client (fun () ->
         match Api.call rt b ~proc:"blob" [ V.bytes payload ] with
         | [ V.Bytes b ] -> ok := Bytes.length b = 4096
         | _ -> ()));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "payload echoed" true !ok;
  (* 4096 B over a 1436 B fragment payload = 3 fragments each way. *)
  Alcotest.(check int) "six fragments" 6 (ctr engine "net.erpc.pkts_sent");
  Alcotest.(check bool) "zero-copy counted both directions" true
    (ctr engine "net.erpc.zerocopy_bytes" = 8192)

let test_erpc_binding_cache_ablation () =
  let run ~binding_cache =
    let engine, kernel, rt, client, server = make_world () in
    let params = { Erpc.default_params with Erpc.binding_cache } in
    let b = Erpc.import_remote ~params rt ~client ~server iface ~impls in
    let elapsed = ref 0 in
    ignore
      (Kernel.spawn kernel client (fun () ->
           let t0 = Engine.now engine in
           for i = 1 to 10 do
             ignore (Api.call rt b ~proc:"echo" [ V.int i ])
           done;
           elapsed := Time.sub (Engine.now engine) t0));
    Engine.run engine;
    Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
    (!elapsed, ctr engine "net.erpc.bcache_hits")
  in
  let base, hits0 = run ~binding_cache:false in
  let cached, hits1 = run ~binding_cache:true in
  Alcotest.(check int) "no hits without the cache" 0 hits0;
  Alcotest.(check int) "nine hits after the first miss" 9 hits1;
  (* 9 calls save (20 - 1) us of kernel mediation each. *)
  Alcotest.(check bool) "cache is faster" true (cached < base)

(* qcheck: under any seeded drop/dup/delay plan, per-session credit
   accounting never goes negative and in-flight packets stay within the
   hard credit cap. [net.erpc.credit_underflow] is incremented by the
   transport itself whenever the invariant would break. *)
let erpc_credit_invariant (seed, drop, dup, delay, calls) =
  let engine, kernel, rt, client, server = make_world () in
  let plan =
    Fault_plan.make
      {
        Fault_plan.none with
        Fault_plan.seed = Int64.of_int seed;
        pkt_drop = drop;
        pkt_dup = dup;
        pkt_delay = delay;
        pkt_delay_mean_us = 300.0;
      }
  in
  Fault_plan.install plan rt;
  let params = { Erpc.default_params with Erpc.init_cwnd = 4.0 } in
  let b = Erpc.import_remote ~params ~window:4 rt ~client ~server iface ~impls in
  let completed = ref 0 and failed = ref 0 in
  for c = 0 to 3 do
    ignore
      (Kernel.spawn kernel client
         ~name:(Printf.sprintf "erpc-prop-%d" c)
         (fun () ->
           for i = 1 to calls do
             match Api.call_result rt b ~proc:"echo" [ V.int i ] with
             | Ok [ V.Int v ] when v = i -> incr completed
             | Ok _ -> ()
             | Error _ -> incr failed
           done))
  done;
  Engine.run engine;
  Engine.failures engine = []
  && ctr engine "net.erpc.credit_underflow" = 0
  && !completed + !failed = 4 * calls
  && int_of_float (gauge engine "net.erpc.inflight_max")
     <= Erpc.default_params.Erpc.credit_cap

let test_erpc_credit_qcheck () =
  let gen =
    QCheck.Gen.(
      tup5 (int_bound 10_000)
        (float_bound_inclusive 0.3)
        (float_bound_inclusive 0.3)
        (float_bound_inclusive 0.3)
        (int_range 1 4))
  in
  let arb = QCheck.make gen in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:12 ~name:"credit accounting invariant" arb
       erpc_credit_invariant)

(* Packet-granularity dedup-cache eviction: many concurrent lossy calls
   hold their at-most-once entries across selective retransmissions,
   yet live entries never exceed the configured capacity — and every
   procedure still executes exactly once per call. *)
let test_erpc_dedup_eviction () =
  let engine, kernel, rt, client, server = make_world () in
  let plan =
    Fault_plan.make
      {
        Fault_plan.none with
        Fault_plan.seed = 11L;
        pkt_drop = 0.25;
        pkt_dup = 0.15;
      }
  in
  Fault_plan.install plan rt;
  let executed = ref 0 in
  let counted_impls =
    [
      ( "echo",
        fun args ->
          incr executed;
          match args with [ V.Int x ] -> [ V.int x ] | _ -> assert false );
    ]
  in
  let b =
    Erpc.import_remote ~dedup_capacity:3 ~window:8 rt ~client ~server iface
      ~impls:counted_impls
  in
  let calls_per_client = 6 and clients = 4 in
  let completed = ref 0 in
  for c = 0 to clients - 1 do
    ignore
      (Kernel.spawn kernel client
         ~name:(Printf.sprintf "erpc-lossy-%d" c)
         (fun () ->
           for i = 1 to calls_per_client do
             match Api.call_result rt b ~proc:"echo" [ V.int i ] with
             | Ok [ V.Int v ] when v = i -> incr completed
             | Ok _ -> Alcotest.fail "wrong result"
             | Error _ -> ()
           done))
  done;
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool) "losses actually retransmitted" true
    (ctr engine "net.erpc.retransmits" > 0);
  Alcotest.(check int) "one execution per completed-or-failed call"
    (clients * calls_per_client)
    !executed;
  let peak = int_of_float (gauge engine "net.erpc.dedup_peak") in
  Alcotest.(check bool) "cache was exercised" true (peak >= 1);
  Alcotest.(check bool) "live entries bounded by capacity" true (peak <= 3);
  Alcotest.(check int) "credit accounting balanced" 0
    (ctr engine "net.erpc.credit_underflow")

(* --- eRPC parameter boundaries ----------------------------------------- *)

(* Zero / one / just-out-of-range cases for [Erpc.params]: the smallest
   legal fragment (one payload byte), a one-packet credit window, a
   single attempt per packet, and each value one step below its legal
   range. *)

let tiny_mtu =
  {
    Erpc.default_params with
    Erpc.mtu = Erpc.default_params.Erpc.header_bytes + 1;
  }

(* Echo a 7-byte blob under [params]; returns the engine for counters. *)
let erpc_blob_echo params =
  let engine, kernel, rt, client, server = make_world () in
  let b = Erpc.import_remote ~params rt ~client ~server iface ~impls in
  let echoed = ref "" in
  ignore
    (Kernel.spawn kernel client (fun () ->
         match Api.call rt b ~proc:"blob" [ V.bytes (Bytes.of_string "seven b") ] with
         | [ V.Bytes r ] -> echoed := Bytes.to_string r
         | _ -> ()));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check string) "payload echoed" "seven b" !echoed;
  engine

let test_erpc_one_byte_fragments () =
  let engine = erpc_blob_echo tiny_mtu in
  (* One payload byte per fragment: seven each way. *)
  Alcotest.(check int) "14 packets" 14 (ctr engine "net.erpc.pkts_sent")

let test_erpc_one_credit () =
  let engine = erpc_blob_echo { tiny_mtu with Erpc.credit_cap = 1 } in
  Alcotest.(check int) "14 packets" 14 (ctr engine "net.erpc.pkts_sent");
  Alcotest.(check (float 0.0)) "one packet in flight at most" 1.0
    (gauge engine "net.erpc.inflight_max");
  Alcotest.(check int) "credit accounting balanced" 0
    (ctr engine "net.erpc.credit_underflow")

let test_erpc_single_attempt () =
  let engine, kernel, rt, client, server = make_world () in
  Fault_plan.install
    (Fault_plan.make { Fault_plan.none with Fault_plan.pkt_drop = 1.0 })
    rt;
  let params = { Erpc.default_params with Erpc.max_pkt_attempts = 1 } in
  let b = Erpc.import_remote ~params rt ~client ~server iface ~impls in
  let outcome = ref None in
  ignore
    (Kernel.spawn kernel client (fun () ->
         outcome := Some (Api.call_result rt b ~proc:"echo" [ V.int 1 ])));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  (match !outcome with
  | Some (Error (Api.Failed _)) -> ()
  | _ -> Alcotest.fail "expected a typed Failed error");
  Alcotest.(check int) "one packet, no retransmission" 1
    (ctr engine "net.erpc.pkts_sent");
  Alcotest.(check int) "credit accounting balanced" 0
    (ctr engine "net.erpc.credit_underflow")

let test_erpc_params_below_range () =
  let rejects what ?dedup_capacity params =
    let _, _, rt, client, server = make_world () in
    match
      Erpc.import_remote ~params ?dedup_capacity rt ~client ~server iface ~impls
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let d = Erpc.default_params in
  rejects "mtu = header_bytes" { d with Erpc.mtu = d.Erpc.header_bytes };
  rejects "credit_cap = 0" { d with Erpc.credit_cap = 0 };
  rejects "max_pkt_attempts = 0" { d with Erpc.max_pkt_attempts = 0 };
  rejects "dedup_capacity = 0" ~dedup_capacity:0 d

let () =
  Alcotest.run "lrpc_net"
    [
      ( "wire model",
        [
          Alcotest.test_case "null time" `Quick test_wire_time_null;
          Alcotest.test_case "per byte" `Quick test_wire_time_grows_with_bytes;
          Alcotest.test_case "multipacket" `Quick test_wire_time_multipacket_penalty;
        ] );
      ( "remote calls",
        [
          Alcotest.test_case "roundtrip" `Quick test_remote_call_roundtrip;
          Alcotest.test_case "slow" `Quick test_remote_call_slow;
          Alcotest.test_case "local rejected" `Quick test_local_pair_rejected;
          Alcotest.test_case "conformance" `Quick test_remote_conformance_checked;
          Alcotest.test_case "remote bit" `Quick test_remote_binding_has_remote_bit;
        ] );
      ( "erpc transport",
        [
          Alcotest.test_case "roundtrip + latency" `Quick
            test_erpc_roundtrip_and_latency;
          Alcotest.test_case "fragmentation" `Quick
            test_erpc_multipacket_fragmentation;
          Alcotest.test_case "binding cache" `Quick
            test_erpc_binding_cache_ablation;
          Alcotest.test_case "credit invariant (qcheck)" `Quick
            test_erpc_credit_qcheck;
          Alcotest.test_case "dedup eviction" `Quick test_erpc_dedup_eviction;
        ] );
      ( "erpc boundaries",
        [
          Alcotest.test_case "one-byte fragments" `Quick
            test_erpc_one_byte_fragments;
          Alcotest.test_case "one credit" `Quick test_erpc_one_credit;
          Alcotest.test_case "single attempt" `Quick test_erpc_single_attempt;
          Alcotest.test_case "below range rejected" `Quick
            test_erpc_params_below_range;
        ] );
    ]
