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

let make_world ?processors () =
  let engine = Engine.create ?processors Cost_model.cvax_firefly in
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

(* Packet-granularity at-most-once under loss: many concurrent lossy
   calls hold their cells across selective retransmissions, yet live
   cells never exceed the window or the number of concurrent callers,
   they all come home at quiescence, and every procedure still executes
   exactly once per call. *)
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
    Erpc.import_remote ~window:8 rt ~client ~server iface ~impls:counted_impls
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
  Alcotest.(check bool) "cells were exercised" true (peak >= 1);
  Alcotest.(check bool) "live cells within the window and the callers" true
    (peak <= min 8 clients);
  Alcotest.(check (float 0.0)) "no live cell at quiescence" 0.0
    (gauge engine "net.erpc.dedup_entries");
  Alcotest.(check int) "credit accounting balanced" 0
    (ctr engine "net.erpc.credit_underflow")

(* --- the shared remote-call path ----------------------------------------- *)

(* Both transports, bound the same way, with their gauges of live
   at-most-once cells (current, peak). *)
let transports =
  [
    ( "netrpc",
      ("net.dedup_cache_entries", "net.dedup_cache_peak"),
      fun ?window rt ~client ~server impls ->
        Netrpc.import_remote ?window rt ~client ~server iface ~impls );
    ( "erpc",
      ("net.erpc.dedup_entries", "net.erpc.dedup_peak"),
      fun ?window rt ~client ~server impls ->
        Erpc.import_remote ?window rt ~client ~server iface ~impls );
  ]

let on_both_transports test () =
  List.iter (fun (name, gauges, import) -> test name gauges import) transports

let bad_calls =
  [
    ( "unknown procedure",
      "missing",
      [ V.int 1 ],
      function Rt.Bad_binding _ -> true | _ -> false );
    ( "ill-typed argument",
      "echo",
      [ V.bool true ],
      function V.Conformance_error _ -> true | _ -> false );
    ( "wrong arity",
      "echo",
      [ V.int 1; V.int 2 ],
      function Lrpc_idl.Layout.Arity_mismatch _ -> true | _ -> false );
  ]

(* The remote stub checks its arguments at issue, like the local one:
   through [call] and [call_async] alike, a bad call raises before it
   holds a window slot or reaches the wire, and counts as rejected. *)
let test_args_rejected_at_issue =
  on_both_transports (fun name _ import ->
      let engine, kernel, rt, client, server = make_world () in
      let b = import ~window:1 rt ~client ~server impls in
      let issues =
        [
          ("call", fun proc args -> ignore (Api.call rt b ~proc args));
          ("call_async", fun proc args -> ignore (Api.call_async rt b ~proc args));
        ]
      in
      let raised = ref [] and echoed = ref [] in
      ignore
        (Kernel.spawn kernel client (fun () ->
             List.iter
               (fun (what, proc, args, expected) ->
                 List.iter
                   (fun (how, issue) ->
                     let ok =
                       match issue proc args with
                       | () -> false
                       | exception e -> expected e
                     in
                     raised := (what ^ " via " ^ how, ok) :: !raised)
                   issues)
               bad_calls;
             echoed :=
               Api.await rt (Api.call_async rt b ~proc:"echo" [ V.int 9 ])));
      Engine.run engine;
      Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
      List.iter
        (fun (what, ok) ->
          Alcotest.(check bool) (name ^ ": " ^ what ^ " raises at issue") true ok)
        !raised;
      Alcotest.(check int) (name ^ ": every bad call rejected") 6
        (ctr engine "lrpc.calls_rejected");
      Alcotest.(check int) (name ^ ": no bad call failed late") 0
        (ctr engine "lrpc.calls_failed");
      Alcotest.(check int) (name ^ ": only the valid call reached the wire") 1
        (Netrpc.remote_calls rt);
      Alcotest.(check bool) (name ^ ": the valid call proceeds") true
        (!echoed = [ V.int 9 ]))

(* A client domain terminated while two of its calls are on the wire:
   the killed carriers release their at-most-once cells on the way out,
   so the live gauge comes back to zero with the calls. *)
let test_killed_caller_releases_cells =
  on_both_transports (fun name (live, peak) import ->
      let engine, kernel, rt, client, server = make_world ~processors:4 () in
      let executed = ref 0 in
      let counted =
        [
          ( "echo",
            fun args ->
              incr executed;
              args );
        ]
      in
      let b = import rt ~client ~server counted in
      ignore
        (Kernel.spawn kernel client (fun () ->
             let hs =
               List.map
                 (fun i -> Api.call_async rt b ~proc:"echo" [ V.int i ])
                 [ 1; 2 ]
             in
             ignore (Api.await_all rt hs)));
      (* Both requests have executed by 150 us on either wire, and
         neither reply is home: eRPC's echo round trip takes ~210 us,
         the classic wire 2.66 ms. *)
      ignore
        (Engine.at engine (Time.us 150) (fun () ->
             Api.terminate_domain rt client)
          : Engine.timer);
      Engine.run engine;
      Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
      Alcotest.(check int) (name ^ ": both procedures ran") 2 !executed;
      Alcotest.(check (float 0.0)) (name ^ ": both cells were live") 2.0
        (gauge engine peak);
      Alcotest.(check int) (name ^ ": no call in flight") 0
        (Api.calls_in_flight rt);
      Alcotest.(check (float 0.0)) (name ^ ": no live cell") 0.0
        (gauge engine live))

(* Nothing is kept per completed call: a binding's live heap after a
   full major GC is the same after 2000 more calls. *)
let test_erpc_no_heap_growth () =
  let engine, kernel, rt, client, server = make_world () in
  let b = Erpc.import_remote rt ~client ~server iface ~impls in
  let growth = ref 0 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let calls n =
           for i = 1 to n do
             ignore (Api.call rt b ~proc:"echo" [ V.int i ])
           done
         in
         calls 200;
         let before = live_words () in
         calls 2000;
         growth := live_words () - before));
  Engine.run engine;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures engine);
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %d words over 2000 calls" !growth)
    true (!growth < 500)

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
  let rejects what params =
    let _, _, rt, client, server = make_world () in
    match Erpc.import_remote ~params rt ~client ~server iface ~impls with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let d = Erpc.default_params in
  rejects "mtu = header_bytes" { d with Erpc.mtu = d.Erpc.header_bytes };
  rejects "credit_cap = 0" { d with Erpc.credit_cap = 0 };
  rejects "max_pkt_attempts = 0" { d with Erpc.max_pkt_attempts = 0 }

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
      ( "remote path",
        [
          Alcotest.test_case "args rejected at issue" `Quick
            test_args_rejected_at_issue;
          Alcotest.test_case "killed caller releases cells" `Quick
            test_killed_caller_releases_cells;
          Alcotest.test_case "no heap growth" `Quick test_erpc_no_heap_growth;
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
