module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Netrpc = Lrpc_net.Netrpc
module Erpc = Lrpc_net.Erpc
module Fault_plan = Lrpc_fault.Plan
module Driver = Lrpc_workload.Driver
module Metrics = Lrpc_obs.Metrics
module Table = Lrpc_util.Table
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

(* The three-way transport study: LRPC local vs classic Netrpc vs the
   eRPC-style packet-granular transport, across message sizes and
   packet-loss rates. Every world is freshly built per measurement and
   every fault plan is seeded, so the whole study is a pure function of
   its arguments. *)

type size_point = {
  sp_bytes : int;  (** echoed payload, each direction *)
  sp_latency_us : float;  (** single-caller steady-state per call *)
  sp_cps : float;  (** closed-loop completions/s, [tr_clients] callers *)
}

type size_curve = { sc_system : string; sc_points : size_point list }

type loss_point = {
  lp_loss : float;  (** per-packet (and per classic attempt) drop rate *)
  lp_classic_cps : float;
  lp_classic_failed : int;
  lp_classic_retries : int;
  lp_erpc_cps : float;
  lp_erpc_failed : int;
  lp_erpc_retx : int;
}

type result = {
  tr_seed : int64;
  tr_clients : int;
  tr_horizon : Time.t;
  tr_sizes : size_curve list;
  tr_loss : loss_point list;
  tr_null_classic_us : float;  (** Bench Null, one caller, classic *)
  tr_null_erpc_us : float;  (** Bench Null, one caller, eRPC *)
  tr_cache_off_us : float;  (** eRPC 64 B latency, full kernel mediation *)
  tr_cache_on_us : float;  (** same with the Arcalis binding cache *)
  tr_zero_copy_us : float;  (** eRPC 6000 B latency, zero-copy *)
  tr_staged_copy_us : float;  (** same with the staged-copy ablation *)
}

let sizes ~quick = if quick then [ 64; 1500 ] else [ 64; 512; 1500; 6000 ]
let losses ~quick = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.01; 0.05 ]

(* Variable-size echo: the payload rides both directions, so a size-N
   point moves 2N bytes end to end. *)
let max_payload = 8_192

let iface =
  I.interface "Transport"
    [
      I.proc ~result:(I.Var_bytes max_payload) "echo"
        [ I.param "b" (I.Var_bytes max_payload) ];
    ]

let echo_remote =
  [
    ( "echo",
      fun args ->
        match args with [ V.Bytes b ] -> [ V.bytes b ] | _ -> invalid_arg "echo"
    );
  ]

let echo_local =
  [
    ( "echo",
      fun ctx ->
        match Lrpc_core.Server_ctx.arg ctx 0 with
        | V.Bytes b -> [ V.bytes b ]
        | _ -> invalid_arg "echo" );
  ]

(* What a world serves: an interface with its LRPC and remote impls.
   The study's own echo, and the paper's Bench suite for the Null pair. *)
let echo = (iface, echo_local, echo_remote)
let bench = (Driver.bench_interface, Driver.bench_impls, Driver.mpass_bench_impls)

(* One measurement world: [clients] caller domains on machine 0, the
   server local (machine 0, LRPC) or remote (machine 1) behind the
   selected transport, one binding per caller domain. *)
type system = Lrpc | Classic | Erpc_sys of Erpc.params

let world ?install_faults ?(service = echo) ~processors ~clients system =
  let iface, local_impls, remote_impls = service in
  let config =
    {
      Driver.Config.default with
      Driver.Config.processors;
      install_faults;
    }
  in
  let b = Driver.boot config in
  let kernel = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let clients_d =
    Array.init clients (fun d ->
        Kernel.create_domain kernel ~name:(Printf.sprintf "tr-client%d" d))
  in
  let bindings =
    match system with
    | Lrpc ->
        let server = Kernel.create_domain kernel ~name:"tr-server" in
        ignore (Api.export rt ~domain:server iface ~impls:local_impls);
        Array.map
          (fun d -> Api.import rt ~domain:d ~interface:iface.I.interface_name)
          clients_d
    | Classic ->
        let server = Kernel.create_domain kernel ~machine:1 ~name:"tr-server" in
        Array.map
          (fun client ->
            Netrpc.import_remote rt ~client ~server iface ~impls:remote_impls)
          clients_d
    | Erpc_sys params ->
        let server = Kernel.create_domain kernel ~machine:1 ~name:"tr-server" in
        Array.map
          (fun client ->
            Erpc.import_remote ~params rt ~client ~server iface
              ~impls:remote_impls)
          clients_d
  in
  (b, kernel, rt, clients_d, bindings)

(* A call the latency driver repeats: the service it needs, then the
   procedure and its arguments. *)
let echo_call bytes = (echo, "echo", [ V.bytes (Bytes.create bytes) ])
let null_call = (bench, "null", [])

(* Steady-state latency: one caller, fault-free, 3 warm-up calls and
   20 timed. *)
let latency_of ~processors system (service, proc, args) =
  let _, kernel, rt, clients_d, bindings =
    world ~service ~processors ~clients:1 system
  in
  Driver.tight_loop kernel clients_d.(0) ~warmup:3 ~calls:20 (fun () ->
      fun () -> Api.call rt bindings.(0) ~proc args)

(* Closed-loop goodput: [clients] tight-loop callers for [horizon];
   failed calls (retry exhaustion under loss) are tolerated and
   counted, so the metric is goodput, not attempts. *)
let throughput_of ?install_faults ~processors ~clients ~horizon system ~bytes =
  let b, kernel, rt, clients_d, bindings =
    world ?install_faults ~processors ~clients system
  in
  let engine = b.Driver.bt_engine in
  let args = [ V.bytes (Bytes.create bytes) ] in
  let ok = ref 0 and failed = ref 0 in
  for c = 0 to clients - 1 do
    ignore
      (Kernel.spawn kernel clients_d.(c)
         ~name:(Printf.sprintf "tr-caller%d" c)
         (fun () ->
           while true do
             match Api.call_result rt bindings.(c) ~proc:"echo" args with
             | Ok _ -> incr ok
             | Error _ -> incr failed
           done))
  done;
  Engine.run ~until:horizon engine;
  Engine.check_failures ~what:"throughput caller" engine;
  let cps = float_of_int !ok /. Time.to_s horizon in
  let ctr name =
    Metrics.Counter.value (Metrics.counter (Engine.metrics engine) name)
  in
  (cps, !failed, ctr "net.retries", ctr "net.erpc.retransmits")

let run ?(seed = 1989L) ?(quick = false) () =
  let processors = 4 in
  let clients = if quick then 8 else 16 in
  let horizon = Time.ms (if quick then 50 else 100) in
  let size_curve system name =
    {
      sc_system = name;
      sc_points =
        List.map
          (fun bytes ->
            let lat = latency_of ~processors system (echo_call bytes) in
            let cps, _, _, _ =
              throughput_of ~processors ~clients ~horizon system ~bytes
            in
            { sp_bytes = bytes; sp_latency_us = lat; sp_cps = cps })
          (sizes ~quick);
    }
  in
  let tr_sizes =
    [
      size_curve Lrpc "lrpc";
      size_curve Classic "netrpc";
      size_curve (Erpc_sys Erpc.default_params) "erpc";
    ]
  in
  (* Loss sweep at 64 B: single-fragment messages both ways, so a
     per-packet rate p on the eRPC path is compared against the same
     per-attempt rate on both classic wire directions. *)
  let tr_loss =
    List.map
      (fun loss ->
        let classic_faults rt =
          if loss > 0.0 then
            Fault_plan.install
              (Fault_plan.make
                 {
                   Fault_plan.none with
                   Fault_plan.seed = seed;
                   wire_drop = loss;
                   wire_reply_drop = loss;
                 })
              rt
        in
        let erpc_faults rt =
          if loss > 0.0 then
            Fault_plan.install
              (Fault_plan.make
                 { Fault_plan.none with Fault_plan.seed = seed; pkt_drop = loss })
              rt
        in
        let c_cps, c_failed, c_retries, _ =
          throughput_of ~install_faults:classic_faults ~processors ~clients
            ~horizon Classic ~bytes:64
        in
        let e_cps, e_failed, _, e_retx =
          throughput_of ~install_faults:erpc_faults ~processors ~clients
            ~horizon (Erpc_sys Erpc.default_params) ~bytes:64
        in
        {
          lp_loss = loss;
          lp_classic_cps = c_cps;
          lp_classic_failed = c_failed;
          lp_classic_retries = c_retries;
          lp_erpc_cps = e_cps;
          lp_erpc_failed = e_failed;
          lp_erpc_retx = e_retx;
        })
      (losses ~quick)
  in
  (* Headline Null pair: one caller on one processor, the Bench suite. *)
  let tr_null_classic_us = latency_of ~processors:1 Classic null_call in
  let tr_null_erpc_us =
    latency_of ~processors:1 (Erpc_sys Erpc.default_params) null_call
  in
  (* Ablations: the Arcalis binding-context cache at 64 B, and the
     zero-copy handoff against a staged copy at the largest size. *)
  let tr_cache_off_us =
    latency_of ~processors (Erpc_sys Erpc.default_params) (echo_call 64)
  in
  let tr_cache_on_us =
    latency_of ~processors
      (Erpc_sys { Erpc.default_params with Erpc.binding_cache = true })
      (echo_call 64)
  in
  let big = if quick then 1_500 else 6_000 in
  let tr_zero_copy_us =
    latency_of ~processors (Erpc_sys Erpc.default_params) (echo_call big)
  in
  let tr_staged_copy_us =
    latency_of ~processors
      (Erpc_sys { Erpc.default_params with Erpc.zero_copy = false })
      (echo_call big)
  in
  {
    tr_seed = seed;
    tr_clients = clients;
    tr_horizon = horizon;
    tr_sizes;
    tr_loss;
    tr_null_classic_us;
    tr_null_erpc_us;
    tr_cache_off_us;
    tr_cache_on_us;
    tr_zero_copy_us;
    tr_staged_copy_us;
  }

let find_curve r name =
  List.find (fun c -> c.sc_system = name) r.tr_sizes

let speedup_at_64 r =
  let cps name =
    match (find_curve r name).sc_points with
    | p :: _ -> p.sp_cps
    | [] -> 0.0
  in
  let c = cps "netrpc" in
  if c > 0.0 then cps "erpc" /. c else 0.0

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Transport study: LRPC local vs Netrpc classic vs eRPC-style\n";
  Buffer.add_string buf
    (Printf.sprintf "  %d closed-loop callers, %.0f ms horizon, seed %Ld\n\n"
       r.tr_clients
       (Time.to_us r.tr_horizon /. 1000.0)
       r.tr_seed);
  let t =
    Table.create
      ~columns:
        [
          ("size B", Table.Right);
          ("system", Table.Left);
          ("latency us", Table.Right);
          ("calls/s", Table.Right);
        ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          Table.add_row t
            [
              string_of_int p.sp_bytes;
              c.sc_system;
              Printf.sprintf "%.1f" p.sp_latency_us;
              Printf.sprintf "%.0f" p.sp_cps;
            ])
        c.sc_points)
    r.tr_sizes;
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    (Printf.sprintf "\nNull RPC via Driver: classic %.1f us, eRPC %.1f us (%.1fx)\n"
       r.tr_null_classic_us r.tr_null_erpc_us
       (r.tr_null_classic_us /. Float.max 1e-9 r.tr_null_erpc_us));
  Buffer.add_string buf
    (Printf.sprintf "eRPC vs classic throughput at 64 B: %.1fx\n\n"
       (speedup_at_64 r));
  let lt =
    Table.create
      ~columns:
        [
          ("loss", Table.Right);
          ("classic c/s", Table.Right);
          ("failed", Table.Right);
          ("retries", Table.Right);
          ("erpc c/s", Table.Right);
          ("e-failed", Table.Right);
          ("retx", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row lt
        [
          Printf.sprintf "%.0f%%" (p.lp_loss *. 100.0);
          Printf.sprintf "%.0f" p.lp_classic_cps;
          string_of_int p.lp_classic_failed;
          string_of_int p.lp_classic_retries;
          Printf.sprintf "%.0f" p.lp_erpc_cps;
          string_of_int p.lp_erpc_failed;
          string_of_int p.lp_erpc_retx;
        ])
    r.tr_loss;
  Buffer.add_string buf (Table.to_string lt);
  Buffer.add_string buf
    (Printf.sprintf
       "\nArcalis binding cache at 64 B: %.1f -> %.1f us per call\n"
       r.tr_cache_off_us r.tr_cache_on_us);
  Buffer.add_string buf
    (Printf.sprintf "Zero-copy vs staged copy at the largest size: %.1f vs %.1f us\n"
       r.tr_zero_copy_us r.tr_staged_copy_us);
  Buffer.contents buf

let to_json r =
  let open Lrpc_util.Json in
  let size_point p =
    Obj
      [
        ("bytes", Int p.sp_bytes); ("latency_us", Fixed (2, p.sp_latency_us));
        ("cps", Fixed (1, p.sp_cps));
      ]
  in
  let system c =
    Obj
      [
        ("system", String c.sc_system);
        ("points", List (List.map size_point c.sc_points));
      ]
  in
  let loss_point p =
    Obj
      [
        ("loss", Fixed (3, p.lp_loss)); ("classic_cps", Fixed (1, p.lp_classic_cps));
        ("classic_failed", Int p.lp_classic_failed);
        ("classic_retries", Int p.lp_classic_retries);
        ("erpc_cps", Fixed (1, p.lp_erpc_cps)); ("erpc_failed", Int p.lp_erpc_failed);
        ("erpc_retransmits", Int p.lp_erpc_retx);
      ]
  in
  Obj
    [
      ("experiment", String "transport"); ("seed", Int64 r.tr_seed);
      ("clients", Int r.tr_clients);
      ("horizon_us", Fixed (0, Time.to_us r.tr_horizon));
      ("null_classic_us", Fixed (2, r.tr_null_classic_us));
      ("null_erpc_us", Fixed (2, r.tr_null_erpc_us));
      ("erpc_vs_classic_speedup_64b", Fixed (3, speedup_at_64 r));
      ("cache_off_us", Fixed (2, r.tr_cache_off_us));
      ("cache_on_us", Fixed (2, r.tr_cache_on_us));
      ("zero_copy_us", Fixed (2, r.tr_zero_copy_us));
      ("staged_copy_us", Fixed (2, r.tr_staged_copy_us));
      ("systems", List (List.map system r.tr_sizes));
      ("loss", List (List.map loss_point r.tr_loss));
    ]
