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
  tr_null_classic_us : float;  (** Driver.make_netrpc, classic transport *)
  tr_null_erpc_us : float;  (** Driver.make_netrpc, eRPC transport *)
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

(* One measurement world: [clients] caller domains on machine 0, the
   echo server local (machine 0, LRPC) or remote (machine 1) behind
   the selected transport, one binding per caller domain. *)
type system = Lrpc | Classic | Erpc_sys of Erpc.params

let world ?install_faults ~processors ~clients system =
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
        ignore (Api.export rt ~domain:server iface ~impls:echo_local);
        Array.map
          (fun d -> Api.import rt ~domain:d ~interface:"Transport")
          clients_d
    | Classic ->
        let server = Kernel.create_domain kernel ~machine:1 ~name:"tr-server" in
        Array.map
          (fun client ->
            Netrpc.import_remote rt ~client ~server iface ~impls:echo_remote)
          clients_d
    | Erpc_sys params ->
        let server = Kernel.create_domain kernel ~machine:1 ~name:"tr-server" in
        Array.map
          (fun client ->
            Erpc.import_remote ~params rt ~client ~server iface
              ~impls:echo_remote)
          clients_d
  in
  (b, kernel, rt, clients_d, bindings)

let check_failures engine what =
  match Engine.failures engine with
  | [] -> ()
  | (th, exn) :: _ ->
      failwith
        (Printf.sprintf "%s %s died: %s" what (Engine.thread_name th)
           (Printexc.to_string exn))

(* Steady-state latency: one caller, fault-free. *)
let latency_of ?(warmup = 3) ?(calls = 20) ~processors system ~bytes =
  let b, kernel, rt, clients_d, bindings =
    world ~processors ~clients:1 system
  in
  let engine = b.Driver.bt_engine in
  let args = [ V.bytes (Bytes.create bytes) ] in
  let out = ref 0.0 in
  ignore
    (Kernel.spawn kernel clients_d.(0) ~name:"tr-latency" (fun () ->
         for _ = 1 to warmup do
           ignore (Api.call rt bindings.(0) ~proc:"echo" args)
         done;
         let t0 = Engine.now engine in
         for _ = 1 to calls do
           ignore (Api.call rt bindings.(0) ~proc:"echo" args)
         done;
         out := Time.to_us (Time.sub (Engine.now engine) t0) /. float_of_int calls));
  Engine.run engine;
  check_failures engine "latency caller";
  !out

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
  check_failures engine "throughput caller";
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
            let lat = latency_of ~processors system ~bytes in
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
  (* Headline Null pair through the Driver.Config transport knob. *)
  let null_of transport =
    let w =
      Driver.make_netrpc
        ~config:
          {
            Driver.Config.default with
            Driver.Config.net_transport = transport;
          }
        ()
    in
    Driver.netrpc_latency ~warmup:3 ~calls:20 w ~proc:"null" ~args:[]
  in
  let tr_null_classic_us = null_of Driver.Config.Classic in
  let tr_null_erpc_us = null_of (Driver.Config.Erpc Erpc.default_params) in
  (* Ablations: the Arcalis binding-context cache at 64 B, and the
     zero-copy handoff against a staged copy at the largest size. *)
  let tr_cache_off_us =
    latency_of ~processors (Erpc_sys Erpc.default_params) ~bytes:64
  in
  let tr_cache_on_us =
    latency_of ~processors
      (Erpc_sys { Erpc.default_params with Erpc.binding_cache = true })
      ~bytes:64
  in
  let big = if quick then 1_500 else 6_000 in
  let tr_zero_copy_us =
    latency_of ~processors (Erpc_sys Erpc.default_params) ~bytes:big
  in
  let tr_staged_copy_us =
    latency_of ~processors
      (Erpc_sys { Erpc.default_params with Erpc.zero_copy = false })
      ~bytes:big
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
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"experiment\": \"transport\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %Ld,\n" r.tr_seed);
  Buffer.add_string buf (Printf.sprintf "  \"clients\": %d,\n" r.tr_clients);
  Buffer.add_string buf
    (Printf.sprintf "  \"horizon_us\": %.0f,\n" (Time.to_us r.tr_horizon));
  Buffer.add_string buf
    (Printf.sprintf "  \"null_classic_us\": %.2f,\n" r.tr_null_classic_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"null_erpc_us\": %.2f,\n" r.tr_null_erpc_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"erpc_vs_classic_speedup_64b\": %.3f,\n" (speedup_at_64 r));
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_off_us\": %.2f,\n  \"cache_on_us\": %.2f,\n"
       r.tr_cache_off_us r.tr_cache_on_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"zero_copy_us\": %.2f,\n  \"staged_copy_us\": %.2f,\n"
       r.tr_zero_copy_us r.tr_staged_copy_us);
  Buffer.add_string buf "  \"systems\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"system\": \"%s\", \"points\": [" c.sc_system);
      List.iteri
        (fun j p ->
          Buffer.add_string buf
            (Printf.sprintf "%s{\"bytes\": %d, \"latency_us\": %.2f, \"cps\": %.1f}"
               (if j > 0 then ", " else "")
               p.sp_bytes p.sp_latency_us p.sp_cps))
        c.sc_points;
      Buffer.add_string buf
        (Printf.sprintf "]}%s\n" (if i < List.length r.tr_sizes - 1 then "," else "")))
    r.tr_sizes;
  Buffer.add_string buf "  ],\n  \"loss\": [\n";
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"loss\": %.3f, \"classic_cps\": %.1f, \"classic_failed\": %d, \
            \"classic_retries\": %d, \"erpc_cps\": %.1f, \"erpc_failed\": %d, \
            \"erpc_retransmits\": %d}%s\n"
           p.lp_loss p.lp_classic_cps p.lp_classic_failed p.lp_classic_retries
           p.lp_erpc_cps p.lp_erpc_failed p.lp_erpc_retx
           (if i < List.length r.tr_loss - 1 then "," else "")))
    r.tr_loss;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
