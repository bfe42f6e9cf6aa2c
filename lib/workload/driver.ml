module Engine = Lrpc_sim.Engine
module Metrics = Lrpc_obs.Metrics
module Trace = Lrpc_obs.Trace
module Time = Lrpc_sim.Time
module Cost_model = Lrpc_sim.Cost_model
module Kernel = Lrpc_kernel.Kernel
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Api = Lrpc_core.Api
module Server_ctx = Lrpc_core.Server_ctx
module Mpass = Lrpc_msgrpc.Mpass
module Profile = Lrpc_msgrpc.Profile

type test = { test_name : string; proc : string; args : V.t list }

let four_tests () =
  [
    { test_name = "Null"; proc = "null"; args = [] };
    { test_name = "Add"; proc = "add"; args = [ V.int 1; V.int 2 ] };
    { test_name = "BigIn"; proc = "big_in"; args = [ V.bytes (Bytes.make 200 'a') ] };
    {
      test_name = "BigInOut";
      proc = "big_in_out";
      args = [ V.bytes (Bytes.make 200 'a') ];
    };
  ]

let bench_interface =
  I.interface "Bench"
    [
      I.proc "null" [];
      I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
      I.proc "big_in" [ I.param "buf" (I.Fixed_bytes 200) ];
      I.proc "big_in_out" [ I.param ~mode:I.In_out "buf" (I.Fixed_bytes 200) ];
    ]

let bench_impls =
  [
    ("null", fun _ctx -> []);
    ( "add",
      fun ctx ->
        match Server_ctx.args ctx with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> invalid_arg "add" );
    ("big_in", fun _ctx -> []);
    ( "big_in_out",
      fun ctx ->
        match Server_ctx.arg ctx 0 with
        | V.Bytes b -> [ V.bytes b ]
        | _ -> invalid_arg "big_in_out" );
  ]

let mpass_bench_impls =
  [
    ("null", fun _ -> []);
    ( "add",
      fun args ->
        match args with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> invalid_arg "add" );
    ("big_in", fun _ -> []);
    ( "big_in_out",
      fun args ->
        match args with [ V.Bytes b ] -> [ V.bytes b ] | _ -> invalid_arg "big_in_out" );
  ]

(* --- unified construction ----------------------------------------------- *)

module Config = struct
  type t = {
    cost_model : Cost_model.t;
    processors : int;
    engine_domains : int option;
    runtime : Lrpc_core.Rt.config option;
    domain_caching : bool;
    install_faults : (Api.t -> unit) option;
    trace_capacity : int option;
    admission : Lrpc_core.Rt.admission option;
  }

  let default =
    {
      cost_model = Cost_model.cvax_firefly;
      processors = 1;
      engine_domains = None;
      runtime = None;
      domain_caching = false;
      install_faults = None;
      trace_capacity = None;
      admission = None;
    }
end

type boot = {
  bt_engine : Engine.t;
  bt_kernel : Kernel.t;
  bt_rt : Api.t;
  bt_tracer : Trace.t option;
}

let boot (c : Config.t) =
  let bt_engine =
    Engine.create ~processors:c.Config.processors
      ?domains:c.Config.engine_domains c.Config.cost_model
  in
  let bt_tracer =
    Option.map
      (fun capacity -> Trace.create ~capacity ())
      c.Config.trace_capacity
  in
  (match bt_tracer with
  | None -> ()
  | Some tracer -> Engine.set_tracer bt_engine (Some tracer));
  let bt_kernel = Kernel.boot bt_engine in
  Kernel.set_domain_caching bt_kernel c.Config.domain_caching;
  let bt_rt = Api.init ?config:c.Config.runtime bt_kernel in
  (match c.Config.admission with
  | None -> ()
  | Some a -> Api.set_admission bt_rt (Some a));
  (match c.Config.install_faults with
  | None -> ()
  | Some install -> install bt_rt);
  { bt_engine; bt_kernel; bt_rt; bt_tracer }

(* --- LRPC world ---------------------------------------------------------- *)

type lrpc_world = {
  lw_engine : Engine.t;
  lw_kernel : Kernel.t;
  lw_rt : Api.t;
  lw_server : Lrpc_kernel.Pdomain.t;
  lw_client : Lrpc_kernel.Pdomain.t;
  lw_tracer : Trace.t option;
}

let make_lrpc ?(config = Config.default) () =
  let b = boot config in
  let lw_server = Kernel.create_domain b.bt_kernel ~name:"bench-server" in
  let lw_client = Kernel.create_domain b.bt_kernel ~name:"bench-client" in
  ignore
    (Api.export b.bt_rt ~domain:lw_server bench_interface ~impls:bench_impls);
  {
    lw_engine = b.bt_engine;
    lw_kernel = b.bt_kernel;
    lw_rt = b.bt_rt;
    lw_server;
    lw_client;
    lw_tracer = b.bt_tracer;
  }

let run_all engine =
  Engine.run engine;
  Engine.check_failures engine

let lrpc_latency ?(warmup = 5) ?(calls = 200) w ~proc ~args =
  let out = ref 0.0 in
  ignore
    (Kernel.spawn w.lw_kernel w.lw_client ~name:"latency-driver" (fun () ->
         let b = Api.import w.lw_rt ~domain:w.lw_client ~interface:"Bench" in
         for _ = 1 to warmup do
           ignore (Api.call w.lw_rt b ~proc args)
         done;
         let t0 = Engine.now w.lw_engine in
         for _ = 1 to calls do
           ignore (Api.call w.lw_rt b ~proc args)
         done;
         out :=
           Time.to_us (Time.sub (Engine.now w.lw_engine) t0)
           /. float_of_int calls));
  run_all w.lw_engine;
  !out

type scale_stats = {
  ss_cps : float;
  ss_steals : int array;
  ss_steals_tagged : int array;
  ss_steals_near : int;
  ss_steals_far : int;
  ss_spin_us : float array;
  ss_lock_contended : int;
  ss_shard_contended : int;
}

(* Post-run reads only: collecting the stats perturbs nothing, so the
   plain throughput entry points below share the same simulations. *)
let scale_stats_of engine ~count ~horizon =
  let cpus = Engine.cpus engine in
  let snap = Metrics.snapshot (Engine.metrics engine) in
  let summed prefix =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
      0 snap.Metrics.counters
  in
  {
    ss_cps = float_of_int count /. Time.to_s horizon;
    ss_steals = Array.map (fun c -> c.Engine.steals) cpus;
    ss_steals_tagged = Array.map (fun c -> c.Engine.steals_tagged) cpus;
    ss_steals_near = Engine.total_steals_near engine;
    ss_steals_far = Engine.total_steals_far engine;
    ss_spin_us = Array.map (fun c -> Time.to_us c.Engine.lock_spin) cpus;
    ss_lock_contended = summed "sim.lock_contended";
    ss_shard_contended = summed "lrpc.astack_shard_contended";
  }

let lrpc_scale ?home ?(yield_between = false) ?(config = Config.default)
    ~clients ~horizon () =
  let processors = config.Config.processors in
  let home_of =
    match home with Some f -> f | None -> fun i -> i mod processors
  in
  let b = boot config in
  let engine = b.bt_engine and kernel = b.bt_kernel and rt = b.bt_rt in
  let server = Kernel.create_domain kernel ~name:"server" in
  ignore
    (Api.export rt ~domain:server bench_interface ~impls:bench_impls);
  let count = ref 0 in
  for i = 0 to clients - 1 do
    let client =
      Kernel.create_domain kernel ~name:(Printf.sprintf "client%d" i)
    in
    ignore
      (Kernel.spawn kernel client ~home:(home_of i)
         ~name:(Printf.sprintf "caller%d" i) (fun () ->
           let b = Api.import rt ~domain:client ~interface:"Bench" in
           while true do
             ignore (Api.call rt b ~proc:"null" []);
             incr count;
             (* Re-enter the caller's run queue between calls: the
                steady state keeps redistributing work, so stealing
                stays live instead of being a one-time startup effect —
                the regime the placement-quality study measures. *)
             if yield_between then Engine.yield engine
           done))
  done;
  Engine.run ~until:horizon engine;
  Engine.check_failures ~what:"caller" engine;
  scale_stats_of engine ~count:!count ~horizon

let lrpc_throughput ?config ~clients ~horizon () =
  (lrpc_scale ?config ~clients ~horizon ()).ss_cps

(* --- message-passing baseline -------------------------------------------- *)

type mpass_world = {
  mw_engine : Engine.t;
  mw_kernel : Kernel.t;
  mw_server : Mpass.server;
  mw_client : Lrpc_kernel.Pdomain.t;
  mw_tracer : Trace.t option;
}

let make_mpass ?(config = Config.default) profile =
  (* The profile carries the machine: its [hw] is the cost model. *)
  let config = { config with Config.cost_model = profile.Profile.hw } in
  let b = boot config in
  let sd = Kernel.create_domain b.bt_kernel ~name:"server" in
  let mw_client = Kernel.create_domain b.bt_kernel ~name:"client" in
  let mw_server =
    Mpass.create_server b.bt_kernel profile ~domain:sd bench_interface
      ~impls:mpass_bench_impls
  in
  {
    mw_engine = b.bt_engine;
    mw_kernel = b.bt_kernel;
    mw_server;
    mw_client;
    mw_tracer = b.bt_tracer;
  }

let mpass_latency ?(warmup = 5) ?(calls = 200) ?config profile ~proc ~args =
  let w = make_mpass ?config profile in
  let out = ref 0.0 in
  ignore
    (Kernel.spawn w.mw_kernel w.mw_client ~name:"latency-driver" (fun () ->
         let conn = Mpass.connect w.mw_server ~client:w.mw_client in
         for _ = 1 to warmup do
           ignore (Mpass.call conn ~proc args)
         done;
         let t0 = Engine.now w.mw_engine in
         for _ = 1 to calls do
           ignore (Mpass.call conn ~proc args)
         done;
         out :=
           Time.to_us (Time.sub (Engine.now w.mw_engine) t0)
           /. float_of_int calls));
  run_all w.mw_engine;
  !out

let mpass_scale ?(config = Config.default) profile ~clients ~horizon =
  let processors = config.Config.processors in
  let profile =
    { profile with Profile.receivers = max clients profile.Profile.receivers }
  in
  let w = make_mpass ~config profile in
  let engine = w.mw_engine and kernel = w.mw_kernel in
  let count = ref 0 in
  for i = 0 to clients - 1 do
    let client =
      Kernel.create_domain kernel ~name:(Printf.sprintf "client%d" i)
    in
    ignore
      (Kernel.spawn kernel client ~home:(i mod processors)
         ~name:(Printf.sprintf "caller%d" i) (fun () ->
           let conn = Mpass.connect w.mw_server ~client in
           while true do
             ignore (Mpass.call conn ~proc:"null" []);
             incr count
           done))
  done;
  Engine.run ~until:horizon engine;
  Engine.check_failures ~what:"caller" engine;
  scale_stats_of engine ~count:!count ~horizon

let mpass_throughput ?config profile ~clients ~horizon =
  (mpass_scale ?config profile ~clients ~horizon).ss_cps
