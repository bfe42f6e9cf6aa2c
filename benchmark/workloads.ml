(* The four workloads. Each builds a fresh simulated world through the
   public API, runs it to a fixed simulated horizon and returns the
   material its simulated digest is taken over: the machine's metrics
   snapshot, the completed and failed call counts, and simulated
   latency quantiles. The final [Engine.now] is left out on purpose —
   the sampler's last timer moves it.

   Every world is one simulated machine on one host domain
   ([engine_domains = 1]); inputs come from the seed only. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module V = Lrpc_idl.Value
module I = Lrpc_idl.Types
module Metrics = Lrpc_obs.Metrics
module Qsketch = Lrpc_util.Qsketch
module Driver = Lrpc_workload.Driver
module Ol = Lrpc_workload.Openloop
module Erpc = Lrpc_net.Erpc
module Plan = Lrpc_fault.Plan

type counters = {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;  (** calls that returned [Error _] *)
  mutable wrong : int;  (** calls whose results differ from the expected *)
}

type ctx = {
  seed : int;
  horizon : Time.t;
  trace_capacity : int option;
  on_boot : Driver.boot -> unit;  (** right after [Driver.boot] *)
  mark : unit -> unit;
      (** set-up phase boundaries: inputs generated (set-up starts),
          then the end of boot, of domains and of bind *)
  c : counters;
}

type t = {
  name : string;
  horizon : Time.t;  (** one timed repetition, about 2.5 s of host time *)
  run : ctx -> string;
}

let config (ctx : ctx) ~processors =
  {
    Driver.Config.default with
    Driver.Config.processors;
    engine_domains = Some 1;
    trace_capacity = ctx.trace_capacity;
  }

let check_threads engine =
  match Engine.failures engine with
  | [] -> ()
  | (th, exn) :: _ ->
      failwith
        (Printf.sprintf "simulated thread %s died: %s" (Engine.thread_name th)
           (Printexc.to_string exn))

let material engine c extra =
  String.concat "\n"
    (Metrics.to_json (Metrics.snapshot (Engine.metrics engine))
    :: string_of_int c.completed :: string_of_int c.failed :: extra)

let sketch_material q =
  List.map string_of_int
    [ Qsketch.count q; Qsketch.sum q; Qsketch.p50 q; Qsketch.p99 q; Qsketch.p999 q ]

(* One closed-loop call: simulated latency into [lat], results checked
   against [expect]. *)
let closed_call c engine lat call expect =
  c.attempted <- c.attempted + 1;
  let t0 = Engine.now engine in
  match call () with
  | Ok out ->
      Qsketch.add lat (Engine.now engine - t0);
      c.completed <- c.completed + 1;
      if not (List.equal V.equal out expect) then c.wrong <- c.wrong + 1
  | Error _ -> c.failed <- c.failed + 1

let closed_loop (ctx : ctx) engine =
  Engine.run ~until:ctx.horizon engine;
  check_threads engine

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Inputs are a pure function of the seed, made once per seed: repeated
   set-up builds then time the build alone, with no input generation
   (and its garbage) between them. A run that changed its inputs would
   break the every-repetition digest check. *)
let once_per_seed f =
  let made = Hashtbl.create 1 in
  fun seed ->
    match Hashtbl.find_opt made seed with
    | Some x -> x
    | None ->
        let x = f seed in
        Hashtbl.replace made seed x;
        x

(* A seeded permutation of [0, n). *)
let shuffled seed n =
  let a = Array.init n Fun.id and st = Random.State.make [| seed; n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- lrpc_serial: the paper's Table 4 loop --------------------------------- *)

(* The four tests in seeded order: blocks of four, each block a
   shuffle of Null/Add/BigIn/BigInOut, so the mix is exactly even. *)
let serial_schedule =
  once_per_seed @@ fun seed ->
  let st = Random.State.make [| seed |] in
  Array.concat
    (List.init 1024 (fun _ ->
         Array.map
           (function
             | 0 -> ("null", [], [])
             | 1 ->
                 let a = Random.State.int st 1_000_000
                 and b = Random.State.int st 1_000_000 in
                 ("add", [ V.int a; V.int b ], [ V.int (a + b) ])
             | 2 -> ("big_in", [ V.bytes (random_bytes st 200) ], [])
             | _ ->
                 let b = random_bytes st 200 in
                 ("big_in_out", [ V.bytes b ], [ V.bytes (Bytes.copy b) ]))
           (shuffled (Random.State.bits st) 4)))

let lrpc_serial (ctx : ctx) =
  let sched = serial_schedule ctx.seed in
  ctx.mark ();
  let b = Driver.boot (config ctx ~processors:1) in
  ctx.on_boot b;
  ctx.mark ();
  let engine = b.Driver.bt_engine and k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  let client = Kernel.create_domain k ~name:"client" in
  ctx.mark ();
  ignore
    (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let binding = Api.import rt ~domain:client ~interface:"Bench" in
  ctx.mark ();
  let lat = Qsketch.create () in
  ignore
    (Kernel.spawn k client ~name:"caller" (fun () ->
         let i = ref 0 in
         while true do
           let proc, args, expect = sched.(!i land (Array.length sched - 1)) in
           incr i;
           closed_call ctx.c engine lat
             (fun () -> Api.call_result rt binding ~proc args)
             expect
         done));
  closed_loop ctx engine;
  material engine ctx.c (sketch_material lat)

(* --- lrpc_scale256: the top rung of the scaling study ------------------------ *)

let scale_homes = once_per_seed (fun seed -> shuffled seed 256)

let lrpc_scale256 (ctx : ctx) =
  let n = 256 in
  (* Balanced pinning, one caller per CPU; the seed only picks which
     caller lands on which CPU. *)
  let homes = scale_homes ctx.seed in
  ctx.mark ();
  let b = Driver.boot (config ctx ~processors:n) in
  ctx.on_boot b;
  ctx.mark ();
  let engine = b.Driver.bt_engine and k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  let clients =
    Array.init n (fun i -> Kernel.create_domain k ~name:(Printf.sprintf "client%d" i))
  in
  ctx.mark ();
  ignore
    (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let bindings =
    Array.map (fun d -> Api.import rt ~domain:d ~interface:"Bench") clients
  in
  ctx.mark ();
  let lat = Qsketch.create () in
  Array.iteri
    (fun i client ->
      ignore
        (Kernel.spawn k client ~home:homes.(i)
           ~name:(Printf.sprintf "caller%d" i)
           (fun () ->
             while true do
               closed_call ctx.c engine lat
                 (fun () -> Api.call_result rt bindings.(i) ~proc:"null" [])
                 []
             done)))
    clients;
  closed_loop ctx engine;
  material engine ctx.c (sketch_material lat)

(* --- openloop_lrpc: the open-loop study's LRPC arm, just past its knee -------- *)

let ol_sessions = 2000
let ol_domains = 200

let openloop_lrpc (ctx : ctx) =
  ctx.mark ();
  let b = Driver.boot (config ctx ~processors:4) in
  ctx.on_boot b;
  ctx.mark ();
  let engine = b.Driver.bt_engine and k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  let domains =
    Array.init ol_domains (fun d ->
        Kernel.create_domain k ~name:(Printf.sprintf "client%d" d))
  in
  ctx.mark ();
  ignore
    (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let bindings =
    Array.map (fun d -> Api.import rt ~domain:d ~interface:"Bench") domains
  in
  ctx.mark ();
  let c = ctx.c in
  let cfg =
    {
      Ol.ol_seed = Int64.of_int ctx.seed;
      ol_sessions;
      ol_offered_cps = 20_000.0;
      ol_process = Ol.Poisson;
      ol_horizon = ctx.horizon;
      (* 200 ms of the full 6.2 s horizon, in proportion when shorter *)
      ol_warmup = ctx.horizon / 31;
    }
  in
  let r =
    Ol.run cfg ~engine
      ~spawn:(fun ~session body ->
        ignore
          (Kernel.spawn k
             domains.(session mod ol_domains)
             ~home:(session mod 4)
             ~name:(Printf.sprintf "session%d" session)
             body))
      ~call:(fun ~session ~lateness_us:_ ->
        c.attempted <- c.attempted + 1;
        match Api.call_result rt bindings.(session mod ol_domains) ~proc:"null" [] with
        | Ok out ->
            c.completed <- c.completed + 1;
            if out <> [] then c.wrong <- c.wrong + 1;
            `Ok
        | Error _ ->
            c.failed <- c.failed + 1;
            `Shed)
  in
  material engine c
    (List.map string_of_int [ r.Ol.ol_issued; r.Ol.ol_completed; r.Ol.ol_shed ]
    @ sketch_material r.Ol.ol_sketch)

(* --- erpc_lossy: the packet-granular transport under loss and ECN ----------- *)

let echo_iface =
  I.interface "Echo"
    [ I.proc ~result:(I.Var_bytes 8192) "echo" [ I.param "b" (I.Var_bytes 8192) ] ]

let echo_impls =
  [ ("echo", function [ V.Bytes b ] -> [ V.bytes b ] | _ -> invalid_arg "echo") ]

(* Twelve callers echo 64 B, four echo 6000 B (five packets each way);
   the seed picks which four and fills the payloads. *)
let erpc_inputs =
  once_per_seed @@ fun seed ->
  let st = Random.State.make [| seed |] in
  let order = shuffled seed 16 in
  let payload slot = random_bytes st (if slot < 4 then 6000 else 64) in
  (order, Array.init 16 payload)

let erpc_lossy (ctx : ctx) =
  let n = 16 in
  let plan =
    Plan.make
      { Plan.none with Plan.seed = Int64.of_int ctx.seed; pkt_drop = 0.01; pkt_ecn = 0.01 }
  in
  let order, payloads = erpc_inputs ctx.seed in
  ctx.mark ();
  let b =
    Driver.boot
      { (config ctx ~processors:4) with Driver.Config.install_faults = Some (Plan.install plan) }
  in
  ctx.on_boot b;
  ctx.mark ();
  let engine = b.Driver.bt_engine and k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~machine:1 ~name:"server" in
  let clients =
    Array.init n (fun i -> Kernel.create_domain k ~name:(Printf.sprintf "client%d" i))
  in
  ctx.mark ();
  let bindings =
    Array.map
      (fun client -> Erpc.import_remote rt ~client ~server echo_iface ~impls:echo_impls)
      clients
  in
  ctx.mark ();
  let lat = Qsketch.create () in
  Array.iteri
    (fun slot i ->
      let payload = payloads.(slot) in
      let args = [ V.bytes payload ] and expect = [ V.bytes (Bytes.copy payload) ] in
      ignore
        (Kernel.spawn k clients.(i) ~home:(i mod 4)
           ~name:(Printf.sprintf "caller%d" i)
           (fun () ->
             while true do
               closed_call ctx.c engine lat
                 (fun () -> Api.call_result rt bindings.(i) ~proc:"echo" args)
                 expect
             done)))
    order;
  closed_loop ctx engine;
  material engine ctx.c (sketch_material lat)

(* Why these four: see benchmark/README.md. Each stresses other layers,
   so a speed-up in one layer shows on one workload and not on another. *)
let all =
  [
    { name = "lrpc_serial"; horizon = Time.s 60; run = lrpc_serial };
    { name = "lrpc_scale256"; horizon = Time.ms 500; run = lrpc_scale256 };
    { name = "openloop_lrpc"; horizon = Time.ms 6200; run = openloop_lrpc };
    { name = "erpc_lossy"; horizon = Time.s 15; run = erpc_lossy };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --quick runs a fiftieth of the horizon; the per-layer passes run a
   tenth of it (the whole quick horizon under --quick). *)
let horizon w ~quick = if quick then w.horizon / 50 else w.horizon
let layer_horizon w ~quick = if quick then w.horizon / 50 else w.horizon / 10

let default_seed = 1989

(* Simulated digests at the default seed: (workload, full, quick). A
   change that moves one changed what the simulator computes. *)
let pins =
  [
    ("lrpc_serial", ("3d95ac7d2953099ff4f166bfe24824f2", "5c67d8e8c3c1ab2cdfbe4a31fc80ff89"));
    ("lrpc_scale256", ("1e761776f4f2e990dd95aae4e865ae94", "f5a66ae8a53fa83aae173cb65122e205"));
    ("openloop_lrpc", ("c8781ac08689caf7aaa8a3e306e8ea7a", "ea08d7692e30667c2c60b2d71ab6ad99"));
    ("erpc_lossy", ("bd3de1e6455af85fd6a33953e3299f21", "ffca6711af02e3daeee79187d4f9fcf5"));
  ]

let pinned w ~quick =
  match List.assoc_opt w.name pins with
  | Some (full, q) -> if quick then q else full
  | None -> ""
