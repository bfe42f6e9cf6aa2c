(* Per-layer primitives, each timed alone through its public function:
   the host cost of one engine delay, one kernel trap, one Null LRPC...
   With the traced counts they split a workload's host time the way
   the paper's Table 5 splits a call. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Heap = Lrpc_sim.Heap
module Cost_model = Lrpc_sim.Cost_model
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module V = Lrpc_idl.Value
module I = Lrpc_idl.Types
module Metrics = Lrpc_obs.Metrics
module Qsketch = Lrpc_util.Qsketch
module Prng = Lrpc_util.Prng
module Driver = Lrpc_workload.Driver

(* A primitive prepares its state and returns [batch]: [batch n] does
   [n] operations and returns the host ns and the minor words they
   took, set-up excluded. *)
type t = { name : string; make : unit -> int -> int * float }

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  f ();
  let t1 = Clock.now_ns () in
  (t1 - t0, Gc.minor_words () -. w0)

(* Simulated-thread primitives: a fresh one-CPU machine per batch whose
   only thread performs the operation [n] times; [Engine.run] alone is
   timed. *)
let in_thread build n =
  let engine, body = build () in
  ignore (Engine.spawn engine ~domain:1 (fun () -> for _ = 1 to n do body () done));
  timed (fun () -> Engine.run engine)

let bare () = Engine.create ~processors:1 ~domains:1 Cost_model.cvax_firefly

let engine_delay () =
  in_thread (fun () ->
      let e = bare () in
      (e, fun () -> Engine.delay e (Time.ns 10)))

let engine_timer_wake () =
  in_thread (fun () ->
      let e = bare () in
      ( e,
        fun () ->
          let self = Engine.self e in
          ignore (Engine.at e (Engine.now e + 10) (fun () -> Engine.wake e self));
          Engine.block e ))

let context_switch () =
  in_thread (fun () ->
      let e = bare () and d = ref 1 in
      ( e,
        fun () ->
          d := 3 - !d;
          Engine.switch_self_context e ~domain:!d ))

let kernel_trap () =
  in_thread (fun () ->
      let e = bare () in
      let k = Kernel.boot e in
      (e, fun () -> Kernel.trap k))

let config = { Driver.Config.default with Driver.Config.engine_domains = Some 1 }

let lrpc_null_call () n =
  let w = Driver.make_lrpc ~config () in
  let b = Api.import w.Driver.lw_rt ~domain:w.Driver.lw_client ~interface:"Bench" in
  ignore
    (Kernel.spawn w.Driver.lw_kernel w.Driver.lw_client (fun () ->
         for _ = 1 to n do
           ignore (Api.call w.Driver.lw_rt b ~proc:"null" [])
         done));
  timed (fun () -> Driver.run_all w.Driver.lw_engine)

let erpc_call_64b () n =
  let b = Driver.boot config in
  let server = Kernel.create_domain b.Driver.bt_kernel ~machine:1 ~name:"server" in
  let client = Kernel.create_domain b.Driver.bt_kernel ~name:"client" in
  let binding =
    Lrpc_net.Erpc.import_remote b.Driver.bt_rt ~client ~server Workloads.echo_iface
      ~impls:Workloads.echo_impls
  in
  let args = [ V.bytes (Bytes.make 64 'x') ] in
  ignore
    (Kernel.spawn b.Driver.bt_kernel client (fun () ->
         for _ = 1 to n do
           ignore (Api.call b.Driver.bt_rt binding ~proc:"echo" args)
         done));
  timed (fun () -> Driver.run_all b.Driver.bt_engine)

(* Host-only primitives: one structure, [n] operations per batch. *)
let loop body n = timed (fun () -> for i = 1 to n do body i done)

let heap_push_take () =
  let h = Heap.create () and st = Random.State.make [| 7 |] in
  let gaps = Array.init 4096 (fun _ -> 1 + Random.State.int st 100_000) in
  for i = 0 to 4095 do
    Heap.push h ~time:gaps.(i) i
  done;
  loop (fun i ->
      let t = Heap.top_time h in
      let x = Heap.take h in
      Heap.push h ~time:(t + gaps.(i land 4095)) x)

let value_codec () =
  let ty = I.Fixed_bytes 200 and v = V.bytes (Bytes.make 200 'x') in
  loop (fun _ -> ignore (Sys.opaque_identity (V.decode ty (V.encode ty v) ~off:0)))

let metrics_counter () =
  let c = Metrics.counter (Metrics.create ()) "bench.counter" in
  loop (fun _ -> Metrics.Counter.incr c)

let metrics_histo () =
  let h = Metrics.histogram (Metrics.create ()) "bench.histo" in
  loop (fun i -> Metrics.Histo.observe h (i land 4095))

let qsketch_add () =
  let q = Qsketch.create () and st = Random.State.make [| 7 |] in
  let xs = Array.init 4096 (fun _ -> Random.State.int st 1_000_000) in
  loop (fun i -> Qsketch.add q xs.(i land 4095))

let prng_exponential () =
  let rng = Prng.create ~seed:7L in
  loop (fun _ -> ignore (Sys.opaque_identity (Prng.exponential rng ~mean:100.0)))

let all =
  [
    (* sim *)
    { name = "engine_delay"; make = engine_delay };
    { name = "engine_timer_wake"; make = engine_timer_wake };
    { name = "heap_push_take.d4096"; make = heap_push_take };
    { name = "context_switch"; make = context_switch };
    (* kernel, idl, core, net *)
    { name = "kernel_trap"; make = kernel_trap };
    { name = "value_codec_200B"; make = value_codec };
    { name = "lrpc_null_call"; make = lrpc_null_call };
    { name = "erpc_call_64B"; make = erpc_call_64b };
    (* obs, util *)
    { name = "metrics_counter"; make = metrics_counter };
    { name = "metrics_histo"; make = metrics_histo };
    { name = "qsketch_add"; make = qsketch_add };
    { name = "prng_exponential"; make = prng_exponential };
  ]

type result = { ns : float; words : float }

(* Batches of 2-4 ms until [budget_ns] is spent (at least five); the
   median batch, normalized by the reference kernel measured around
   them. Words per operation come from one batch: they are exact. *)
let measure ~budget_ns p =
  let batch = p.make () in
  let n = ref 256 in
  while fst (batch !n) < 2_000_000 && !n < 1 lsl 24 do
    n := !n * 2
  done;
  let words = snd (batch !n) /. float_of_int !n in
  let t0 = Clock.now_ns () and samples = ref [] and refs = ref [] in
  while List.length !samples < 5 || Clock.now_ns () - t0 < budget_ns do
    samples := (float_of_int (fst (batch !n)) /. float_of_int !n) :: !samples;
    refs := (float_of_int (Clock.reference_ns ()) /. 1000.0) :: !refs
  done;
  let f = Clock.factor ~ref_us:(Clock.median !refs) in
  { ns = f *. Clock.median !samples; words }
