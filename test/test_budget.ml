(* Allocation and event budgets per simulated call.

   Four small fixed worlds run a fixed number of calls each: the
   paper's serial Null/Add/BigIn/BigInOut loop on one CPU, sixteen
   Null callers on sixteen CPUs, an open-loop slice, and eRPC echoes
   under seeded packet drop. Words allocated per call (Gc.minor_words
   over the run, untraced) must stay at or under a committed budget;
   the pushes on each of the engine's two heaps must match exactly, as
   must slices and dispatches (counted from a tracer on a second,
   identical run); and the processors' busy time must equal the time
   charged to categories, to the nanosecond. All of these are
   deterministic: the same build gives the same figures on every run
   and every machine.

   Minor words depend on the compiler, so the budgets are pinned for
   one OCaml version and fail, naming the version, on any other. A
   budget moves only by a recorded edit with lrpcbench evidence, never
   to make a regression pass. *)

open Lrpc_sim
open Lrpc_kernel
open Lrpc_core
module Driver = Lrpc_workload.Driver
module Ol = Lrpc_workload.Openloop
module Erpc = Lrpc_net.Erpc
module Plan = Lrpc_fault.Plan
module Trace = Lrpc_obs.Trace
module Event = Lrpc_obs.Event
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

(* The toolchain the budgets were measured with. *)
let pinned_ocaml = "5.1.1"

(* A world: [build ~trace] boots it (with a tracer of that capacity
   when given) and returns the boot and a runner that runs the engine
   to completion and returns the calls completed. *)
type world = {
  name : string;
  build : trace:int option -> Driver.boot * (unit -> int);
  budget_words : int;  (** words per call, rounded up *)
  slices : int;  (** charged slices over the whole run, exactly *)
  dispatches : int;  (** dispatches over the whole run, exactly *)
  run_pushes : int;  (** resumptions pushed over the whole run, exactly *)
  timer_pushes : int;  (** timers and sleeps pushed, exactly *)
}

let boot ~trace ~processors ?install_faults () =
  Driver.boot
    {
      Driver.Config.default with
      Driver.Config.processors;
      trace_capacity = trace;
      install_faults;
    }

(* --- serial: Table 4's loop on one CPU ------------------------------------ *)

let serial_calls = 2000

let serial ~trace =
  let b = boot ~trace ~processors:1 () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  let client = Kernel.create_domain k ~name:"client" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let binding = Api.import rt ~domain:client ~interface:"Bench" in
  let tests = Array.of_list (Driver.four_tests ()) in
  let done_ = ref 0 in
  ignore
    (Kernel.spawn k client ~name:"caller" (fun () ->
         for i = 0 to serial_calls - 1 do
           let t = tests.(i land 3) in
           match Api.call_result rt binding ~proc:t.Driver.proc t.Driver.args with
           | Ok _ -> incr done_
           | Error _ -> ()
         done));
  (b, fun () -> Driver.run_all b.Driver.bt_engine; !done_)

(* --- scale16: one Null caller per CPU on a shared bus --------------------- *)

let scale_cpus = 16
let scale_calls_each = 125

let scale16 ~trace =
  let b = boot ~trace ~processors:scale_cpus () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let done_ = ref 0 in
  for i = 0 to scale_cpus - 1 do
    let client = Kernel.create_domain k ~name:(Printf.sprintf "client%d" i) in
    let binding = Api.import rt ~domain:client ~interface:"Bench" in
    ignore
      (Kernel.spawn k client ~home:i ~name:(Printf.sprintf "caller%d" i) (fun () ->
           for _ = 1 to scale_calls_each do
             match Api.call_result rt binding ~proc:"null" [] with
             | Ok _ -> incr done_
             | Error _ -> ()
           done))
  done;
  (b, fun () -> Driver.run_all b.Driver.bt_engine; !done_)

(* --- openloop: 200 Poisson sessions at 20k calls/s on 4 CPUs ------------- *)

let ol_sessions = 200
let ol_domains = 20

let openloop ~trace =
  let b = boot ~trace ~processors:4 () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let bindings =
    Array.init ol_domains (fun d ->
        let dom = Kernel.create_domain k ~name:(Printf.sprintf "client%d" d) in
        (dom, Api.import rt ~domain:dom ~interface:"Bench"))
  in
  let cfg =
    {
      Ol.ol_seed = 1989L;
      ol_sessions;
      ol_offered_cps = 20_000.0;
      ol_process = Ol.Poisson;
      ol_horizon = Time.ms 100;
      ol_warmup = Time.ms 5;
    }
  in
  let run () =
    let r =
      Ol.run cfg ~engine:b.Driver.bt_engine
        ~spawn:(fun ~session body ->
          ignore
            (Kernel.spawn k
               (fst bindings.(session mod ol_domains))
               ~home:(session mod 4)
               ~name:(Printf.sprintf "session%d" session)
               body))
        ~call:(fun ~session ~lateness_us:_ ->
          match
            Api.call_result rt (snd bindings.(session mod ol_domains)) ~proc:"null" []
          with
          | Ok _ -> `Ok
          | Error _ -> `Shed)
    in
    r.Ol.ol_completed
  in
  (b, run)

(* --- erpc: packet echoes under seeded drop and ECN ------------------------ *)

let erpc_callers = 4
let erpc_calls_each = 100

let echo_iface =
  I.interface "Echo"
    [ I.proc ~result:(I.Var_bytes 8192) "echo" [ I.param "b" (I.Var_bytes 8192) ] ]

let echo_impls =
  [ ("echo", function [ V.Bytes b ] -> [ V.bytes b ] | _ -> invalid_arg "echo") ]

let erpc ~trace =
  let plan =
    Plan.make { Plan.none with Plan.seed = 1989L; pkt_drop = 0.01; pkt_ecn = 0.01 }
  in
  let b = boot ~trace ~processors:4 ~install_faults:(Plan.install plan) () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~machine:1 ~name:"server" in
  let done_ = ref 0 in
  for i = 0 to erpc_callers - 1 do
    let client = Kernel.create_domain k ~name:(Printf.sprintf "client%d" i) in
    let binding =
      Erpc.import_remote rt ~client ~server echo_iface ~impls:echo_impls
    in
    (* One caller of four sends five packets each way. *)
    let args = [ V.bytes (Bytes.make (if i = 0 then 6000 else 64) 'e') ] in
    ignore
      (Kernel.spawn k client ~home:i ~name:(Printf.sprintf "caller%d" i) (fun () ->
           for _ = 1 to erpc_calls_each do
             match Api.call_result rt binding ~proc:"echo" args with
             | Ok _ -> incr done_
             | Error _ -> ()
           done))
  done;
  (b, fun () -> Driver.run_all b.Driver.bt_engine; !done_)

(* --- the budgets ---------------------------------------------------------- *)

let worlds =
  [
    {
      name = "serial";
      build = serial;
      budget_words = 367;
      slices = 33004;
      dispatches = 1;
      run_pushes = 1;
      timer_pushes = 0;
    };
    {
      name = "scale16";
      build = scale16;
      budget_words = 362;
      slices = 30016;
      dispatches = 16;
      run_pushes = 30032;
      timer_pushes = 0;
    };
    {
      name = "openloop";
      build = openloop;
      budget_words = 428;
      slices = 29709;
      dispatches = 2122;
      run_pushes = 25314;
      timer_pushes = 1937;
    };
    {
      name = "erpc";
      build = erpc;
      budget_words = 492;
      slices = 2400;
      dispatches = 804;
      run_pushes = 2245;
      timer_pushes = 3212;
    };
  ]

(* The second of two identical runs is measured, so one-time
   initialisation elsewhere in the program (whichever world happens to
   run first) is never charged to a world. *)
let words_per_call w =
  ignore ((snd (w.build ~trace:None)) ());
  let _, run = w.build ~trace:None in
  let w0 = Gc.minor_words () in
  let calls = run () in
  (calls, (Gc.minor_words () -. w0) /. float_of_int calls)

let trace_capacity = 1 lsl 17

let traced_counts w =
  let b, run = w.build ~trace:(Some trace_capacity) in
  let calls = run () in
  let tr = Option.get b.Driver.bt_tracer in
  Alcotest.(check int) (w.name ^ ": trace ring held every event") 0 (Trace.dropped tr);
  let slices = ref 0 and dispatches = ref 0 in
  Trace.iter tr (fun e ->
      match e.Trace.kind with
      | Event.Slice _ -> incr slices
      | Event.Dispatch _ -> incr dispatches
      | _ -> ());
  (calls, !slices, !dispatches)

let test_words w () =
  if Sys.ocaml_version <> pinned_ocaml then
    Alcotest.failf
      "%s: words-per-call budgets are pinned for OCaml %s, but this is OCaml \
       %s; re-measure them with lrpcbench and re-pin"
      w.name pinned_ocaml Sys.ocaml_version;
  let calls, words = words_per_call w in
  if words > float_of_int w.budget_words then
    Alcotest.failf "%s: %.2f words per call over %d calls, budget %d" w.name
      words calls w.budget_words

let test_events w () =
  let b, run = w.build ~trace:None in
  let calls = run () in
  let e = b.Driver.bt_engine in
  let traced_calls, slices, dispatches = traced_counts w in
  Alcotest.(check int) (w.name ^ ": tracing moves no call") calls traced_calls;
  let per n = float_of_int n /. float_of_int calls in
  Alcotest.(check int)
    (w.name ^ ": busy time = charged time (ns)")
    (List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Engine.breakdown e))
    (Array.fold_left (fun acc c -> acc + c.Engine.busy) 0 (Engine.cpus e));
  Alcotest.(check int)
    (Printf.sprintf "%s: run-heap pushes (%.4f per call)" w.name
       (per (Engine.run_pushes e)))
    w.run_pushes (Engine.run_pushes e);
  Alcotest.(check int)
    (Printf.sprintf "%s: timer-heap pushes (%.4f per call)" w.name
       (per (Engine.timer_pushes e)))
    w.timer_pushes (Engine.timer_pushes e);
  Alcotest.(check int)
    (Printf.sprintf "%s: slices (%.4f per call over %d calls)" w.name (per slices) calls)
    w.slices slices;
  Alcotest.(check int)
    (Printf.sprintf "%s: dispatches (%.4f per call)" w.name (per dispatches))
    w.dispatches dispatches

let () =
  Alcotest.run "lrpc_budget"
    [
      ( "words per call",
        List.map (fun w -> Alcotest.test_case w.name `Quick (test_words w)) worlds );
      ( "events per call",
        List.map (fun w -> Alcotest.test_case w.name `Quick (test_events w)) worlds );
    ]
