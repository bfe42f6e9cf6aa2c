(* Allocation, event and memory budgets.

   Six small fixed worlds run a fixed number of calls each: the paper's
   serial Null/Add/BigIn/BigInOut loop on one CPU, LRPC/MP Null calls
   with domain caching on two CPUs, sixteen Null callers on sixteen
   CPUs, sixteen callers sharing a server's eight E-stacks, an
   open-loop slice, and eRPC echoes under seeded packet drop. Words
   allocated per call (Gc.minor_words over the run, untraced) must stay
   at or under a committed budget; the calls completed, the pushes on
   each of the engine's two heaps, the threads' resumptions, slices and
   dispatches (counted from a tracer on a second, identical run) must
   match exactly; and the processors' busy time must equal the time
   charged to categories, to the nanosecond. A machine of 256
   processors must spawn one thread per processor for a few dozen words
   each, and a binding must keep its live words under a budget. All of
   these are deterministic: the same build gives the same figures on
   every run and every machine.

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
module Metrics = Lrpc_obs.Metrics
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
  calls : int;  (** calls completed, exactly: none fails *)
  slices : int;  (** charged slices over the whole run, exactly *)
  dispatches : int;  (** dispatches over the whole run, exactly *)
  run_pushes : int;  (** resumptions pushed over the whole run, exactly *)
  timer_pushes : int;  (** timers and sleeps pushed, exactly *)
  resumptions : int;  (** threads resumed over the whole run, exactly *)
}

let boot ~trace ~processors ?(domain_caching = false) ?install_faults () =
  Driver.boot
    {
      Driver.Config.default with
      Driver.Config.processors;
      domain_caching;
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

(* --- mp: LRPC/MP, Null calls with domain caching on two CPUs --------------

   Table 4's MP column: the caller's transfers exchange processors with
   an idle one holding the other domain's context, so every transfer
   scans the processors for one. *)

let mp_calls = 2000

let mp ~trace =
  let b = boot ~trace ~processors:2 ~domain_caching:true () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  let client = Kernel.create_domain k ~name:"client" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let binding = Api.import rt ~domain:client ~interface:"Bench" in
  let done_ = ref 0 in
  ignore
    (Kernel.spawn k client ~name:"caller" (fun () ->
         for _ = 1 to mp_calls do
           match Api.call_result rt binding ~proc:"null" [] with
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

(* --- reclaim: more bindings than the server's E-stack budget -------------

   Sixteen Null callers on four CPUs, one binding each, to a server
   whose page budget holds eight E-stacks. Nearly every call finds its
   A-stack's E-stack reclaimed and re-associates: from the free list,
   or, when that is empty, after reclaiming the idle E-stacks (paper
   §3.2). Think times between calls change from call to call (0.2 to
   1.2 ms), so callers arrive in a changing order and an A-stack seldom
   gets back the E-stack it had. At most four calls are in the server
   at once, so a reclaim always finds an idle E-stack and no call
   fails. *)

let reclaim_callers = 16
let reclaim_calls_each = 125

(* The export's PDL and stubs (3 pages), the server's code and stack (6)
   and eight E-stacks of 40 pages. *)
let reclaim_page_limit = 3 + 6 + (8 * 40)

let reclaim ~trace =
  let b = boot ~trace ~processors:4 () in
  let e = b.Driver.bt_engine in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~page_limit:reclaim_page_limit ~name:"server" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let done_ = ref 0 in
  for i = 0 to reclaim_callers - 1 do
    let client = Kernel.create_domain k ~name:(Printf.sprintf "client%d" i) in
    let binding = Api.import rt ~domain:client ~interface:"Bench" in
    ignore
      (Kernel.spawn k client ~home:(i mod 4) ~name:(Printf.sprintf "caller%d" i)
         (fun () ->
           for n = 1 to reclaim_calls_each do
             (match Api.call_result rt binding ~proc:"null" [] with
             | Ok _ -> incr done_
             | Error _ -> ());
             let think = Time.us (200 + (((37 * i) + (101 * n)) mod 997)) in
             Engine.sleep_until e (Time.add (Engine.now e) think)
           done))
  done;
  (b, fun () -> Driver.run_all e; !done_)

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
      budget_words = 77;
      calls = 2000;
      slices = 33004;
      dispatches = 1;
      run_pushes = 1;
      timer_pushes = 0;
      resumptions = 1;
    };
    {
      name = "mp";
      build = mp;
      budget_words = 57;
      calls = 2000;
      slices = 26004;
      dispatches = 1;
      run_pushes = 1;
      timer_pushes = 0;
      resumptions = 1;
    };
    {
      name = "scale16";
      build = scale16;
      budget_words = 95;
      calls = 2000;
      slices = 30016;
      dispatches = 16;
      run_pushes = 30032;
      timer_pushes = 0;
      resumptions = 20064;
    };
    {
      name = "reclaim";
      build = reclaim;
      budget_words = 88;
      calls = 2000;
      slices = 30008;
      dispatches = 2016;
      run_pushes = 24892;
      timer_pushes = 2000;
      resumptions = 16005;
    };
    {
      name = "openloop";
      build = openloop;
      budget_words = 125;
      calls = 1973;
      slices = 29709;
      dispatches = 2122;
      run_pushes = 25314;
      timer_pushes = 1937;
      resumptions = 16102;
    };
    {
      name = "erpc";
      build = erpc;
      budget_words = 366;
      calls = 400;
      slices = 2400;
      dispatches = 804;
      run_pushes = 2245;
      timer_pushes = 3212;
      resumptions = 2245;
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

let require_pinned_ocaml what =
  if Sys.ocaml_version <> pinned_ocaml then
    Alcotest.failf
      "%s: words-per-call budgets are pinned for OCaml %s, but this is OCaml \
       %s; re-measure them with lrpcbench and re-pin"
      what pinned_ocaml Sys.ocaml_version

let test_words w () =
  require_pinned_ocaml w.name;
  let calls, words = words_per_call w in
  if words > float_of_int w.budget_words then
    Alcotest.failf "%s: %.2f words per call over %d calls, budget %d" w.name
      words calls w.budget_words

let test_events w () =
  let b, run = w.build ~trace:None in
  let calls = run () in
  let e = b.Driver.bt_engine in
  let traced_calls, slices, dispatches = traced_counts w in
  Alcotest.(check int) (w.name ^ ": calls completed") w.calls calls;
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
    (Printf.sprintf "%s: resumptions (%.4f per call)" w.name
       (per (Engine.resumptions e)))
    w.resumptions (Engine.resumptions e);
  Alcotest.(check int)
    (Printf.sprintf "%s: slices (%.4f per call over %d calls)" w.name (per slices) calls)
    w.slices slices;
  Alcotest.(check int)
    (Printf.sprintf "%s: dispatches (%.4f per call)" w.name (per dispatches))
    w.dispatches dispatches

(* --- spawn cost -------------------------------------------------------------

   One pinned thread per processor on 256 processors. Each spawn queues
   the thread on its home processor and offers every free processor a
   dispatch; with nothing else queued, no processor scans the others'
   queues, so a spawn costs the thread record, its dispatch and O(CPUs)
   time. A steal scan per free processor per spawn made this cubic. *)

let spawn_cpus = 256
let spawn_budget_words = 64

let test_spawn () =
  require_pinned_ocaml "spawn";
  let e = Engine.create ~processors:spawn_cpus Cost_model.cvax_firefly in
  let w0 = Gc.minor_words () in
  for i = 0 to spawn_cpus - 1 do
    ignore (Engine.spawn e ~home:i ~domain:i ignore)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int spawn_cpus in
  if words > float_of_int spawn_budget_words then
    Alcotest.failf "spawn: %.1f words per thread on %d CPUs, budget %d" words
      spawn_cpus spawn_budget_words;
  Engine.run e;
  Alcotest.(check int) "every thread ran once" spawn_cpus
    (Engine.resumptions e);
  Alcotest.(check int) "each on its home processor: no steals" 0
    (Engine.total_steals e)

(* --- the metrics snapshot as JSON --------------------------------------------

   lrpcbench hashes Metrics.to_json of every repetition's snapshot
   before its words window closes, so the printer's allocation counts
   as per-call words. One value printed into one buffer costs 33 words
   an entry on this world; a sprintf per entry cost 153. *)

let json_budget_words = 80

let test_metrics_json () =
  require_pinned_ocaml "metrics json";
  let b, run = scale16 ~trace:None in
  ignore (run ());
  let s = Metrics.snapshot (Engine.metrics b.Driver.bt_engine) in
  let entries =
    List.length s.Metrics.counters + List.length s.Metrics.gauges
    + List.length s.Metrics.histograms
  in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Metrics.to_json s));
  let words = (Gc.minor_words () -. w0) /. float_of_int entries in
  if words > float_of_int json_budget_words then
    Alcotest.failf "metrics json: %.1f words per snapshot entry over %d, budget %d"
      words entries json_budget_words

(* --- live memory per binding ------------------------------------------------

   Sixteen Null clients of one server on sixteen CPUs. Live words after
   a full major GC, per binding: what binding adds, and what twenty Null
   calls through each binding add after that. A binding keeps its
   A-stacks and linkage records, its call statistics and, from its first
   call, an E-stack and two TLB footprints. Memory the simulation does
   not read costs here: a latency histogram of one int per bin, or bytes
   behind an E-stack, would each break the budgets. *)

let mem_bindings = 16
let mem_calls_each = 20
let bind_budget_words = 3000
let calls_budget_words = 500

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Words per binding added by binding, then by the calls. *)
let memory_per_binding () =
  let b = boot ~trace:None ~processors:mem_bindings () in
  let k = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain k ~name:"server" in
  ignore (Api.export rt ~domain:server Driver.bench_interface ~impls:Driver.bench_impls);
  let clients =
    Array.init mem_bindings (fun i ->
        Kernel.create_domain k ~name:(Printf.sprintf "client%d" i))
  in
  let w0 = live_words () in
  let bindings = Array.map (fun c -> Api.import rt ~domain:c ~interface:"Bench") clients in
  let w1 = live_words () in
  Array.iteri
    (fun i binding ->
      ignore
        (Kernel.spawn k clients.(i) ~home:i (fun () ->
             for _ = 1 to mem_calls_each do
               ignore (Api.call rt binding ~proc:"null" [])
             done)))
    bindings;
  Driver.run_all b.Driver.bt_engine;
  let w2 = live_words () in
  ignore (Sys.opaque_identity (b, bindings));
  let per n = float_of_int n /. float_of_int mem_bindings in
  (per (w1 - w0), per (w2 - w1))

let test_memory () =
  require_pinned_ocaml "memory";
  let bind, calls = memory_per_binding () in
  if bind > float_of_int bind_budget_words then
    Alcotest.failf "memory: %.0f live words per binding at bind, budget %d" bind
      bind_budget_words;
  if calls > float_of_int calls_budget_words then
    Alcotest.failf
      "memory: %.0f more live words per binding after %d Null calls each, budget %d"
      calls mem_calls_each calls_budget_words

let () =
  Alcotest.run "lrpc_budget"
    [
      ( "words per call",
        List.map (fun w -> Alcotest.test_case w.name `Quick (test_words w)) worlds );
      ( "events per call",
        List.map (fun w -> Alcotest.test_case w.name `Quick (test_events w)) worlds );
      ("spawn", [ Alcotest.test_case "256 pinned threads" `Quick test_spawn ]);
      ( "metrics json",
        [ Alcotest.test_case "words per snapshot entry" `Quick test_metrics_json ] );
      ( "memory",
        [ Alcotest.test_case "live words per binding" `Quick test_memory ] );
    ]
