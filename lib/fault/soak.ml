module Prng = Lrpc_util.Prng
module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Metrics = Lrpc_obs.Metrics
module Trace = Lrpc_obs.Trace
module Kernel = Lrpc_kernel.Kernel
module Driver = Lrpc_workload.Driver
module Rt = Lrpc_core.Rt
module Api = Lrpc_core.Api
module Server_ctx = Lrpc_core.Server_ctx
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

(* Fixed shape of the soak world; [config] carries what callers vary. *)
let processors = 4
let async_share = 0.5 (* fraction of calls issued as pipelined batches *)
let deadline_share = 0.1 (* fraction issued with a tight deadline *)
let trace_capacity = 1 lsl 16 (* tracer ring size for the digest *)

type config = {
  seed : int64;
  calls : int;
  clients : int;
  spec : Plan.spec;
  remote_share : float;
  retry_budget : float option;
  cost_model : Lrpc_sim.Cost_model.t option;
}

let default =
  {
    seed = 0xC0FFEEL;
    calls = 6_000;
    clients = 8;
    spec =
      {
        Plan.none with
        wire_drop = 0.05;
        wire_reply_drop = 0.03;
        wire_duplicate = 0.05;
        wire_delay = 0.10;
        wire_delay_mean_us = 500.0;
        server_exn = 0.02;
        starvation = 0.02;
        starvation_us = 150.0;
        crashes = [ (60_000.0, "srv-b") ];
      };
    remote_share = 0.15;
    retry_budget = None;
    cost_model = None;
  }

type report = {
  r_seed : int64;
  r_calls : int;
  r_ok : int;
  r_failed : int;
  r_aborted : int;
  r_deadline : int;
  r_rejected : int;
  r_overloaded : int;
  r_stub : int;
  r_retries : int;
  r_retries_suppressed : int;
  r_dups_suppressed : int;
  r_crashes : int;
  r_starvations : int;
  r_shard_contended : int;
  r_steals_near : int;
  r_steals_far : int;
  r_all_resolved : bool;
  r_failure_accounting : bool;
  r_pool_balanced : bool;
  r_linkages_zero : bool;
  r_in_flight_zero : bool;
  r_no_stuck : bool;
  r_no_failures : bool;
  r_digest : string;
}

let local_iface name =
  I.interface name
    [
      I.proc "null" [];
      I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
      I.proc ~result:I.Int32 "slow" [ I.param "v" I.Int32 ];
      I.proc ~result:I.Int32 ~astacks:1 "slow_one" [ I.param "v" I.Int32 ];
    ]

let remote_iface =
  I.interface "ChaosNet"
    [
      I.proc "rnull" [];
      I.proc ~result:I.Int32 "radd" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
    ]

let local_impls engine =
  let echo ctx =
    match Server_ctx.arg ctx 0 with V.Int v -> [ V.int v ] | _ -> [ V.int 0 ]
  in
  let slow ctx =
    Engine.delay engine (Time.us 100);
    echo ctx
  in
  [
    ("null", fun _ -> []);
    ( "add",
      fun ctx ->
        match Server_ctx.args ctx with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> [ V.int 0 ] );
    ("slow", slow);
    ("slow_one", slow);
  ]

let remote_impls =
  [
    ("rnull", fun (_ : V.t list) -> []);
    ( "radd",
      fun args ->
        match args with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> [ V.int 0 ] );
  ]

let ok r =
  r.r_all_resolved && r.r_failure_accounting && r.r_pool_balanced
  && r.r_linkages_zero && r.r_in_flight_zero && r.r_no_stuck && r.r_no_failures

(* Why an invariant failed, on stderr: the threads that died or hung,
   and what every pool holds. *)
let explain engine rt =
  List.iter
    (fun (th, exn) ->
      Printf.eprintf "FAILED %s: %s\n%!" (Engine.thread_name th)
        (Printexc.to_string exn))
    (Engine.failures engine);
  List.iter
    (fun th -> Printf.eprintf "STUCK %s\n%!" (Engine.thread_name th))
    (Engine.stuck_threads engine);
  Hashtbl.iter
    (fun _ b ->
      List.iter
        (fun (pn, pb) ->
          let p = pb.Rt.pb_pool in
          Printf.eprintf "POOL b%d %s: free=%d all=%d waiters=%d\n%!" b.Rt.bid
            pn
            (Lrpc_core.Astack.free_count p)
            (List.length p.Rt.ap_all)
            (Lrpc_core.Astack.waiting p))
        b.Rt.b_procs)
    rt.Rt.bindings

let run cfg =
  (* A soak of no calls, or no clients to issue them, would pass every
     invariant vacuously. *)
  if cfg.calls <= 0 || cfg.clients <= 0 then
    invalid_arg
      (Printf.sprintf "Soak.run: calls (%d) and clients (%d) must be positive"
         cfg.calls cfg.clients);
  (* One Driver.Config instead of hand-built engine/tracer/kernel/rt.
     The fault plan installs from the boot hook — before any domain
     exists — which is safe because crash timers resolve their victim
     domains by name only when they fire. *)
  let boot =
    Driver.boot
      {
        Driver.Config.default with
        Driver.Config.processors;
        cost_model =
          Option.value cfg.cost_model
            ~default:Driver.Config.default.Driver.Config.cost_model;
        trace_capacity = Some trace_capacity;
        install_faults =
          Some (Plan.install (Plan.make { cfg.spec with Plan.seed = cfg.seed }));
      }
  in
  let engine = boot.Driver.bt_engine in
  let kernel = boot.Driver.bt_kernel in
  let rt = boot.Driver.bt_rt in
  let tracer =
    match boot.Driver.bt_tracer with Some t -> t | None -> assert false
  in
  let srv_a = Kernel.create_domain kernel ~name:"srv-a" in
  let srv_b = Kernel.create_domain kernel ~name:"srv-b" in
  let srv_net = Kernel.create_domain kernel ~machine:1 ~name:"srv-net" in
  let app = Kernel.create_domain kernel ~name:"app" in
  ignore
    (Api.export rt ~domain:srv_a (local_iface "ChaosA")
       ~impls:(local_impls engine));
  ignore
    (Api.export rt ~domain:srv_b (local_iface "ChaosB")
       ~impls:(local_impls engine));
  let b_a = Api.import rt ~domain:app ~interface:"ChaosA" in
  let b_b = Api.import rt ~domain:app ~interface:"ChaosB" in
  let b_net =
    Lrpc_net.Netrpc.import_remote ?retry_budget:cfg.retry_budget rt
      ~client:app ~server:srv_net remote_iface ~impls:remote_impls
  in
  (* The workload streams must not collide with the plan's (both are
     split off the seed), so the workload root is perturbed first. *)
  let master = Prng.create ~seed:(Int64.logxor cfg.seed 0x9E3779B97F4A7C15L) in
  let issued = ref 0 in
  let succeeded = ref 0
  and failed = ref 0
  and aborted = ref 0
  and deadline = ref 0
  and rejected = ref 0
  and overloaded = ref 0
  and stub = ref 0 in
  let resolve = function
    | Ok _ -> incr succeeded
    | Error (Api.Failed _) -> incr failed
    | Error (Api.Aborted _) -> incr aborted
    | Error (Api.Deadline _) -> incr deadline
    | Error (Api.Rejected _) -> incr rejected
    | Error (Api.Overloaded _) -> incr overloaded
    | Error (Api.Stub_raised _) -> incr stub
  in
  let client_body prng my_a my_b () =
    (* Shared bindings for synchronous calls (issue blocks holding
       nothing — cross-client FIFO contention is safe); private
       per-client bindings for pipelined batches, whose A-stack pool is
       the client's own issue window (§3.1: issuing beyond the pool
       while holding unawaited claims is hold-and-wait). *)
    let pick_call ~pipelined =
      if Prng.bernoulli prng ~p:cfg.remote_share then
        let proc, args =
          if Prng.bool prng then ("rnull", [])
          else
            ("radd", [ V.int (Prng.int prng 1000); V.int (Prng.int prng 1000) ])
        in
        (b_net, proc, args, Time.us (3_000 + Prng.int prng 8_000))
      else
        let b =
          if Prng.bool prng then (if pipelined then my_a else b_a)
          else if pipelined then my_b
          else b_b
        in
        let proc, args =
          match Prng.int prng 4 with
          | 0 -> ("null", [])
          | 1 ->
              ("add", [ V.int (Prng.int prng 1000); V.int (Prng.int prng 1000) ])
          | 2 -> ("slow", [ V.int (Prng.int prng 1000) ])
          | _ -> ("slow_one", [ V.int (Prng.int prng 1000) ])
        in
        (b, proc, args, Time.us (30 + Prng.int prng 150))
    in
    let options dl =
      if Prng.bernoulli prng ~p:deadline_share then
        Some { Api.Options.default with deadline = Some dl }
      else None
    in
    let issue_async b proc args opts =
      match Api.call_async ?options:opts rt b ~proc args with
      | h -> Some h
      | exception (Rt.Bad_binding m | Rt.Not_exported m) ->
          resolve (Error (Api.Rejected m));
          None
      | exception Rt.Call_failed m ->
          resolve (Error (Api.Failed m));
          None
      | exception Rt.Overloaded { ov_reason; ov_backoff_us } ->
          resolve
            (Error
               (Api.Overloaded
                  { reason = ov_reason; retry_after_us = ov_backoff_us }));
          None
    in
    while !issued < cfg.calls do
      if Prng.bernoulli prng ~p:async_share then begin
        (* A pipelined batch on one procedure of a binding this client
           owns, sized within its A-stack pool, then drained handle by
           handle whatever each one's fate. *)
        let b, proc, _, dl = pick_call ~pipelined:true in
        let width = if proc = "slow_one" then 1 else 1 + Prng.int prng 4 in
        let n = min width (cfg.calls - !issued) in
        issued := !issued + n;
        let hs =
          List.filter_map
            (fun _ ->
              let args =
                match proc with
                | "null" | "rnull" -> []
                | "add" | "radd" ->
                    [ V.int (Prng.int prng 1000); V.int (Prng.int prng 1000) ]
                | _ -> [ V.int (Prng.int prng 1000) ]
              in
              issue_async b proc args (options dl))
            (List.init n Fun.id)
        in
        List.iter resolve (Api.await_all_results rt hs)
      end
      else begin
        incr issued;
        let b, proc, args, dl = pick_call ~pipelined:false in
        resolve (Api.call_result ?options:(options dl) rt b ~proc args)
      end
    done
  in
  for i = 1 to cfg.clients do
    let prng = Prng.split master in
    let my_a = Api.import rt ~domain:app ~interface:"ChaosA" in
    let my_b = Api.import rt ~domain:app ~interface:"ChaosB" in
    ignore
      (Kernel.spawn kernel app
         ~name:(Printf.sprintf "chaos-client-%d" i)
         (client_body prng my_a my_b))
  done;
  Engine.run engine;
  (* --- quiescence invariants ------------------------------------------ *)
  let pools =
    Hashtbl.fold
      (fun _ b acc ->
        List.fold_left
          (fun acc (_, pb) ->
            if List.memq pb.Rt.pb_pool acc then acc else pb.Rt.pb_pool :: acc)
          acc b.Rt.b_procs)
      rt.Rt.bindings []
  in
  let pool_balanced =
    List.for_all
      (fun p ->
        Lrpc_core.Astack.free_count p = List.length p.Rt.ap_all
        && Queue.fold (fun acc c -> acc && not c.Rt.aw_active) true p.Rt.ap_waiters)
      pools
  in
  let resolved =
    !succeeded + !failed + !aborted + !deadline + !rejected + !overloaded + !stub
  in
  let m = Engine.metrics engine in
  let counter name = Metrics.Counter.value (Metrics.counter m name) in
  (* Exact failure accounting: every client-side Error tally is either a
     landed failure (["lrpc.calls_failed"]) or a synchronous issue-half
     refusal (["lrpc.calls_rejected"]) — nothing double-counted, nothing
     dropped. *)
  let typed_failures =
    !failed + !aborted + !deadline + !rejected + !overloaded + !stub
  in
  let failure_accounting =
    typed_failures = counter "lrpc.calls_failed" + counter "lrpc.calls_rejected"
  in
  let r =
    {
      r_seed = cfg.seed;
      r_calls = !issued;
      r_ok = !succeeded;
      r_failed = !failed;
      r_aborted = !aborted;
      r_deadline = !deadline;
      r_rejected = !rejected;
      r_overloaded = !overloaded;
      r_stub = !stub;
      r_retries = counter "net.retries";
      r_retries_suppressed = counter "net.retries_suppressed";
      r_dups_suppressed = counter "net.duplicates_suppressed";
      r_crashes = counter "fault.crashes";
      r_starvations = counter "fault.astack_starvations";
      r_shard_contended = counter "lrpc.astack_shard_contended";
      r_steals_near = Engine.total_steals_near engine;
      r_steals_far = Engine.total_steals_far engine;
      r_all_resolved = resolved = !issued;
      r_failure_accounting = failure_accounting;
      r_pool_balanced = pool_balanced;
      r_linkages_zero = Kernel.total_linkages kernel = 0;
      r_in_flight_zero = Api.calls_in_flight rt = 0;
      r_no_stuck = Engine.stuck_threads engine = [];
      r_no_failures = Engine.failures engine = [];
      r_digest = Digest.to_hex (Digest.string (Trace.dump tracer));
    }
  in
  if not (ok r) then explain engine rt;
  r

let report_to_json r =
  Printf.sprintf
    "{\"seed\": %Ld, \"calls\": %d,\n\
    \ \"outcomes\": {\"ok\": %d, \"failed\": %d, \"aborted\": %d, \"deadline\": \
     %d, \"rejected\": %d, \"overloaded\": %d, \"stub_raised\": %d},\n\
    \ \"faults\": {\"net_retries\": %d, \"net_retries_suppressed\": %d, \
     \"net_duplicates_suppressed\": %d, \"crashes\": %d, \
     \"astack_starvations\": %d},\n\
    \ \"locality\": {\"shard_contended\": %d, \"steals_near\": %d, \
     \"steals_far\": %d},\n\
    \ \"invariants\": {\"all_resolved\": %b, \"failure_accounting\": %b, \
     \"pool_balanced\": %b, \"linkages_zero\": %b, \"in_flight_zero\": %b, \
     \"no_stuck_threads\": %b, \"no_thread_failures\": %b},\n\
    \ \"digest\": \"%s\"}"
    r.r_seed r.r_calls r.r_ok r.r_failed r.r_aborted r.r_deadline r.r_rejected
    r.r_overloaded r.r_stub r.r_retries r.r_retries_suppressed
    r.r_dups_suppressed r.r_crashes r.r_starvations r.r_shard_contended
    r.r_steals_near r.r_steals_far r.r_all_resolved
    r.r_failure_accounting r.r_pool_balanced r.r_linkages_zero
    r.r_in_flight_zero r.r_no_stuck r.r_no_failures r.r_digest
