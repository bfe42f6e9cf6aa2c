(* Asynchronous call handles: pipelined LRPC over the A-stack pool.

   Covers the handle lifecycle (issue, in flight, landed, consumed),
   FIFO back-pressure on pool exhaustion, await after domain
   termination, mixed local/remote await_all, double-await, the
   Not_in_thread guard, the Call_issued/Call_completed trace events,
   and the headline property: pipelined throughput at least 2x serial
   with four calls in flight on a 4-processor engine. Built against the
   Lrpc umbrella, which doubles as its compile test. *)

open Lrpc
module V = Value
module I = Types

let cm = Cost_model.cvax_firefly

(* --- scaffolding --------------------------------------------------------- *)

type world = {
  engine : Engine.t;
  kernel : Kernel.t;
  rt : Api.t;
  server : Pdomain.t;
  client : Pdomain.t;
}

let iface =
  I.interface "Async"
    [
      I.proc "null" [];
      I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
      I.proc ~result:I.Int32 ~astacks:1 "slow_one" [ I.param "v" I.Int32 ];
      I.proc ~result:I.Int32 "slow" [ I.param "v" I.Int32 ];
    ]

let make_world ?config ?(processors = 1) () =
  let engine = Engine.create ~processors cm in
  let kernel = Kernel.boot engine in
  let rt = Api.init ?config kernel in
  let server = Kernel.create_domain kernel ~name:"srv" in
  let client = Kernel.create_domain kernel ~name:"app" in
  let echo ctx =
    match Server_ctx.arg ctx 0 with
    | V.Int v -> [ V.int v ]
    | _ -> Alcotest.fail "bad arg"
  in
  let slow ctx =
    Engine.delay engine (Time.us 100);
    echo ctx
  in
  let add ctx =
    match Server_ctx.args ctx with
    | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
    | _ -> Alcotest.fail "add: bad args"
  in
  ignore
    (Api.export rt ~domain:server iface
       ~impls:
         [
           ("null", fun _ -> []);
           ("add", add);
           ("slow_one", slow);
           ("slow", slow);
         ]);
  { engine; kernel; rt; server; client }

let run_world w =
  Engine.run w.engine;
  match Engine.failures w.engine with
  | [] -> ()
  | (th, exn) :: _ ->
      Alcotest.failf "thread %s died: %s" (Engine.thread_name th)
        (Printexc.to_string exn)

let in_client w body =
  ignore (Kernel.spawn w.kernel w.client ~name:"test-client" body);
  run_world w

(* --- handle basics -------------------------------------------------------- *)

let test_async_roundtrip () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let h = Api.call_async w.rt b ~proc:"add" [ V.int 2; V.int 40 ] in
      Alcotest.(check bool) "has carrier" true (Call_handle.carrier h <> None);
      (match Api.await w.rt h with
      | [ V.Int 42 ] -> ()
      | _ -> Alcotest.fail "wrong result");
      Alcotest.(check bool) "consumed" true (Call_handle.is_consumed h);
      Alcotest.(check int) "nothing in flight" 0 (Api.calls_in_flight w.rt))

let test_double_await () =
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let h = Api.call_async w.rt b ~proc:"null" [] in
      ignore (Api.await w.rt h);
      match Api.await w.rt h with
      | _ -> Alcotest.fail "second await should raise"
      | exception Rt.Already_awaited _ -> ())

let test_sync_call_still_works () =
  (* Api.call is now issue+await over an inline handle; the surface
     behavior must be unchanged. *)
  let w = make_world () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      match Api.call w.rt b ~proc:"add" [ V.int 1; V.int 2 ] with
      | [ V.Int 3 ] -> ()
      | _ -> Alcotest.fail "wrong result")

let test_await_any_picks_first_landed () =
  let w = make_world ~processors:2 () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let slow = Api.call_async w.rt b ~proc:"slow" [ V.int 7 ] in
      let fast = Api.call_async w.rt b ~proc:"add" [ V.int 3; V.int 4 ] in
      let first, outs = Api.await_any w.rt [ slow; fast ] in
      Alcotest.(check int) "fast lands first" (Call_handle.id fast)
        (Call_handle.id first);
      (match outs with [ V.Int 7 ] -> () | _ -> Alcotest.fail "wrong outputs");
      match Api.await w.rt slow with
      | [ V.Int 7 ] -> ()
      | _ -> Alcotest.fail "slow result wrong")

(* --- back-pressure on the A-stack pool ------------------------------------ *)

(* slow_one has a single A-stack. Four staggered callers must be served
   strictly in arrival order: the check-in grants the A-stack directly
   to the longest waiter. *)
let test_pool_exhaustion_fifo () =
  (* Four processors so the callers genuinely race for the single
     A-stack instead of serializing on one CPU. *)
  let w = make_world ~processors:4 () in
  let order = ref [] in
  (* One shared binding: contention happens on one pool, not four. *)
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  for i = 0 to 3 do
    ignore
      (Kernel.spawn w.kernel w.client
         ~name:(Printf.sprintf "caller-%d" i)
         (fun () ->
           Engine.delay w.engine (Time.us (i + 1));
           match Api.call w.rt b ~proc:"slow_one" [ V.int i ] with
           | [ V.Int v ] -> order := v :: !order
           | _ -> Alcotest.fail "wrong result"))
  done;
  run_world w;
  Alcotest.(check (list int)) "FIFO service order" [ 0; 1; 2; 3 ]
    (List.rev !order);
  Alcotest.(check bool)
    "pool exhaustion was counted" true
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_pool_exhausted >= 3)

(* An async issuer past the pool bound blocks at issue and resumes only
   once an awaiting thread sends an A-stack home. *)
let test_async_issue_blocks_on_exhaustion () =
  let w = make_world () in
  let t_unblocked = ref Time.zero in
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"first" (fun () ->
         let h = Api.call_async w.rt b ~proc:"slow_one" [ V.int 1 ] in
         ignore (Api.await w.rt h)));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"second" (fun () ->
         Engine.delay w.engine (Time.us 5);
         let h = Api.call_async w.rt b ~proc:"slow_one" [ V.int 2 ] in
         t_unblocked := Engine.now w.engine;
         ignore (Api.await w.rt h)));
  run_world w;
  Alcotest.(check bool)
    "second issue blocked until the first call was awaited" true
    (Time.to_us !t_unblocked >= 100.)

(* --- termination ---------------------------------------------------------- *)

let test_await_after_server_termination () =
  let w = make_world ~processors:2 () in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let h = Api.call_async w.rt b ~proc:"slow" [ V.int 9 ] in
      (* Let the carrier get captured inside the server procedure (the
         E-stack allocation alone costs 50us of kernel time), then pull
         the rug. *)
      Engine.delay w.engine (Time.us 150);
      Api.terminate_domain w.rt w.server;
      match Api.await w.rt h with
      | _ -> Alcotest.fail "await should raise Call_failed"
      | exception Rt.Call_failed _ -> ())

(* --- mixed local/remote --------------------------------------------------- *)

let test_await_all_mixed_local_remote () =
  let w = make_world ~processors:2 () in
  let far = Kernel.create_domain w.kernel ~machine:1 ~name:"far" in
  let riface =
    I.interface "RAdd"
      [ I.proc ~result:I.Int32 "radd" [ I.param "a" I.Int32; I.param "b" I.Int32 ] ]
  in
  let rb =
    Netrpc.import_remote ~window:2 w.rt ~client:w.client ~server:far riface
      ~impls:
        [
          ( "radd",
            function
            | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
            | _ -> Alcotest.fail "radd: bad args" );
        ]
  in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let hs =
        [
          Api.call_async w.rt b ~proc:"add" [ V.int 1; V.int 2 ];
          Api.call_async w.rt rb ~proc:"radd" [ V.int 10; V.int 20 ];
          Api.call_async w.rt b ~proc:"slow" [ V.int 5 ];
        ]
      in
      Alcotest.(check (list bool))
        "remote bits" [ false; true; false ]
        (List.map Call_handle.is_remote hs);
      match Api.await_all w.rt hs with
      | [ [ V.Int 3 ]; [ V.Int 30 ]; [ V.Int 5 ] ] -> ()
      | _ -> Alcotest.fail "wrong results");
  Alcotest.(check int) "one network RPC" 1 (Netrpc.remote_calls w.rt)

(* --- guard rails ---------------------------------------------------------- *)

let test_not_in_thread () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  (try
     ignore (Api.call w.rt b ~proc:"null" []);
     Alcotest.fail "Api.call outside a thread should raise"
   with Api.Not_in_thread fn -> Alcotest.(check string) "name" "Api.call" fn);
  try
    ignore (Api.call_async w.rt b ~proc:"null" []);
    Alcotest.fail "Api.call_async outside a thread should raise"
  with Api.Not_in_thread fn ->
    Alcotest.(check string) "name" "Api.call_async" fn

let test_options_record () =
  let w = make_world () in
  let audit = Vm.audit_create () in
  let options = { Api.Options.default with audit = Some audit } in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      ignore (Api.call ~options w.rt b ~proc:"add" [ V.int 1; V.int 2 ]));
  Alcotest.(check bool) "audit saw copies" true (audit.Vm.copy_ops > 0)

let test_trace_events () =
  let w = make_world () in
  let tr = Trace.create () in
  Engine.set_tracer w.engine (Some tr);
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let h = Api.call_async w.rt b ~proc:"add" [ V.int 1; V.int 1 ] in
      ignore (Api.await w.rt h));
  Engine.set_tracer w.engine None;
  let issued = Trace.find tr ~kind:"call-issued" in
  let completed = Trace.find tr ~kind:"call-completed" in
  Alcotest.(check bool) "issued traced" true (List.length issued >= 1);
  Alcotest.(check bool) "completed traced" true (List.length completed >= 1)

(* --- overload control ------------------------------------------------------ *)

let ctr w name =
  Lrpc_obs.Metrics.Counter.value
    (Lrpc_obs.Metrics.counter (Engine.metrics w.engine) name)

(* Concurrency bound: with one call in flight on the binding, a second
   concurrent call is refused at the gate with a positive backoff hint,
   and succeeds once the first has landed. *)
let test_admission_concurrency_limit () =
  let w = make_world ~processors:2 () in
  Api.set_admission w.rt
    (Some (Rt.admission_policy ~max_inflight:1 ()));
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  let rejected = ref nan in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"first" (fun () ->
         match Api.call w.rt b ~proc:"slow" [ V.int 1 ] with
         | [ V.Int 1 ] -> ()
         | _ -> Alcotest.fail "first call broken"));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"second" (fun () ->
         Engine.delay w.engine (Time.us 10);
         (match Api.call_result w.rt b ~proc:"slow" [ V.int 2 ] with
         | Error (Api.Overloaded { retry_after_us; _ }) ->
             rejected := retry_after_us
         | Ok _ -> Alcotest.fail "second call must be refused"
         | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
         (* Past the first call's landing the slot is free again. *)
         Engine.delay w.engine (Time.ms 1);
         match Api.call_result w.rt b ~proc:"slow" [ V.int 3 ] with
         | Ok [ V.Int 3 ] -> ()
         | _ -> Alcotest.fail "retry after backoff must be admitted"));
  run_world w;
  Alcotest.(check bool) "positive backoff hint" true (!rejected > 0.0);
  Alcotest.(check int) "one rejection counted" 1
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_calls_rejected);
  Alcotest.(check int) "admitted calls counted" 2
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_calls_admitted)

(* Queue-depth bound: a checkout that would join a full A-stack FIFO is
   shed at the checkout path instead of deepening the queue. *)
let test_admission_queue_depth () =
  let w = make_world ~processors:4 () in
  Api.set_admission w.rt (Some (Rt.admission_policy ~max_queue:0 ()));
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  let shed = ref 0 in
  for i = 0 to 1 do
    ignore
      (Kernel.spawn w.kernel w.client
         ~name:(Printf.sprintf "caller-%d" i)
         (fun () ->
           Engine.delay w.engine (Time.us (1 + i));
           match Api.call_result w.rt b ~proc:"slow_one" [ V.int i ] with
           | Ok _ -> ()
           | Error (Api.Overloaded _) -> incr shed
           | Error f ->
               Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)))
  done;
  run_world w;
  Alcotest.(check int) "second caller shed at the FIFO" 1 !shed;
  Alcotest.(check int) "counted as lrpc.calls_shed" 1 (ctr w "lrpc.calls_shed")

(* CoDel-style sojourn bound: a waiter already queued is shed once its
   queue delay exceeds the target, with the hint at twice the target. *)
let test_admission_sojourn_shed () =
  let w = make_world ~processors:4 () in
  Api.set_admission w.rt
    (Some (Rt.admission_policy ~target_sojourn:(Time.us 40) ()));
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  let shed_at = ref Time.zero and t_queued = ref Time.zero in
  let hint = ref 0.0 in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"holder" (fun () ->
         ignore (Api.call w.rt b ~proc:"slow_one" [ V.int 1 ])));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"waiter" (fun () ->
         Engine.delay w.engine (Time.us 10);
         t_queued := Engine.now w.engine;
         match Api.call_result w.rt b ~proc:"slow_one" [ V.int 2 ] with
         | Error (Api.Overloaded o) ->
             shed_at := Engine.now w.engine;
             hint := o.retry_after_us
         | Ok _ -> Alcotest.fail "waiter must be shed"
         | Error f ->
             Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)));
  run_world w;
  let waited = Time.to_us (Time.sub !shed_at !t_queued) in
  Alcotest.(check bool) "shed after ~sojourn target, not at once" true
    (waited >= 40.0 && waited < 100.0);
  Alcotest.(check (float 0.01)) "hint is twice the target" 80.0 !hint;
  (* The interrupted waiter left the FIFO clean: a later call is served. *)
  in_client w (fun () ->
      match Api.call w.rt b ~proc:"slow_one" [ V.int 3 ] with
      | [ V.Int 3 ] -> ()
      | _ -> Alcotest.fail "pool must still grant after a shed")

(* Deadline-aware admission: once the EWMA of observed service time is
   warm, a call whose whole deadline budget is below it is refused at
   the gate instead of being admitted only to miss its deadline. *)
let test_admission_deadline_aware () =
  let w = make_world () in
  Api.set_admission w.rt
    (Some (Rt.admission_policy ~deadline_aware:true ()));
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  in_client w (fun () ->
      (* Warm the estimator: slow takes >= 100 us of service. *)
      ignore (Api.call w.rt b ~proc:"slow" [ V.int 1 ]);
      let options =
        { Api.Options.default with deadline = Some (Time.us 20) }
      in
      (match Api.call_result ~options w.rt b ~proc:"slow" [ V.int 2 ] with
      | Error (Api.Overloaded { reason; _ }) ->
          Alcotest.(check bool) "names the deadline budget" true
            (String.length reason > 0)
      | Ok _ -> Alcotest.fail "hopeless deadline must be refused"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
      (* An achievable deadline is still admitted. *)
      match
        Api.call_result
          ~options:{ Api.Options.default with deadline = Some (Time.ms 5) }
          w.rt b ~proc:"slow" [ V.int 3 ]
      with
      | Ok [ V.Int 3 ] -> ()
      | _ -> Alcotest.fail "achievable deadline must be admitted")

(* Policy bounds in the zero / one / max style: the smallest admitting
   value of each bound and max_int are accepted, and each value one
   step below its range (and min_int) is rejected. *)
let test_admission_policy_bounds () =
  let accepts what f =
    match f () with
    | (_ : Rt.admission) -> ()
    | exception Invalid_argument m -> Alcotest.failf "%s rejected: %s" what m
  in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  accepts "no bounds" (fun () -> Rt.admission_policy ());
  accepts "max_inflight 1" (fun () -> Rt.admission_policy ~max_inflight:1 ());
  accepts "max_inflight max_int" (fun () ->
      Rt.admission_policy ~max_inflight:max_int ());
  accepts "max_queue 0" (fun () -> Rt.admission_policy ~max_queue:0 ());
  accepts "max_queue 1" (fun () -> Rt.admission_policy ~max_queue:1 ());
  accepts "max_queue max_int" (fun () -> Rt.admission_policy ~max_queue:max_int ());
  accepts "target_sojourn 1 ns" (fun () ->
      Rt.admission_policy ~target_sojourn:(Time.ns 1) ());
  accepts "target_sojourn max_int" (fun () ->
      Rt.admission_policy ~target_sojourn:max_int ());
  List.iter
    (fun n ->
      rejects (Printf.sprintf "max_inflight %d" n) (fun () ->
          Rt.admission_policy ~max_inflight:n ()))
    [ 0; -1; min_int ];
  List.iter
    (fun n ->
      rejects (Printf.sprintf "max_queue %d" n) (fun () ->
          Rt.admission_policy ~max_queue:n ()))
    [ -1; min_int ];
  List.iter
    (fun t ->
      rejects (Printf.sprintf "target_sojourn %d ns" t) (fun () ->
          Rt.admission_policy ~target_sojourn:t ()))
    [ Time.zero; -1; min_int ];
  (* One bad bound rejects the policy whatever the others say. *)
  rejects "good max_queue, bad max_inflight" (fun () ->
      Rt.admission_policy ~max_inflight:0 ~max_queue:4 ~target_sojourn:(Time.us 40) ())

(* Satellite: a deadline expiring while the call is queued in the
   A-stack FIFO must remove the waiter, surface Deadline_exceeded, and
   leak nothing — later callers still get the A-stack. *)
let test_deadline_expires_while_queued () =
  let w = make_world ~processors:4 () in
  (* An empty policy: no limits, but its presence propagates deadlines
     into the FIFO wait. *)
  Api.set_admission w.rt (Some (Rt.admission_policy ()));
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  let failures = ref [] in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"holder" (fun () ->
         ignore (Api.call w.rt b ~proc:"slow_one" [ V.int 1 ])));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"deadliner" (fun () ->
         Engine.delay w.engine (Time.us 10);
         let options =
           { Api.Options.default with deadline = Some (Time.us 30) }
         in
         match Api.call_result ~options w.rt b ~proc:"slow_one" [ V.int 2 ] with
         | Error (Api.Deadline _) -> failures := `Deadline :: !failures
         | Ok _ -> Alcotest.fail "deadline must fire while queued"
         | Error f ->
             Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)));
  run_world w;
  Alcotest.(check int) "Deadline_exceeded surfaced" 1 (List.length !failures);
  Alcotest.(check int) "nothing left in flight" 0 (Api.calls_in_flight w.rt);
  (* No A-stack leaked: the single-stack pool still serves. *)
  in_client w (fun () ->
      match Api.call w.rt b ~proc:"slow_one" [ V.int 3 ] with
      | [ V.Int 3 ] -> ()
      | _ -> Alcotest.fail "pool must still grant after the expiry")

(* No policy installed: concurrent calls are never refused and the
   admission counters stay untouched — the off switch really is off. *)
let test_admission_off_rejects_nothing () =
  let w = make_world ~processors:4 () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
  let ok = ref 0 in
  for i = 0 to 3 do
    ignore
      (Kernel.spawn w.kernel w.client
         ~name:(Printf.sprintf "caller-%d" i)
         (fun () ->
           match Api.call_result w.rt b ~proc:"slow" [ V.int i ] with
           | Ok _ -> incr ok
           | Error f ->
               Alcotest.failf "unexpected failure: %s"
                 (Api.failure_to_string f)))
  done;
  run_world w;
  Alcotest.(check int) "all served" 4 !ok;
  Alcotest.(check int) "no rejections" 0
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_calls_rejected);
  Alcotest.(check int) "no admissions counted" 0
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_calls_admitted)

(* --- the headline: pipelining wins ---------------------------------------- *)

let throughput ~pipelined =
  let w = make_world ~processors:4 () in
  let calls = 40 in
  let elapsed = ref Time.zero in
  in_client w (fun () ->
      let b = Api.import w.rt ~domain:w.client ~interface:"Async" in
      let args = [ V.int 3; V.int 4 ] in
      (* warmup: fault the working set in *)
      for _ = 1 to 4 do
        ignore (Api.call w.rt b ~proc:"add" args)
      done;
      let t0 = Engine.now w.engine in
      if pipelined then
        for _ = 1 to calls / 4 do
          let hs =
            List.init 4 (fun _ -> Api.call_async w.rt b ~proc:"add" args)
          in
          ignore (Api.await_all w.rt hs)
        done
      else
        for _ = 1 to calls do
          ignore (Api.call w.rt b ~proc:"add" args)
        done;
      elapsed := Time.sub (Engine.now w.engine) t0);
  float_of_int calls /. Time.to_us !elapsed

let test_pipelined_throughput () =
  let serial = throughput ~pipelined:false in
  let piped = throughput ~pipelined:true in
  let speedup = piped /. serial in
  if speedup < 2.0 then
    Alcotest.failf
      "pipelined throughput only %.2fx serial (serial %.4f, piped %.4f \
       calls/us)"
      speedup serial piped

let () =
  Alcotest.run "lrpc_async"
    [
      ( "handles",
        [
          Alcotest.test_case "roundtrip" `Quick test_async_roundtrip;
          Alcotest.test_case "double await" `Quick test_double_await;
          Alcotest.test_case "sync unchanged" `Quick test_sync_call_still_works;
          Alcotest.test_case "await_any" `Quick test_await_any_picks_first_landed;
        ] );
      ( "back-pressure",
        [
          Alcotest.test_case "FIFO exhaustion" `Quick test_pool_exhaustion_fifo;
          Alcotest.test_case "issue blocks" `Quick
            test_async_issue_blocks_on_exhaustion;
        ] );
      ( "termination",
        [
          Alcotest.test_case "await after termination" `Quick
            test_await_after_server_termination;
        ] );
      ( "remote",
        [
          Alcotest.test_case "await_all mixed" `Quick
            test_await_all_mixed_local_remote;
        ] );
      ( "guards",
        [
          Alcotest.test_case "not in thread" `Quick test_not_in_thread;
          Alcotest.test_case "options record" `Quick test_options_record;
          Alcotest.test_case "trace events" `Quick test_trace_events;
        ] );
      ( "overload",
        [
          Alcotest.test_case "concurrency limit" `Quick
            test_admission_concurrency_limit;
          Alcotest.test_case "queue depth" `Quick test_admission_queue_depth;
          Alcotest.test_case "sojourn shed" `Quick test_admission_sojourn_shed;
          Alcotest.test_case "deadline-aware" `Quick
            test_admission_deadline_aware;
          Alcotest.test_case "deadline while queued" `Quick
            test_deadline_expires_while_queued;
          Alcotest.test_case "off by default" `Quick
            test_admission_off_rejects_nothing;
          Alcotest.test_case "policy bounds" `Quick test_admission_policy_bounds;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "2x throughput" `Quick test_pipelined_throughput;
        ] );
    ]
