(* Deterministic fault injection and the hardened call path.

   Covers the chaos soak (thousands of mixed calls under a seeded
   plan, all global invariants, bit-identical same-seed replay),
   deadlines and ?timeout through the §5.3 abort path, lossy-wire
   retry with at-most-once dedup, retry exhaustion, crash-safe
   A-stack recovery (mid-call crashes, FIFO waiters of a revoked
   binding, release_captured after a timeout abort), injected
   starvation and server exceptions, kernel hook handles, and the
   failure observability surface (Call_failed trace event, counters,
   Chrome export). Built against the Lrpc umbrella. *)

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
  I.interface "Fault"
    [
      I.proc "null" [];
      I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ];
      I.proc ~result:I.Int32 ~astacks:1 "slow_one" [ I.param "v" I.Int32 ];
      I.proc ~result:I.Int32 "slow" [ I.param "v" I.Int32 ];
      I.proc ~result:I.Int32 "hang" [ I.param "v" I.Int32 ];
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
  let delayed d ctx =
    Engine.delay engine d;
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
           ("slow_one", delayed (Time.us 100));
           ("slow", delayed (Time.us 100));
           ("hang", delayed (Time.us 50_000));
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

let import w = Api.import w.rt ~domain:w.client ~interface:"Fault"

let ctr w name =
  Lrpc_obs.Metrics.Counter.value
    (Lrpc_obs.Metrics.counter (Engine.metrics w.engine) name)

(* Every A-stack home and nobody left queued: the resource invariant
   all the recovery paths must restore. *)
let pool_balanced b proc =
  let pb = List.assoc proc b.Rt.b_procs in
  let pool = pb.Rt.pb_pool in
  Astack.free_count pool = List.length pool.Rt.ap_all
  && Astack.waiting pool = 0

let check_quiescent w =
  Alcotest.(check int) "no calls in flight" 0 (Api.calls_in_flight w.rt);
  Alcotest.(check int) "no linkages in use" 0 (Kernel.total_linkages w.kernel)

(* A far domain behind the Netrpc wire, counting server executions. *)
let add_remote ?rto ?max_attempts ?retry_budget w =
  let far = Kernel.create_domain w.kernel ~machine:1 ~name:"far" in
  let executed = ref 0 in
  let riface =
    I.interface "RFault"
      [ I.proc ~result:I.Int32 "recho" [ I.param "v" I.Int32 ] ]
  in
  let rb =
    Netrpc.import_remote ?rto ?max_attempts ?retry_budget ~window:4 w.rt
      ~client:w.client ~server:far riface
      ~impls:
        [
          ( "recho",
            function
            | [ V.Int v ] ->
                incr executed;
                [ V.int v ]
            | _ -> Alcotest.fail "recho: bad args" );
        ]
  in
  (rb, executed)

(* --- the chaos soak ------------------------------------------------------- *)

let test_soak_invariants () =
  let r = Fault_soak.run Fault_soak.default in
  Alcotest.(check bool) "all invariants hold" true (Fault_soak.ok r);
  Alcotest.(check int) "all calls issued" Fault_soak.default.Fault_soak.calls
    r.Fault_soak.r_calls;
  Alcotest.(check bool) "soak is big enough" true (r.Fault_soak.r_calls >= 5000);
  (* The plan must actually have bitten, or the soak proves nothing. *)
  Alcotest.(check bool) "wire retries happened" true (r.Fault_soak.r_retries > 0);
  Alcotest.(check bool) "a domain crashed" true (r.Fault_soak.r_crashes >= 1);
  Alcotest.(check bool) "starvation happened" true
    (r.Fault_soak.r_starvations > 0);
  Alcotest.(check bool) "stubs raised" true (r.Fault_soak.r_stub > 0);
  Alcotest.(check bool) "deadlines fired" true (r.Fault_soak.r_deadline > 0);
  Alcotest.(check bool) "contended fallback taken" true
    (r.Fault_soak.r_shard_contended > 0);
  (* JSON report shape, as consumed by `make fault-smoke`. *)
  let json = Fault_soak.report_to_json r in
  List.iter
    (fun key ->
      let sub = Printf.sprintf "\"%s\"" key in
      let found =
        let n = String.length json and m = String.length sub in
        let rec scan i = i + m <= n && (String.sub json i m = sub || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (key ^ " in JSON") true found)
    [
      "seed"; "outcomes"; "faults"; "invariants"; "net_retries";
      "pool_balanced"; "no_stuck_threads"; "digest";
    ]

let test_soak_replay_identical () =
  let r1 = Fault_soak.run Fault_soak.default in
  let r2 = Fault_soak.run Fault_soak.default in
  Alcotest.(check string) "same seed, same trace digest"
    r1.Fault_soak.r_digest r2.Fault_soak.r_digest;
  let r3 = Fault_soak.run { Fault_soak.default with Fault_soak.seed = 7L } in
  Alcotest.(check bool) "different seed diverges" true
    (Fault_soak.ok r3 && r3.Fault_soak.r_digest <> r1.Fault_soak.r_digest)

(* The soak on a clustered machine — rings, distance premiums and
   near/far counters live — still holds every invariant, and the
   topology actually steers steals. *)
let test_soak_clustered () =
  let clu = Cost_model.clustered ~cluster_size:2 ~name:"clu2" cm in
  let r =
    Fault_soak.run
      { Fault_soak.default with Fault_soak.calls = 1500; cost_model = Some clu }
  in
  Alcotest.(check bool) "invariants hold" true (Fault_soak.ok r);
  Alcotest.(check bool) "topology steals happened" true
    (r.Fault_soak.r_steals_near + r.Fault_soak.r_steals_far > 0)

(* A soak of no calls or no clients would hold every invariant
   vacuously, so it is refused. *)
let test_soak_rejects_empty () =
  List.iter
    (fun (calls, clients) ->
      match
        Fault_soak.run { Fault_soak.default with Fault_soak.calls; clients }
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "calls %d, clients %d accepted" calls clients)
    [ (0, 8); (-5, 8); (100, 0); (100, -3) ]

(* The kernel's running linkage total against the two views it sums up:
   the gauge it publishes and the per-thread counts over every domain's
   threads. Checked every 50 us while deadlines abort calls inside the
   server and, at 2 ms, the server domain crashes with calls in
   flight. *)
let test_linkage_total_mid_soak () =
  let w = make_world ~processors:4 () in
  let gauge =
    Lrpc_obs.Metrics.gauge (Engine.metrics w.engine)
      "kernel.linkages_outstanding"
  in
  let checks = ref 0 and busiest = ref 0 in
  let check () =
    let total = Kernel.total_linkages w.kernel in
    let per_thread =
      List.fold_left
        (fun acc d ->
          List.fold_left
            (fun acc th -> acc + Kernel.outstanding_linkages w.kernel th)
            acc d.Pdomain.threads)
        0 (Kernel.domains w.kernel)
    in
    Alcotest.(check int) "total = gauge" total
      (int_of_float (Lrpc_obs.Metrics.Gauge.value gauge));
    Alcotest.(check int) "total = per-thread sum" total per_thread;
    incr checks;
    busiest := max !busiest total;
    total
  in
  let rec tick at =
    ignore
      (Engine.at w.engine at (fun () ->
           ignore (check ());
           if at < Time.ms 20 then tick (Time.add at (Time.us 50))))
  in
  tick Time.zero;
  let at_crash = ref 0 in
  ignore
    (Engine.at w.engine (Time.ms 2) (fun () ->
         at_crash := check ();
         Kernel.terminate_domain w.kernel w.server));
  let deadlines = ref 0 in
  let tight = { Api.Options.default with deadline = Some (Time.us 300) } in
  for i = 1 to 4 do
    ignore
      (Kernel.spawn w.kernel w.client ~name:(Printf.sprintf "client-%d" i)
         (fun () ->
           let b = import w in
           for j = 1 to 40 do
             let options, proc =
               match j mod 3 with
               | 0 -> (tight, "hang")
               | 1 -> (tight, "slow")
               | _ -> (Api.Options.default, "slow")
             in
             let outcome = Api.call_result ~options w.rt b ~proc [ V.int j ] in
             match outcome with
             | Error (Api.Deadline _) -> incr deadlines
             | Ok _ | Error _ -> ()
           done))
  done;
  run_world w;
  Alcotest.(check bool) "checked throughout" true (!checks > 100);
  Alcotest.(check bool) "deadlines aborted calls" true (!deadlines > 0);
  Alcotest.(check bool) "crash hit calls in flight" true (!at_crash > 0);
  Alcotest.(check bool) "several linkages at once" true (!busiest > 1);
  ignore (check ());
  check_quiescent w

(* --- fault-plan specs ------------------------------------------------------

   Boundary values in the zero / one / max style: every probability at 0
   and 1, every mean, duration and crash time at 0 and max_float, an
   empty storm window; and each field just outside its range. *)

let test_plan_spec_bounds () =
  let n = Fault_plan.none in
  let verdict spec =
    match Fault_plan.make spec with
    | _ -> Ok ()
    | exception Invalid_argument m -> Error m
  in
  let accepts what spec =
    match verdict spec with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s rejected: %s" what m
  in
  let rejects what spec =
    match verdict spec with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  let probabilities =
    [
      ("wire_drop", fun p -> { n with Fault_plan.wire_drop = p });
      ("wire_reply_drop", fun p -> { n with Fault_plan.wire_reply_drop = p });
      ("wire_duplicate", fun p -> { n with Fault_plan.wire_duplicate = p });
      ("wire_delay", fun p -> { n with Fault_plan.wire_delay = p });
      ("server_exn", fun p -> { n with Fault_plan.server_exn = p });
      ("starvation", fun p -> { n with Fault_plan.starvation = p });
      ("storm_reply_drop", fun p -> { n with Fault_plan.storm_reply_drop = p });
      ("pkt_drop", fun p -> { n with Fault_plan.pkt_drop = p });
      ("pkt_ecn", fun p -> { n with Fault_plan.pkt_ecn = p });
      ("pkt_dup", fun p -> { n with Fault_plan.pkt_dup = p });
      ("pkt_delay", fun p -> { n with Fault_plan.pkt_delay = p });
    ]
  in
  let magnitudes =
    [
      ( "wire_delay_mean_us",
        fun x -> { n with Fault_plan.wire_delay_mean_us = x } );
      ("starvation_us", fun x -> { n with Fault_plan.starvation_us = x });
      ( "pkt_delay_mean_us",
        fun x -> { n with Fault_plan.pkt_delay_mean_us = x } );
      ("crash time", fun x -> { n with Fault_plan.crashes = [ (x, "srv") ] });
    ]
  in
  let check_all fields ~ok ~bad =
    List.iter
      (fun (field, set) ->
        let what v = Printf.sprintf "%s = %g" field v in
        List.iter (fun v -> accepts (what v) (set v)) ok;
        List.iter (fun v -> rejects (what v) (set v)) bad)
      fields
  in
  check_all probabilities ~ok:[ 0.0; 0.5; 1.0 ]
    ~bad:
      [
        -0.01; -.min_float; 1.01; Float.nan; Float.infinity; Float.neg_infinity;
      ];
  check_all magnitudes ~ok:[ 0.0; 1.0; max_float ]
    ~bad:[ -1.0; -.min_float; Float.nan; Float.neg_infinity ];
  let storm from until =
    { n with Fault_plan.storm_from_us = from; storm_until_us = until }
  in
  accepts "empty storm window" (storm 5.0 5.0);
  accepts "storm window" (storm 0.0 1e12);
  rejects "storm ends before it starts" (storm 10.0 5.0);
  rejects "storm until NaN" (storm 0.0 Float.nan);
  accepts "Soak.default" Fault_soak.default.Fault_soak.spec

(* Plan.none installed under a soak injects nothing. *)
let test_plan_none_inert () =
  let r =
    Fault_soak.run
      {
        Fault_soak.default with
        Fault_soak.calls = 1500;
        spec = Fault_plan.none;
      }
  in
  Alcotest.(check bool) "invariants hold" true (Fault_soak.ok r);
  List.iter
    (fun (what, v) -> Alcotest.(check int) what 0 v)
    [
      ("crashes", r.Fault_soak.r_crashes);
      ("starvations", r.Fault_soak.r_starvations);
      ("stub exceptions", r.Fault_soak.r_stub);
      ("retries", r.Fault_soak.r_retries);
      ("duplicates suppressed", r.Fault_soak.r_dups_suppressed);
    ];
  (* The counters the report leaves out, on a small world of local and
     remote calls. *)
  let w = make_world ~processors:2 () in
  let rb, executed = add_remote w in
  Fault_plan.install (Fault_plan.make Fault_plan.none) w.rt;
  in_client w (fun () ->
      let b = import w in
      for i = 1 to 20 do
        (match Api.call_result w.rt b ~proc:"add" [ V.int i; V.int 1 ] with
        | Ok [ V.Int v ] when v = i + 1 -> ()
        | _ -> Alcotest.fail "local call failed under Plan.none");
        match Api.call_result w.rt rb ~proc:"recho" [ V.int i ] with
        | Ok [ V.Int v ] when v = i -> ()
        | _ -> Alcotest.fail "remote call failed under Plan.none"
      done);
  Alcotest.(check int) "remote executions" 20 !executed;
  List.iter
    (fun name -> Alcotest.(check int) name 0 (ctr w name))
    [
      "fault.wire_faults";
      "fault.server_exns";
      "fault.crashes";
      "fault.astack_starvations";
      "net.retries";
    ];
  check_quiescent w

(* server_exn = 1.0: every local call, synchronous or pipelined, surfaces
   as Stub_raised. *)
let test_plan_every_server_exn () =
  let w = make_world ~processors:2 () in
  Fault_plan.install
    (Fault_plan.make
       { Fault_plan.none with Fault_plan.seed = 5L; server_exn = 1.0 })
    w.rt;
  let b = import w in
  let outcomes = ref [] in
  in_client w (fun () ->
      for i = 1 to 12 do
        let proc, args =
          match i mod 3 with
          | 0 -> ("null", [])
          | 1 -> ("add", [ V.int i; V.int 1 ])
          | _ -> ("slow", [ V.int i ])
        in
        outcomes := Api.call_result w.rt b ~proc args :: !outcomes
      done;
      let hs =
        List.init 3 (fun i -> Api.call_async w.rt b ~proc:"slow" [ V.int i ])
      in
      outcomes := Api.await_all_results w.rt hs @ !outcomes);
  List.iter
    (function
      | Error (Api.Stub_raised _) -> ()
      | Ok _ -> Alcotest.fail "a call escaped the injected exception"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f))
    !outcomes;
  Alcotest.(check int) "every call injected" 15 (ctr w "fault.server_exns");
  Alcotest.(check bool) "pool balanced" true (pool_balanced b "slow");
  check_quiescent w

(* wire_drop = 1.0: every classic remote call fails after its attempts,
   and the server never executes. *)
let test_plan_every_request_dropped () =
  let w = make_world ~processors:2 () in
  let rb, executed = add_remote ~max_attempts:2 w in
  Fault_plan.install
    (Fault_plan.make
       { Fault_plan.none with Fault_plan.seed = 6L; wire_drop = 1.0 })
    w.rt;
  let failed = ref 0 in
  in_client w (fun () ->
      for i = 1 to 10 do
        match Api.call_result w.rt rb ~proc:"recho" [ V.int i ] with
        | Error (Api.Failed msg) ->
            let sub = "after 2 attempts" in
            let n = String.length msg and m = String.length sub in
            let rec scan i =
              i + m <= n && (String.sub msg i m = sub || scan (i + 1))
            in
            if scan 0 then incr failed
            else Alcotest.failf "unexpected failure message: %s" msg
        | Ok _ -> Alcotest.fail "a request got through"
        | Error f ->
            Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)
      done);
  Alcotest.(check int) "every call failed" 10 !failed;
  Alcotest.(check int) "server never executed" 0 !executed;
  Alcotest.(check int) "one retry per call" 10 (ctr w "net.retries");
  Alcotest.(check int) "every attempt faulted" 20 (ctr w "fault.wire_faults");
  check_quiescent w

(* --- deadlines ------------------------------------------------------------ *)

let test_deadline_at_issue () =
  let w = make_world ~processors:2 () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Fault" in
  in_client w (fun () ->
      let options =
        { Api.Options.default with deadline = Some (Time.us 20) }
      in
      (* Synchronous with a deadline: rides a carrier, aborts cleanly. *)
      (match Api.call_result ~options w.rt b ~proc:"slow" [ V.int 1 ] with
      | Error (Api.Deadline _) -> ()
      | Ok _ -> Alcotest.fail "slow call beat a 20us deadline"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
      (* Pipelined batch under the same deadline: every handle drains. *)
      let hs =
        List.init 3 (fun i ->
            Api.call_async ~options w.rt b ~proc:"slow" [ V.int i ])
      in
      List.iter
        (function
          | Error (Api.Deadline _) -> ()
          | Ok _ -> Alcotest.fail "batched slow call beat the deadline"
          | Error f ->
              Alcotest.failf "wrong failure: %s" (Api.failure_to_string f))
        (Api.await_all_results w.rt hs));
  (* The abandoned carriers bring the A-stacks home when they return. *)
  Alcotest.(check bool) "pool balanced" true (pool_balanced b "slow");
  check_quiescent w

let test_timeout_during_await_all () =
  let w = make_world ~processors:2 () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Fault" in
  in_client w (fun () ->
      let hs =
        List.init 3 (fun i -> Api.call_async w.rt b ~proc:"slow" [ V.int i ])
      in
      (match Api.await_all ~timeout:(Time.us 10) w.rt hs with
      | _ -> Alcotest.fail "await_all should hit the timeout"
      | exception Rt.Deadline_exceeded _ -> ());
      (* The first handle was consumed by the failed await; the rest are
         still live and must drain normally. *)
      List.iter
        (function
          | Ok [ V.Int _ ] -> ()
          | Ok _ -> Alcotest.fail "wrong result shape"
          | Error f ->
              Alcotest.failf "late call failed: %s" (Api.failure_to_string f))
        (Api.await_all_results w.rt (List.tl hs)));
  Alcotest.(check bool) "pool balanced" true (pool_balanced b "slow");
  check_quiescent w

let test_release_captured_after_timeout () =
  let w = make_world ~processors:2 () in
  let replacement_ran = ref false in
  in_client w (fun () ->
      let b = import w in
      let h = Api.call_async w.rt b ~proc:"hang" [ V.int 1 ] in
      (* Let the carrier get captured inside the server procedure. *)
      Engine.delay w.engine (Time.us 300);
      (match Api.await_result ~timeout:(Time.us 100) w.rt h with
      | Error (Api.Deadline _) -> ()
      | _ -> Alcotest.fail "hang should exceed the timeout");
      (* §5.3 second half: the abandoned carrier can still be released
         with a replacement thread in the client. *)
      let captured =
        match Call_handle.carrier h with
        | Some c -> c
        | None -> Alcotest.fail "carrier missing"
      in
      ignore
        (Api.release_captured w.rt ~captured ~replacement:(fun () ->
             replacement_ran := true)));
  Alcotest.(check bool) "replacement ran" true !replacement_ran;
  check_quiescent w

(* --- the lossy wire ------------------------------------------------------- *)

let test_retry_exhaustion () =
  let w = make_world ~processors:2 () in
  let rb, executed = add_remote ~max_attempts:3 w in
  let plan =
    Fault_plan.make { Fault_plan.none with Fault_plan.seed = 1L; wire_drop = 1.0 }
  in
  Fault_plan.install plan w.rt;
  in_client w (fun () ->
      match Api.call_result w.rt rb ~proc:"recho" [ V.int 5 ] with
      | Error (Api.Failed msg) ->
          Alcotest.(check bool) "names the attempt count" true
            (let n = String.length msg in
             let sub = "after 3 attempts" and m = 16 in
             let rec scan i =
               i + m <= n && (String.sub msg i m = sub || scan (i + 1))
             in
             scan 0)
      | Ok _ -> Alcotest.fail "call should fail: every request is dropped"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
  Alcotest.(check int) "one retry per extra attempt" 2 (ctr w "net.retries");
  Alcotest.(check int) "server never executed" 0 !executed;
  check_quiescent w

(* Hand-built fault hooks (no plan): drop the reply on the first call's
   first attempt, duplicate the second call's request. At-most-once
   means the server executes each call exactly once either way. *)
let test_at_most_once () =
  let w = make_world ~processors:2 () in
  let rb, executed = add_remote w in
  let f_wire ~proc:_ ~seq ~attempt =
    if seq = 0 && attempt = 1 then
      { Rt.wire_ok with Rt.wf_reply_lost = true }
    else if seq = 1 && attempt = 1 then
      { Rt.wire_ok with Rt.wf_duplicate = true }
    else Rt.wire_ok
  in
  w.rt.Rt.faults <-
    Some
      {
        Rt.f_wire;
        f_packet = (fun ~proc:_ ~seq:_ ~pkt:_ ~attempt:_ -> Rt.packet_ok);
        f_backoff_jitter = (fun ~binding:_ ~attempt:_ -> 0.0);
        f_server_exn = (fun ~proc:_ -> None);
        f_starvation = (fun ~proc:_ -> None);
      };
  in_client w (fun () ->
      (* Reply lost: the retransmit must be answered from the dedup
         cache, not by re-executing the procedure. *)
      (match Api.call_result w.rt rb ~proc:"recho" [ V.int 7 ] with
      | Ok [ V.Int 7 ] -> ()
      | _ -> Alcotest.fail "lossy-reply call should still succeed");
      Alcotest.(check int) "executed once despite retransmit" 1 !executed;
      (* Duplicated request: the second delivery is suppressed. *)
      (match Api.call_result w.rt rb ~proc:"recho" [ V.int 8 ] with
      | Ok [ V.Int 8 ] -> ()
      | _ -> Alcotest.fail "duplicated call should still succeed"));
  Alcotest.(check int) "each call executed exactly once" 2 !executed;
  Alcotest.(check int) "one retry" 1 (ctr w "net.retries");
  Alcotest.(check int) "both duplicates suppressed" 2
    (ctr w "net.duplicates_suppressed");
  check_quiescent w

(* Client-side retry budget: under a wire that drops every reply, an
   unbudgeted client retries up to max_attempts per call; a budgeted
   one spends its token bucket, then gives up with [Overloaded] and a
   backoff hint, and [net.retries_suppressed] counts the suppression. *)
let test_retry_budget_suppression () =
  let w = make_world ~processors:2 () in
  let rb, executed = add_remote ~max_attempts:50 ~retry_budget:0.1 w in
  let plan =
    Fault_plan.make
      { Fault_plan.none with Fault_plan.seed = 3L; wire_reply_drop = 1.0 }
  in
  Fault_plan.install plan w.rt;
  let overloaded = ref 0 and hint = ref 0.0 in
  in_client w (fun () ->
      for i = 1 to 5 do
        match Api.call_result w.rt rb ~proc:"recho" [ V.int i ] with
        | Error (Api.Overloaded { retry_after_us; _ }) ->
            incr overloaded;
            hint := retry_after_us
        | Ok _ -> Alcotest.fail "every reply is dropped"
        | Error f ->
            Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)
      done);
  (* The bucket starts at the 10-token cap and accrues 0.1 per call:
     ~10 retries total across all five calls, not 49 per call. *)
  Alcotest.(check int) "every call gave up on its budget" 5 !overloaded;
  Alcotest.(check bool) "suppressions counted" true
    (ctr w "net.retries_suppressed" >= 5);
  Alcotest.(check bool) "retries bounded by the bucket" true
    (ctr w "net.retries" <= 11);
  Alcotest.(check bool) "positive retry-after hint" true (!hint > 0.0);
  (* The server executed each call's first attempt; replies were lost
     at-most-once-safely, so no call ran more than once. *)
  Alcotest.(check int) "one execution per call" 5 !executed;
  check_quiescent w

(* At-most-once state is bounded by the traffic, not by a knob: each
   call's cell lives only while its transport call is open, so even
   while many lossy calls hold theirs across retransmissions, live
   cells never exceed the binding's window (4) or the number of
   concurrent callers, and the peak gauge proves they were exercised. *)
let test_dedup_cache_bounded () =
  let w = make_world ~processors:4 () in
  let rb, executed = add_remote w in
  (* Every first attempt loses its reply, so each call's cell stays
     live until its second attempt's reply lands. *)
  let f_wire ~proc:_ ~seq:_ ~attempt =
    if attempt = 1 then { Rt.wire_ok with Rt.wf_reply_lost = true }
    else Rt.wire_ok
  in
  w.rt.Rt.faults <-
    Some
      {
        Rt.f_wire;
        f_packet = (fun ~proc:_ ~seq:_ ~pkt:_ ~attempt:_ -> Rt.packet_ok);
        f_backoff_jitter = (fun ~binding:_ ~attempt:_ -> 0.0);
        f_server_exn = (fun ~proc:_ -> None);
        f_starvation = (fun ~proc:_ -> None);
      };
  let calls_per_client = 5 and clients = 4 in
  for c = 0 to clients - 1 do
    ignore
      (Kernel.spawn w.kernel w.client
         ~name:(Printf.sprintf "lossy-%d" c)
         (fun () ->
           for i = 1 to calls_per_client do
             match Api.call_result w.rt rb ~proc:"recho" [ V.int i ] with
             | Ok [ V.Int v ] when v = i -> ()
             | _ -> Alcotest.fail "lossy call must still succeed"
           done))
  done;
  run_world w;
  let gauge name =
    int_of_float
      (Lrpc_obs.Metrics.Gauge.value
         (Lrpc_obs.Metrics.gauge (Engine.metrics w.engine) name))
  in
  Alcotest.(check int) "cache empty at quiescence" 0
    (gauge "net.dedup_cache_entries");
  Alcotest.(check bool) "cache was exercised" true
    (gauge "net.dedup_cache_peak" >= 2);
  Alcotest.(check bool) "peak within the window and the callers" true
    (gauge "net.dedup_cache_peak" <= min 4 clients);
  Alcotest.(check int) "every call executed exactly once"
    (calls_per_client * clients)
    !executed;
  Alcotest.(check int) "one retry per call"
    (calls_per_client * clients)
    (ctr w "net.retries");
  check_quiescent w

(* The tentpole's chaos scenario: a seeded retry storm (a window where
   most replies vanish, so clients pile on retransmissions). Without a
   budget the storm feeds itself for the whole window; with one, the
   token buckets drain and the storm decays into fast, typed
   [Overloaded] failures. Both runs must hold every soak invariant —
   including failure accounting. *)
let test_retry_storm_budget_decay () =
  let spec =
    {
      Fault_plan.none with
      Fault_plan.wire_reply_drop = 0.02;
      storm_from_us = 0.0;
      storm_until_us = 1e12;
      storm_reply_drop = 0.85;
    }
  in
  let cfg retry_budget =
    {
      Fault_soak.default with
      Fault_soak.seed = 11L;
      calls = 1200;
      spec;
      remote_share = 0.5;
      retry_budget;
    }
  in
  let unbudgeted = Fault_soak.run (cfg None) in
  let budgeted = Fault_soak.run (cfg (Some 0.1)) in
  Alcotest.(check bool) "unbudgeted soak invariants" true
    (Fault_soak.ok unbudgeted);
  Alcotest.(check bool) "budgeted soak invariants" true
    (Fault_soak.ok budgeted);
  (* The storm must actually rage in the baseline... *)
  Alcotest.(check bool) "storm drove retries" true
    (unbudgeted.Fault_soak.r_retries > 200);
  Alcotest.(check int) "no suppressions without a budget" 0
    unbudgeted.Fault_soak.r_retries_suppressed;
  (* ...and decay under the budget: retransmissions collapse to a small
     fraction, surfacing as suppressions and typed Overloaded outcomes. *)
  Alcotest.(check bool) "budget made the storm decay" true
    (budgeted.Fault_soak.r_retries * 2 < unbudgeted.Fault_soak.r_retries);
  Alcotest.(check bool) "suppressions counted" true
    (budgeted.Fault_soak.r_retries_suppressed > 0);
  Alcotest.(check bool) "overloaded outcomes surfaced" true
    (budgeted.Fault_soak.r_overloaded > 0)

(* --- crash-safe A-stack recovery ------------------------------------------ *)

let test_crash_between_checkout_and_dispatch () =
  let w = make_world () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Fault" in
  in_client w (fun () ->
      (* The A-stack is checked out and the carrier spawned, but the
         server dies before (or just as) the carrier dispatches. *)
      let h = Api.call_async w.rt b ~proc:"slow" [ V.int 3 ] in
      Api.terminate_domain w.rt w.server;
      match Api.await_result w.rt h with
      | Error (Api.Rejected _ | Api.Failed _) -> ()
      | Ok _ -> Alcotest.fail "call into a dead domain should not succeed"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
  Alcotest.(check bool) "A-stack came home" true (pool_balanced b "slow");
  check_quiescent w

let test_revoked_binding_fails_waiter () =
  let w = make_world ~processors:2 () in
  let b = Api.import w.rt ~domain:w.client ~interface:"Fault" in
  let waiter_result = ref None in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"holder" (fun () ->
         (* Claims slow_one's single A-stack for ~100us. *)
         let h = Api.call_async w.rt b ~proc:"slow_one" [ V.int 1 ] in
         ignore (Api.await_result w.rt h)));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"queued" (fun () ->
         Engine.delay w.engine (Time.us 5);
         (* Blocks in the pool's FIFO behind the holder. *)
         waiter_result := Some (Api.call_result w.rt b ~proc:"slow_one" [ V.int 2 ])));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"killer" (fun () ->
         Engine.delay w.engine (Time.us 30);
         Api.terminate_domain w.rt w.server));
  run_world w;
  (match !waiter_result with
  | Some (Error (Api.Failed msg)) ->
      Alcotest.(check bool) "reason mentions revocation" true
        (let n = String.length msg in
         let sub = "revoked" and m = 7 in
         let rec scan i = i + m <= n && (String.sub msg i m = sub || scan (i + 1)) in
         scan 0)
  | Some (Ok _) -> Alcotest.fail "queued waiter must not be granted a dead binding"
  | Some (Error f) ->
      Alcotest.failf "wrong failure: %s" (Api.failure_to_string f)
  | None -> Alcotest.fail "waiter never resolved");
  Alcotest.(check bool) "A-stack came home" true (pool_balanced b "slow_one");
  check_quiescent w

let test_injected_starvation () =
  let w = make_world () in
  let plan =
    Fault_plan.make
      {
        Fault_plan.none with
        Fault_plan.seed = 42L;
        starvation = 1.0;
        starvation_us = 50.0;
      }
  in
  Fault_plan.install plan w.rt;
  in_client w (fun () ->
      let b = import w in
      let t0 = Engine.now w.engine in
      (match Api.call_result w.rt b ~proc:"null" [] with
      | Ok [] -> ()
      | _ -> Alcotest.fail "starved call should still complete");
      Alcotest.(check bool) "checkout was held up" true
        (Time.to_us (Time.sub (Engine.now w.engine) t0) >= 50.);
      Alcotest.(check bool) "pool balanced" true (pool_balanced b "null"));
  Alcotest.(check bool) "starvation counted" true
    (ctr w "fault.astack_starvations" >= 1);
  check_quiescent w

let test_injected_server_exn () =
  let w = make_world () in
  let plan =
    Fault_plan.make
      { Fault_plan.none with Fault_plan.seed = 9L; server_exn = 1.0 }
  in
  Fault_plan.install plan w.rt;
  in_client w (fun () ->
      let b = import w in
      (match Api.call_result w.rt b ~proc:"add" [ V.int 1; V.int 2 ] with
      | Error (Api.Stub_raised msg) ->
          Alcotest.(check bool) "names the injection" true
            (let n = String.length msg in
             let sub = "injected" and m = 8 in
             let rec scan i =
               i + m <= n && (String.sub msg i m = sub || scan (i + 1))
             in
             scan 0)
      | Ok _ -> Alcotest.fail "stub fault should surface"
      | Error f -> Alcotest.failf "wrong failure: %s" (Api.failure_to_string f));
      Fault_plan.uninstall plan w.rt;
      (* Fault-free fast path restored. *)
      match Api.call_result w.rt b ~proc:"add" [ V.int 1; V.int 2 ] with
      | Ok [ V.Int 3 ] -> ()
      | _ -> Alcotest.fail "call should succeed after uninstall");
  check_quiescent w

(* --- kernel hook handles -------------------------------------------------- *)

let test_hook_handles () =
  let engine = Engine.create ~processors:1 cm in
  let kernel = Kernel.boot engine in
  let d = Kernel.create_domain kernel ~name:"victim" in
  let hits = ref [] in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate ~key:"collector" kernel (fun _ -> hits := 1 :: !hits)
  in
  let _ : Kernel.hook_handle =
    Kernel.on_terminate ~key:"collector" kernel (fun _ -> hits := 2 :: !hits)
  in
  let h3 = Kernel.on_terminate kernel (fun _ -> hits := 3 :: !hits) in
  Kernel.remove_terminate_hook kernel h3;
  Kernel.terminate_domain kernel d;
  Alcotest.(check (list int)) "keyed hook replaced, removed hook silent" [ 2 ]
    !hits

let test_repeated_init () =
  (* Api.init twice on one kernel: the keyed collector hook is replaced,
     not accumulated, and the live runtime's collector still revokes. *)
  let engine = Engine.create ~processors:1 cm in
  let kernel = Kernel.boot engine in
  let _rt1 : Api.t = Api.init kernel in
  let rt2 = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"srv" in
  let client = Kernel.create_domain kernel ~name:"app" in
  ignore
    (Api.export rt2 ~domain:server iface
       ~impls:
         [
           ("null", fun _ -> []);
           ("add", fun _ -> [ V.int 0 ]);
           ("slow_one", fun _ -> [ V.int 0 ]);
           ("slow", fun _ -> [ V.int 0 ]);
           ("hang", fun _ -> [ V.int 0 ]);
         ]);
  ignore
    (Kernel.spawn kernel client ~name:"c" (fun () ->
         let b = Api.import rt2 ~domain:client ~interface:"Fault" in
         (match Api.call_result rt2 b ~proc:"null" [] with
         | Ok [] -> ()
         | _ -> Alcotest.fail "call before termination should succeed");
         Api.terminate_domain rt2 server;
         match Api.call_result rt2 b ~proc:"null" [] with
         | Error (Api.Rejected _) -> ()
         | _ -> Alcotest.fail "collector should have revoked the binding"));
  Engine.run engine;
  match Engine.failures engine with
  | [] -> ()
  | (th, exn) :: _ ->
      Alcotest.failf "thread %s died: %s" (Engine.thread_name th)
        (Printexc.to_string exn)

(* --- observability -------------------------------------------------------- *)

let test_failure_observability () =
  let w = make_world ~processors:2 () in
  let tr = Trace.create () in
  Engine.set_tracer w.engine (Some tr);
  let got = ref None in
  let b = Api.import w.rt ~domain:w.client ~interface:"Fault" in
  ignore
    (Kernel.spawn w.kernel w.client ~name:"caller" (fun () ->
         got := Some (Api.call_result w.rt b ~proc:"slow" [ V.int 1 ])));
  ignore
    (Kernel.spawn w.kernel w.client ~name:"killer" (fun () ->
         Engine.delay w.engine (Time.us 150);
         Api.terminate_domain w.rt w.server));
  run_world w;
  Engine.set_tracer w.engine None;
  (match !got with
  | Some (Error (Api.Failed _)) -> ()
  | _ -> Alcotest.fail "expected a Failed outcome");
  Alcotest.(check bool) "call-failed event traced" true
    (List.length (Trace.find tr ~kind:"call-failed") >= 1);
  Alcotest.(check bool) "lrpc.calls_failed counted" true
    (Lrpc_obs.Metrics.Counter.value w.rt.Rt.c_calls_failed >= 1);
  (* The failure must survive into the Chrome export. *)
  let chrome = Lrpc_obs.Chrome_trace.to_json tr in
  Alcotest.(check bool) "call-failed in Chrome JSON" true
    (let n = String.length chrome in
     let sub = "call-failed" and m = 11 in
     let rec scan i = i + m <= n && (String.sub chrome i m = sub || scan (i + 1)) in
     scan 0)

let () =
  Alcotest.run "lrpc_fault"
    [
      ( "soak",
        [
          Alcotest.test_case "invariants" `Quick test_soak_invariants;
          Alcotest.test_case "replay identical" `Quick
            test_soak_replay_identical;
          Alcotest.test_case "clustered engine domains" `Quick
            test_soak_clustered;
          Alcotest.test_case "empty soak rejected" `Quick
            test_soak_rejects_empty;
          Alcotest.test_case "linkage total mid-soak" `Quick
            test_linkage_total_mid_soak;
        ] );
      ( "plan specs",
        [
          Alcotest.test_case "field bounds" `Quick test_plan_spec_bounds;
          Alcotest.test_case "none is inert" `Quick test_plan_none_inert;
          Alcotest.test_case "every server exn" `Quick
            test_plan_every_server_exn;
          Alcotest.test_case "every request dropped" `Quick
            test_plan_every_request_dropped;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "deadline at issue" `Quick test_deadline_at_issue;
          Alcotest.test_case "timeout during await_all" `Quick
            test_timeout_during_await_all;
          Alcotest.test_case "release_captured after timeout" `Quick
            test_release_captured_after_timeout;
        ] );
      ( "wire",
        [
          Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "at-most-once" `Quick test_at_most_once;
          Alcotest.test_case "retry budget" `Quick
            test_retry_budget_suppression;
          Alcotest.test_case "dedup cache bounded" `Quick
            test_dedup_cache_bounded;
          Alcotest.test_case "retry storm decay" `Quick
            test_retry_storm_budget_decay;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash before dispatch" `Quick
            test_crash_between_checkout_and_dispatch;
          Alcotest.test_case "revoked binding fails waiter" `Quick
            test_revoked_binding_fails_waiter;
          Alcotest.test_case "injected starvation" `Quick
            test_injected_starvation;
          Alcotest.test_case "injected server exn" `Quick
            test_injected_server_exn;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "handles" `Quick test_hook_handles;
          Alcotest.test_case "repeated init" `Quick test_repeated_init;
        ] );
      ( "observability",
        [
          Alcotest.test_case "failure surface" `Quick
            test_failure_observability;
        ] );
    ]
