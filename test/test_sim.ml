open Lrpc_sim

let cm = Cost_model.cvax_firefly
let cm_no_bus = { cm with Cost_model.bus_alpha = 0.0 }

let check_time = Alcotest.(check int)

(* --- Time -------------------------------------------------------------- *)

let test_time_units () =
  check_time "us" 1_000 (Time.us 1);
  check_time "ms" 1_000_000 (Time.ms 1);
  check_time "us_f rounds" 900 (Time.us_f 0.9);
  check_time "us_f rounds up" 1_667 (Time.us_f 1.667);
  Alcotest.(check (float 1e-9)) "to_us" 0.9 (Time.to_us (Time.ns 900));
  check_time "scale" 150 (Time.scale 100 1.5)

(* --- Heap -------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:30 "c";
  Heap.push h ~time:10 "a";
  Heap.push h ~time:20 "b";
  let pops = List.init 3 (fun _ -> Heap.pop h) in
  Alcotest.(check (list (option (pair int string))))
    "sorted"
    [ Some (10, "a"); Some (20, "b"); Some (30, "c") ]
    pops;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~time:5 "first";
  Heap.push h ~time:5 "second";
  Heap.push h ~time:5 "third";
  let order =
    List.init 3 (fun _ -> match Heap.pop h with Some (_, x) -> x | None -> "?")
  in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let prev = ref min_int and ok = ref true in
      let rec drain () =
        match Heap.pop h with
        | Some (t, ()) ->
            if t < !prev then ok := false;
            prev := t;
            drain ()
        | None -> ()
      in
      drain ();
      !ok)

let test_heap_take_top_time () =
  let h = Heap.create () in
  Heap.push h ~time:7 "b";
  Heap.push h ~time:3 "a";
  check_time "top_time" 3 (Heap.top_time h);
  Alcotest.(check string) "take min" "a" (Heap.take h);
  check_time "top after take" 7 (Heap.top_time h);
  Alcotest.(check string) "take next" "b" (Heap.take h);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Heap.take: empty heap") (fun () ->
      ignore (Heap.take h))

(* Random push/pop interleavings against a sorted-list reference model:
   pops must come back in nondecreasing time order with FIFO on equal
   timestamps, exactly as a stable insertion sort would produce. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list reference model" ~count:300
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let pop_and_check () =
        match (Heap.pop h, !model) with
        | None, [] -> ()
        | Some (t, i), (t', i') :: rest when t = t' && i = i' -> model := rest
        | _ -> ok := false
      in
      List.iter
        (function
          | Some time ->
              let id = !next_id in
              incr next_id;
              Heap.push h ~time id;
              (* Stable insert: after every entry with time <= this one. *)
              let rec ins = function
                | (t', i') :: rest when t' <= time -> (t', i') :: ins rest
                | rest -> (time, id) :: rest
              in
              model := ins !model
          | None -> pop_and_check ())
        ops;
      while not (Heap.is_empty h) || !model <> [] do
        pop_and_check ();
        if not !ok then model := [] (* break out of a wedged run *)
      done;
      !ok)

(* Regression for the space leak where [pop] left the vacated slot
   holding its payload: a popped payload must be collectable once the
   caller drops it. A couple of slots are allowed to survive in
   registers/stack of this frame; before the fix, all of them did. *)
let test_heap_pop_releases_payloads () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    Heap.push h ~time:i payload
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "popped payloads collectable (%d still live)" !live)
    true (!live <= 2)

let test_heap_clear_releases_payloads () =
  let h = Heap.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 'y' in
    Weak.set w i (Some payload);
    Heap.push h ~time:i payload
  done;
  Heap.clear h;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cleared payloads collectable (%d still live)" !live)
    true (!live <= 2)

(* --- Cost model -------------------------------------------------------- *)

let test_null_minimum_cvax () =
  (* Paper Table 2/5: the theoretical minimum on the C-VAX is 109 us. *)
  check_time "109us" (Time.us 109) (Cost_model.null_minimum cm)

let test_null_minimum_others () =
  check_time "68020 170us" (Time.us 170) (Cost_model.null_minimum Cost_model.m68020);
  check_time "PERQ 444us" (Time.us 444) (Cost_model.null_minimum Cost_model.perq_accent)

let test_tlb_miss_split () =
  Alcotest.(check int) "43 misses" 43 Cost_model.null_tlb_misses;
  Alcotest.(check int) "25+18" Cost_model.null_tlb_misses
    (Cost_model.call_side_tlb_misses + Cost_model.return_side_tlb_misses)

(* --- TLB --------------------------------------------------------------- *)

let test_tlb_miss_then_hit () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  Alcotest.(check int) "cold misses" 3 (Tlb.access tlb ~domain:1 ~pages:[ 1; 2; 3 ]);
  Alcotest.(check int) "warm hits" 0 (Tlb.access tlb ~domain:1 ~pages:[ 1; 2; 3 ])

let test_tlb_invalidate () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (Tlb.access tlb ~domain:1 ~pages:[ 1; 2 ]);
  Tlb.invalidate tlb;
  Alcotest.(check int) "cold again" 2 (Tlb.access tlb ~domain:1 ~pages:[ 1; 2 ]);
  Alcotest.(check int) "one flush" 1 (Tlb.flush_count tlb)

let test_tlb_tagged_survives () =
  let tlb = Tlb.create ~capacity:8 ~tagged:true in
  ignore (Tlb.access tlb ~domain:1 ~pages:[ 1; 2 ]);
  Tlb.invalidate tlb;
  Alcotest.(check int) "still resident" 0 (Tlb.access tlb ~domain:1 ~pages:[ 1; 2 ]);
  (* Same page in another domain is a distinct tagged entry. *)
  Alcotest.(check int) "other domain misses" 2 (Tlb.access tlb ~domain:2 ~pages:[ 1; 2 ])

let test_tlb_untagged_shares_pages () =
  let tlb = Tlb.create ~capacity:8 ~tagged:false in
  ignore (Tlb.access tlb ~domain:1 ~pages:[ 7 ]);
  Alcotest.(check int) "untagged ignores domain" 0 (Tlb.access tlb ~domain:2 ~pages:[ 7 ])

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~capacity:2 ~tagged:false in
  ignore (Tlb.access tlb ~domain:0 ~pages:[ 1; 2 ]);
  ignore (Tlb.access tlb ~domain:0 ~pages:[ 1 ]);
  (* 2 is now LRU *)
  ignore (Tlb.access tlb ~domain:0 ~pages:[ 3 ]);
  Alcotest.(check bool) "1 stays" true (Tlb.resident tlb ~domain:0 ~page:1);
  Alcotest.(check bool) "2 evicted" false (Tlb.resident tlb ~domain:0 ~page:2)

(* --- Engine basics ------------------------------------------------------ *)

let test_delay_advances_time () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let finished = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 5);
         Engine.delay e (Time.us 7);
         finished := Engine.now e));
  Engine.run e;
  check_time "12us" (Time.us 12) !finished;
  Alcotest.(check (list pass)) "no failures" [] (Engine.failures e)

let test_two_threads_one_cpu_serialize () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let log = ref [] in
  let worker name =
    ignore
      (Engine.spawn e ~domain:0 ~name (fun () ->
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log;
           Engine.yield e;
           Engine.delay e (Time.us 10);
           log := (name, Engine.now e) :: !log))
  in
  worker "a";
  worker "b";
  Engine.run e;
  (* Thread b only starts after a yields; one CPU means full serialization
     of delays. The final event is at 40us. *)
  match !log with
  | (_, last) :: _ -> check_time "total serialized" (Time.us 40) last
  | [] -> Alcotest.fail "no events"

let test_two_cpus_parallel () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  check_time "cpu0 parallel" (Time.us 100) done_at.(0);
  check_time "cpu1 parallel" (Time.us 100) done_at.(1)

let test_block_wake () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let waiter_done = ref 0 in
  let waiter =
    Engine.spawn e ~domain:0 ~name:"waiter" (fun () ->
        Engine.block e;
        waiter_done := Engine.now e)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"waker" (fun () ->
         Engine.delay e (Time.us 50);
         Engine.wake e waiter));
  Engine.run e;
  check_time "woken at 50" (Time.us 50) !waiter_done

let test_spawn_failure_recorded () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore (Engine.spawn e ~domain:0 (fun () -> failwith "boom"));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Failure msg) ] -> Alcotest.(check string) "msg" "boom" msg
  | _ -> Alcotest.fail "expected one failure"

let test_kill_blocked_thread () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let saw_exn = ref false in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        (try Engine.block e
         with Engine.Thread_killed as ex ->
           saw_exn := true;
           raise ex);
        ())
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 1);
         Engine.kill e victim));
  Engine.run e;
  Alcotest.(check bool) "exn delivered" true !saw_exn;
  Alcotest.(check bool) "victim dead" false (Engine.alive victim);
  Alcotest.(check (list pass)) "kill is not a failure" [] (Engine.failures e)

let test_interrupt_with_custom_exn () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let caught = ref "" in
  let victim =
    Engine.spawn e ~domain:0 (fun () ->
        try Engine.block e with Failure m -> caught := m)
  in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.interrupt e victim (Failure "call-failed")));
  Engine.run e;
  Alcotest.(check string) "caught" "call-failed" !caught

let test_context_switch_charged_on_dispatch () =
  let e = Engine.create ~processors:1 cm_no_bus in
  (* First placements are free (processes pre-exist the measurement), but
     re-dispatching a woken thread onto a processor whose loaded context
     differs charges one VM reload. *)
  let a =
    Engine.spawn e ~domain:3 (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 1))
  in
  ignore
    (Engine.spawn e ~domain:5 (fun () ->
         Engine.delay e (Time.us 10);
         Engine.wake e a));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "one vm reload" cm.Cost_model.vm_reload ctx;
  let cpu0 = (Engine.cpus e).(0) in
  Alcotest.(check (option int)) "context loaded" (Some 3) cpu0.Engine.context

let test_switch_self_context () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let th = ref None in
  ignore
    (Engine.spawn e ~domain:1 (fun () ->
         th := Some (Engine.self e);
         Engine.switch_self_context e ~domain:2;
         Alcotest.(check int) "domain updated" 2
           (Engine.thread_domain (Engine.self e))));
  Engine.run e;
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  (* Initial dispatch is free; only the explicit crossing is charged. *)
  check_time "one vm reload" cm.Cost_model.vm_reload ctx

let test_touch_pages_charges_misses () =
  let e = Engine.create ~processors:1 cm_no_bus in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         Engine.touch_pages e ~pages:[ 100; 101; 102 ];
         (* warm now *)
         Engine.touch_pages e ~pages:[ 100; 101; 102 ]));
  Engine.run e;
  let tlb =
    List.assoc_opt Category.Tlb_miss (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "3 misses once" (3 * cm.Cost_model.tlb_miss) tlb;
  Alcotest.(check int) "counter" 3 (Engine.total_tlb_misses e)

let test_handoff_direct_transfer () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let server =
    Engine.spawn e ~domain:1 ~name:"server" (fun () ->
        Engine.block e;
        order := "server" :: !order;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"client" (fun () ->
         Engine.delay e (Time.us 1);
         order := "client" :: !order;
         Engine.handoff e ~to_:server));
  Engine.run e;
  Alcotest.(check (list string)) "handoff order" [ "server"; "client" ] !order;
  Alcotest.(check int) "client still blocked" 1
    (List.length (Engine.stuck_threads e))

let test_exchange_processors () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let landed = ref (-1) in
  ignore
    (Engine.spawn e ~domain:0 ~home:0 (fun () ->
         Engine.delay e (Time.us 1);
         let cpus = Engine.cpus e in
         (* cpu1 idles; pretend it holds the server context (domain 9). *)
         cpus.(1).Engine.context <- Some 9;
         Engine.exchange_processors e ~target:cpus.(1);
         Engine.switch_self_context e ~domain:9;
         landed := (Engine.current_cpu e).Engine.idx));
  Engine.run e;
  Alcotest.(check int) "on cpu1" 1 !landed;
  let exch =
    List.assoc_opt Category.Exchange (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "exchange charged" cm.Cost_model.processor_exchange exch;
  (* Crucially, no context switch was charged at all: the whole point of
     domain caching. *)
  let ctx =
    List.assoc_opt Category.Context_switch (Engine.breakdown e)
    |> Option.value ~default:0
  in
  check_time "no reload" Time.zero ctx

let test_bus_contention_dilates () =
  let e = Engine.create ~processors:2 { cm with Cost_model.bus_alpha = 0.5 } in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us 100);
           done_at.(i) <- Engine.now e))
  done;
  Engine.run e;
  (* Both threads execute concurrently: factor 1.5. *)
  check_time "dilated" (Time.us 150) done_at.(0);
  check_time "dilated" (Time.us 150) done_at.(1)

let test_run_until_horizon () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let ticks = ref 0 in
  ignore
    (Engine.spawn e ~domain:0 (fun () ->
         while true do
           Engine.delay e (Time.us 10);
           incr ticks
         done));
  Engine.run ~until:(Time.us 95) e;
  Alcotest.(check int) "9 ticks" 9 !ticks

let test_ready_queue_overflow_threads () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let completed = ref 0 in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e ~domain:i (fun () ->
           Engine.delay e (Time.us 10);
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 10 !completed;
  (* 10 threads x 10us over 2 cpus = 50us of makespan. *)
  check_time "makespan" (Time.us 50) (Engine.now e)

(* --- Spinlock ----------------------------------------------------------- *)

let test_spinlock_mutual_exclusion () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let lk = Spinlock.create e in
  let in_cs = ref 0 and max_in_cs = ref 0 and total = ref 0 in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           for _ = 1 to 20 do
             Spinlock.acquire lk;
             incr in_cs;
             if !in_cs > !max_in_cs then max_in_cs := !in_cs;
             Engine.delay e (Time.us 3);
             decr in_cs;
             incr total;
             Spinlock.release lk;
             Engine.delay e (Time.us 1)
           done))
  done;
  Engine.run e;
  Alcotest.(check int) "never two holders" 1 !max_in_cs;
  Alcotest.(check int) "all sections ran" 40 !total

let test_spinlock_serializes_throughput () =
  (* Two CPUs, but a critical section of 10us per 10us of work: the lock
     fully serializes, so 2 CPUs take as long as 1 would. *)
  let run_with cpus =
    let e = Engine.create ~processors:cpus cm_no_bus in
    let lk = Spinlock.create e in
    let ops = ref 0 in
    for i = 0 to cpus - 1 do
      ignore
        (Engine.spawn e ~domain:i ~home:i (fun () ->
             while true do
               Spinlock.with_lock lk ~hold:(Time.us 10) (fun () -> incr ops)
             done))
    done;
    Engine.run ~until:(Time.ms 1) e;
    !ops
  in
  let one = run_with 1 and two = run_with 2 in
  Alcotest.(check bool) "no speedup from second cpu" true
    (abs (one - two) <= 2)

let test_spinlock_release_by_nonholder_rejected () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let lk = Spinlock.create ~name:"l" e in
  ignore (Engine.spawn e ~domain:0 (fun () -> Spinlock.release lk));
  Engine.run e;
  match Engine.failures e with
  | [ (_, Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "expected Invalid_argument failure"

let test_spinlock_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let lk = Spinlock.create e in
  let order = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           (* Stagger arrival so the queue order is deterministic. *)
           Engine.delay e (Time.us i);
           Spinlock.acquire lk;
           order := i :: !order;
           Engine.delay e (Time.us 10);
           Spinlock.release lk))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo handover" [ 0; 1; 2 ] (List.rev !order)

(* --- Waitq --------------------------------------------------------------- *)

let test_waitq_signal_fifo () =
  let e = Engine.create ~processors:3 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref [] in
  for i = 0 to 1 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Engine.delay e (Time.us i);
           Waitq.wait q;
           woken := i :: !woken))
  done;
  ignore
    (Engine.spawn e ~domain:2 ~home:2 (fun () ->
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q);
         Engine.delay e (Time.us 10);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check (list int)) "fifo wake order" [ 0; 1 ] (List.rev !woken)

let test_waitq_signal_empty () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let q = Waitq.create e in
  let result = ref true in
  ignore (Engine.spawn e ~domain:0 (fun () -> result := Waitq.signal q));
  Engine.run e;
  Alcotest.(check bool) "no waiter" false !result

let test_waitq_skips_dead_waiters () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let q = Waitq.create e in
  let second_woken = ref false in
  let first =
    Engine.spawn e ~domain:0 ~home:0 (fun () ->
        Waitq.wait q;
        Alcotest.fail "dead waiter must not wake")
  in
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 1);
         Waitq.wait q;
         second_woken := true));
  ignore
    (Engine.spawn e ~domain:1 ~home:1 (fun () ->
         Engine.delay e (Time.us 2);
         Engine.kill e first;
         Engine.delay e (Time.us 2);
         ignore (Waitq.signal q)));
  Engine.run e;
  Alcotest.(check bool) "live waiter got the signal" true !second_woken

let test_waitq_broadcast () =
  let e = Engine.create ~processors:4 cm_no_bus in
  let q = Waitq.create e in
  let woken = ref 0 in
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~domain:i ~home:i (fun () ->
           Waitq.wait q;
           incr woken))
  done;
  ignore
    (Engine.spawn e ~domain:3 ~home:3 (fun () ->
         Engine.delay e (Time.us 1);
         Alcotest.(check int) "3 woken" 3 (Waitq.broadcast q)));
  Engine.run e;
  Alcotest.(check int) "all resumed" 3 !woken

(* --- Trace ----------------------------------------------------------------- *)

let test_trace_ring_bounded () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tr ~at:i ~tid:i ~cpu:0
      (Lrpc_obs.Event.Mark { name = "k"; detail = "" })
  done;
  Alcotest.(check int) "total counts all" 10 (Trace.count tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "ring keeps 4" 4 (List.length evs);
  Alcotest.(check (list int)) "most recent, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.tid) evs);
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.count tr)

let test_engine_traces_lifecycle () =
  let e = Engine.create ~processors:2 cm_no_bus in
  let tr = Trace.create () in
  Engine.set_tracer e (Some tr);
  let server =
    Engine.spawn e ~domain:1 ~name:"srv" (fun () ->
        Engine.block e;
        Engine.delay e (Time.us 5))
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"cli" (fun () ->
         Engine.delay e (Time.us 1);
         Engine.switch_self_context e ~domain:2;
         Engine.wake e server));
  Engine.run e;
  let kinds k = List.length (Trace.find tr ~kind:k) in
  Alcotest.(check bool) "dispatches" true (kinds "dispatch" >= 3);
  Alcotest.(check int) "one block" 1 (kinds "block");
  Alcotest.(check int) "one wake" 1 (kinds "wake");
  Alcotest.(check int) "one explicit switch" 1 (kinds "switch");
  Alcotest.(check int) "two finishes" 2 (kinds "finish");
  Alcotest.(check bool) "dump renders" true (String.length (Trace.dump tr) > 50);
  (* detaching stops emission *)
  Engine.set_tracer e None;
  let before = Trace.count tr in
  ignore (Engine.spawn e ~domain:0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check int) "detached" before (Trace.count tr)

let test_engine_yield_to () =
  let e = Engine.create ~processors:1 cm_no_bus in
  let order = ref [] in
  let consumer =
    Engine.spawn e ~domain:0 ~name:"consumer" (fun () ->
        Engine.block e;
        order := "consumer" :: !order)
  in
  ignore
    (Engine.spawn e ~domain:0 ~name:"producer" (fun () ->
         Engine.delay e (Time.us 1);
         order := "producer-before" :: !order;
         Engine.yield_to e ~to_:consumer;
         (* still runnable: resumes once the consumer releases the cpu *)
         order := "producer-after" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "yield_to order"
    [ "producer-before"; "consumer"; "producer-after" ]
    (List.rev !order)

(* --- Engine domains ------------------------------------------------------ *)

(* The engine is one event loop on one host domain, so [~domains]
   accepts only 1, on every model. *)
let test_engine_create_domain_validation () =
  List.iter
    (fun domains ->
      match Engine.create ~processors:2 ~domains Cost_model.cvax_firefly with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "domains:%d accepted" domains)
    [ 0; 2 ]

(* --- Counter hygiene ------------------------------------------------------ *)

(* Steal / TLB counters belong to one engine instance: zero at birth,
   with or without a topology, so no run can inherit another world's
   totals (each Driver.boot builds a fresh engine). *)
let test_fresh_engine_counters_zero () =
  let check_engine (e : Engine.t) =
    Alcotest.(check int) "total steals" 0 (Engine.total_steals e);
    Alcotest.(check int) "near steals" 0 (Engine.total_steals_near e);
    Alcotest.(check int) "far steals" 0 (Engine.total_steals_far e);
    Alcotest.(check int) "tlb misses" 0 (Engine.total_tlb_misses e);
    Array.iter
      (fun c ->
        Alcotest.(check int) "cpu steals" 0 c.Engine.steals;
        Alcotest.(check int) "cpu tagged" 0 c.Engine.steals_tagged;
        Alcotest.(check int) "cpu near" 0 c.Engine.steals_near;
        Alcotest.(check int) "cpu far" 0 c.Engine.steals_far;
        check_time "cpu spin" 0 c.Engine.lock_spin)
      (Engine.cpus e)
  in
  check_engine (Engine.create ~processors:4 cm);
  check_engine
    (Engine.create ~processors:8
       (Cost_model.clustered ~cluster_size:4 ~name:"clu4" cm))

(* --- Victim-ring property ------------------------------------------------- *)

(* Every thief's scan order is a permutation of the other CPUs — no
   queue unreachable, none visited twice — and distance-ordered: all
   same-cluster victims precede every cross-cluster one. *)
let prop_victim_ring_covers =
  QCheck.Test.make ~name:"victim rings cover every other CPU exactly once"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 48))
    (fun (cluster_size, cpus) ->
      let model = Cost_model.clustered ~cluster_size ~name:"clu" cm in
      let topo = Option.get model.Cost_model.topology in
      let ok = ref true in
      for cpu = 0 to cpus - 1 do
        let ring = Cost_model.victim_ring topo ~cpus ~cpu in
        if Array.length ring <> cpus - 1 then ok := false;
        let seen = Array.make cpus 0 in
        Array.iter (fun v -> seen.(v) <- seen.(v) + 1) ring;
        Array.iteri
          (fun i n -> if n <> if i = cpu then 0 else 1 then ok := false)
          seen;
        let my = Cost_model.cluster_of topo cpu in
        let crossed = ref false in
        Array.iter
          (fun v ->
            if Cost_model.cluster_of topo v <> my then crossed := true
            else if !crossed then ok := false)
          ring
      done;
      !ok)

(* --- Determinism property ------------------------------------------------ *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"simulation runs are reproducible" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (cpus, nthreads) ->
      let trace () =
        let e = Engine.create ~processors:cpus cm in
        let log = Buffer.create 128 in
        for i = 0 to nthreads - 1 do
          ignore
            (Engine.spawn e ~domain:(i mod 3) (fun () ->
                 for _ = 1 to 5 do
                   Engine.delay e (Time.us ((i mod 7) + 1));
                   Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e))
                 done))
        done;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (trace ()) (trace ()))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorted;
        prop_heap_model;
        prop_victim_ring_covers;
        prop_engine_deterministic;
      ]
  in
  Alcotest.run "lrpc_sim"
    [
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "take/top_time" `Quick test_heap_take_top_time;
          Alcotest.test_case "pop releases payloads" `Quick
            test_heap_pop_releases_payloads;
          Alcotest.test_case "clear releases payloads" `Quick
            test_heap_clear_releases_payloads;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "cvax null minimum" `Quick test_null_minimum_cvax;
          Alcotest.test_case "other minimums" `Quick test_null_minimum_others;
          Alcotest.test_case "tlb miss split" `Quick test_tlb_miss_split;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "miss then hit" `Quick test_tlb_miss_then_hit;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "tagged survives" `Quick test_tlb_tagged_survives;
          Alcotest.test_case "untagged shares" `Quick test_tlb_untagged_shares_pages;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances time" `Quick test_delay_advances_time;
          Alcotest.test_case "one cpu serializes" `Quick test_two_threads_one_cpu_serialize;
          Alcotest.test_case "two cpus parallel" `Quick test_two_cpus_parallel;
          Alcotest.test_case "block/wake" `Quick test_block_wake;
          Alcotest.test_case "failure recorded" `Quick test_spawn_failure_recorded;
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked_thread;
          Alcotest.test_case "interrupt custom exn" `Quick test_interrupt_with_custom_exn;
          Alcotest.test_case "dispatch context switch" `Quick test_context_switch_charged_on_dispatch;
          Alcotest.test_case "switch self context" `Quick test_switch_self_context;
          Alcotest.test_case "touch pages" `Quick test_touch_pages_charges_misses;
          Alcotest.test_case "handoff" `Quick test_handoff_direct_transfer;
          Alcotest.test_case "exchange processors" `Quick test_exchange_processors;
          Alcotest.test_case "bus contention" `Quick test_bus_contention_dilates;
          Alcotest.test_case "run until" `Quick test_run_until_horizon;
          Alcotest.test_case "more threads than cpus" `Quick test_ready_queue_overflow_threads;
          Alcotest.test_case "fresh counters zero" `Quick
            test_fresh_engine_counters_zero;
        ] );
      ( "partitioned engine",
        [
          Alcotest.test_case "create validation" `Quick test_engine_create_domain_validation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "engine lifecycle" `Quick test_engine_traces_lifecycle;
          Alcotest.test_case "yield_to" `Quick test_engine_yield_to;
        ] );
      ( "spinlock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutual_exclusion;
          Alcotest.test_case "serializes" `Quick test_spinlock_serializes_throughput;
          Alcotest.test_case "non-holder release" `Quick test_spinlock_release_by_nonholder_rejected;
          Alcotest.test_case "fifo" `Quick test_spinlock_fifo;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "signal fifo" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "signal empty" `Quick test_waitq_signal_empty;
          Alcotest.test_case "skips dead" `Quick test_waitq_skips_dead_waiters;
          Alcotest.test_case "broadcast" `Quick test_waitq_broadcast;
        ] );
      ("properties", qsuite);
    ]
