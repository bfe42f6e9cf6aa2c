open Rt
module Category = Lrpc_sim.Category

let calls_completed rt = Metrics.Counter.value rt.c_calls_completed

(* Ablation A4: the counterfactual global kernel lock, held across the
   kernel's call- and return-side sections ([enter_kernel] takes it).
   LRPC proper runs them lock-free. *)
let unlock_kernel rt =
  match rt.global_kernel_lock with Some lk -> Spinlock.release lk | None -> ()

(* The idle processor a call into [target] exchanges onto: one already
   holding the target context, with domain caching on (paper §3.4). The
   hit or miss is noted either way. *)
let idle_in_context rt ~target =
  if Kernel.domain_caching_enabled rt.kernel then
    match Kernel.find_idle_processor_in_context rt.kernel target with
    | Some _ as hit ->
        Kernel.note_context_hit ?cpu:hit rt.kernel target;
        hit
    | None ->
        Kernel.note_context_miss rt.kernel target;
        None
  else None

(* Direct context switch into [target], or a processor exchange with an
   idle processor already holding the target context; then the TLB
   refill of [pages] in [target]. On the switch path the VM reload and
   the refill are one charge. After an exchange the context is already
   loaded: retagging is free. *)
let transfer_touch rt ~target pages =
  let e = engine rt in
  match idle_in_context rt ~target with
  | Some cpu ->
      Engine.exchange_processors e ~target:cpu;
      Engine.switch_self_context e ~domain:target.Pdomain.id;
      Engine.touch_pages e ~pages
  | None -> Engine.switch_then_touch e ~domain:target.Pdomain.id ~pages

(* Copy A: the only call-time copy LRPC makes — client stack to A-stack.
   Each argument is encoded straight into its slot, so its bytes move
   once. [Layout.plan] has checked the arguments against the slots. *)
let rec marshal_inputs e ?audit ~client ~region ~proc slots args =
  match (slots, args) with
  | s :: slots, v :: args ->
      Vm.check ~by:client region "write_bytes";
      let len =
        V.encode_into (Layout.slot_type s ~proc) v (Vm.bytes region)
          ~off:s.Layout.offset
      in
      Vm.record_copy ~engine:e ?audit ~label:"A" len;
      marshal_inputs e ?audit ~client ~region ~proc slots args
  | _ -> ()

(* Copy E: defensive copies of interpreted arguments, only when the
   export demands immutability (paper §3.5). *)
let defensive_copies rt ?audit ~server ~region plan =
  let e = engine rt in
  List.iter
    (fun (s : Layout.slot) ->
      ignore
        (Vm.read_bytes ~engine:e ?audit ~label:"E" ~by:server region
           ~off:s.Layout.offset ~len:s.Layout.size))
    (Layout.immutable_copy_slots plan)

(* The server stub places outputs straight into the A-stack slots; this
   is the procedure storing its results, not a copy (Table 3 counts only
   A and F for LRPC). Conformance is checked before anything is
   written. *)
let rec store_slots ~server ~region ~proc slots outputs =
  match (slots, outputs) with
  | (s : Layout.slot) :: slots, v :: outputs ->
      let ty = Layout.slot_type s ~proc in
      V.check_exn ty v;
      if V.encoded_size ty v > s.Layout.size then
        raise (V.Conformance_error "output exceeds its reserved slot");
      Vm.check ~by:server region "poke";
      ignore (V.encode_into ty v (Vm.bytes region) ~off:s.Layout.offset : int);
      store_slots ~server ~region ~proc slots outputs
  | _ -> ()

let store_outputs ~server ~region ~proc plan outputs =
  let out_slots = plan.Layout.out_slots in
  let expected = List.length out_slots and got = List.length outputs in
  if expected <> got then
    invalid_arg
      (Printf.sprintf "%s returned %d outputs, expected %d" proc.I.proc_name got
         expected);
  store_slots ~server ~region ~proc out_slots outputs

(* Copy F: the client stub copies returned values from the A-stack to
   their final destination: each is decoded straight out of its slot,
   so its bytes move once. *)
let rec read_outputs e ?audit ~client ~region ~proc = function
  | [] -> []
  | (s : Layout.slot) :: slots ->
      let ty = Layout.slot_type s ~proc in
      let data = Vm.bytes region in
      let v =
        V.decode_value ty data ~off:s.Layout.offset ~stop:(Bytes.length data)
      in
      Vm.check ~by:client region "read_bytes";
      Vm.record_copy ~engine:e ?audit ~label:"F" (V.encoded_size ty v);
      v :: read_outputs e ?audit ~client ~region ~proc slots

(* Send home what a local call claimed at issue: its out-of-band
   segment, if any, and its A-stack. Idempotent. *)
let release_local rt lc ~client =
  if lc.lc_oob then Kernel.release_region rt.kernel ~owner:client lc.lc_region;
  if not lc.lc_released then begin
    lc.lc_released <- true;
    Astack.checkin rt lc.lc_pb lc.lc_astack
  end

(* ---- landing ----------------------------------------------------------- *)

let reason_of_exn = function
  | Call_failed m | Call_aborted m | Deadline_exceeded m | Bad_binding m -> m
  | Not_exported m -> "not exported: " ^ m
  | Overloaded { ov_reason; _ } -> ov_reason
  | exn -> Printexc.to_string exn

(* Record the call's outcome on the handle and wake everyone blocked in
   an await. Wake-ups may be spurious from the waiter's point of view
   (await_any registers with several handles); the wait loops re-check.
   Guarded: a call aborted at its deadline has already landed when its
   vehicle finally comes home — the late outcome is dropped, and the
   in-flight gauge is decremented exactly once. *)
let rec wake_all e = function
  | [] -> ()
  | th :: rest ->
      if Engine.alive th then Engine.wake e th;
      wake_all e rest

let land_ rt h outcome =
  match h.ch_state with
  | Landed _ | Consumed -> ()
  | Issued | In_flight ->
      let e = engine rt in
      (match h.ch_deadline with
      | Some tmr ->
          Engine.cancel_timer e tmr;
          h.ch_deadline <- None
      | None -> ());
      h.ch_state <- Landed outcome;
      let b = h.ch_binding in
      b.b_inflight <- b.b_inflight - 1;
      (* Observed service time feeds deadline-aware admission; tracked
         only while a policy is installed so the unlimited fast path
         stays bit-identical in work done per call. *)
      (match (rt.admission, outcome) with
      | Some _, Ok () ->
          let obs = Time.to_us (Time.sub (Engine.now e) h.ch_issued_at) in
          b.b_srv_ewma_us <-
            (if b.b_srv_ewma_us = 0.0 then obs
             else (0.9 *. b.b_srv_ewma_us) +. (0.1 *. obs))
      | _ -> ());
      note_call_landed rt;
      if Engine.tracing e then
        Engine.emit e
          (Event.Call_completed
             {
               binding = h.ch_binding.bid;
               proc = h.ch_proc;
               handle = h.ch_id;
               ok = (match outcome with Ok () -> true | Error _ -> false);
             });
      (match outcome with
      | Ok () -> ()
      | Error exn ->
          Metrics.Counter.incr rt.c_calls_failed;
          if Engine.tracing e then
            Engine.emit e
              (Event.Call_failed
                 {
                   binding = h.ch_binding.bid;
                   proc = h.ch_proc;
                   handle = h.ch_id;
                   reason = reason_of_exn exn;
                 }));
      let waiters = h.ch_waiters in
      h.ch_waiters <- [];
      wake_all e waiters

(* ---- the completion half ------------------------------------------------ *)

(* Argument bytes consumed on a processor other than the one that wrote
   them drag cache lines across the bus; charged where the consumption
   happens. This is why domain caching helps large arguments less (Table
   4's shrinking MP column). *)
let coherency rt e bytes =
  if bytes > 0 then
    Engine.delay ~category:Category.Copy e
      (bytes * (cost_model rt).Lrpc_sim.Cost_model.coherency_per_byte)

(* Put the books right after an asynchronous failure (kill, unwind, crash
   landing at any delay point of the completion half): if our linkage
   claim is still on this thread's linkstack, undo it, then reclaim the
   A-stack and any out-of-band segment. Idempotent, and a no-op for
   claims already released by the normal return path. *)
let crash_cleanup rt lc th ~client =
  let linkage = lc.lc_astack.a_linkage in
  let ls = linkstack rt th in
  if List.memq linkage ls then begin
    set_linkstack rt th (List.filter (fun l -> l != linkage) ls);
    Kernel.linkage_released rt.kernel th;
    linkage.l_in_use <- false;
    linkage.l_abandoned <- false;
    linkage.l_caller <- None;
    linkage.l_return_domain <- None
  end;
  release_local rt lc ~client

(* The trap into the kernel and the kernel's [work] in a section. With
   no A4 lock nothing runs between the two, so they are one charge; with
   it, the lock is taken in between and released if the work is
   interrupted. *)
let enter_kernel rt work =
  match rt.global_kernel_lock with
  | None -> Kernel.trap_then_transfer rt.kernel work
  | Some lk -> (
      Kernel.trap rt.kernel;
      Spinlock.acquire lk;
      try Engine.delay ~category:Category.Kernel_transfer (engine rt) work
      with exn ->
        Spinlock.release lk;
        raise exn)

(* The kernel's call side, after its transfer work: validation, the
   linkage claim, E-stack association and the transfer into the
   server. *)
let enter_server rt h lc th ~client ~server =
  let e = engine rt in
  let b = h.ch_binding and astack = lc.lc_astack in
  (try
     (* The caller's identity is the domain the trapping thread actually
        runs in, not whatever the Binding Object claims — a carrier
        dispatched at issue time lives in the client domain, so it
        passes the same check the issuer would. *)
     let caller =
       match Kernel.find_domain rt.kernel (Engine.thread_domain th) with
       | Some d -> d
       | None -> raise (Bad_binding "caller has no domain")
     in
     Binding.verify rt b ~caller;
     Astack.validate rt lc.lc_pb astack
   with exn ->
     release_local rt lc ~client;
     raise exn);
  let linkage = astack.a_linkage in
  linkage.l_in_use <- true;
  linkage.l_valid <- true;
  linkage.l_abandoned <- false;
  (* The running thread's own preallocated [Some]. *)
  linkage.l_caller <- Engine.self_opt e;
  linkage.l_return_domain <- Some client;
  set_linkstack rt th (linkage :: linkstack rt th);
  Kernel.linkage_claimed rt.kernel th;
  let estack = Estack.associate rt ~server astack in
  (* Domain transfer: the executing thread crosses into the server. The
     footprint is built before the switch, so a first call allocates
     the server's code and stack pages just ahead of the VM reload. *)
  let pages =
    Footprint.call_side rt b astack estack ~data_region:lc.lc_region
  in
  transfer_touch rt ~target:server pages

(* What the return side found on the linkage record. *)
type linkage_state = Valid | Invalidated | Abandoned

(* The kernel's return side, after its transfer work: it needs only the
   linkage record — no re-validation — and crosses back into the domain
   of the first valid linkage: the client, unless it terminated while we
   were away. *)
let leave_server rt h lc th ~client ~server_cpu =
  let e = engine rt in
  let linkage = lc.lc_astack.a_linkage in
  (match linkstack rt th with
  | l :: rest when l == linkage -> set_linkstack rt th rest
  | ls ->
      (* Completion halves run start-to-finish on their executing thread,
         so the LIFO head case is the rule (nested calls from a server
         procedure still nest); removal by physical identity keeps the
         books right regardless. *)
      set_linkstack rt th (List.filter (fun l -> l != linkage) ls));
  Kernel.linkage_released rt.kernel th;
  let state =
    if linkage.l_abandoned then Abandoned
    else if linkage.l_valid then Valid
    else Invalidated
  in
  linkage.l_in_use <- false;
  linkage.l_caller <- None;
  linkage.l_return_domain <- None;
  if (match state with Abandoned -> false | Valid | Invalidated -> true)
     && Pdomain.active client
  then begin
    let pages = Footprint.return_side rt h.ch_binding in
    transfer_touch rt ~target:client pages;
    if (Engine.current_cpu e).Engine.idx <> server_cpu then
      coherency rt e lc.lc_bytes_out
  end;
  state

(* Everything from the kernel trap to the return transfer, executed on
   the thread that actually crosses into the server: the issuing thread
   itself for synchronous calls (so Tables 4/5 are reproduced by the
   very same delay sequence as before the handle split), or a carrier
   thread for pipelined ones. Top-level functions and explicit lock
   calls rather than closures, so the path allocates no closure. *)
let serve rt h lc th =
  let e = engine rt in
  let cm = cost_model rt in
  let b = h.ch_binding in
  let client = b.b_client and server = b.b_server in
  (* Trap to the kernel; validation and linkage work. *)
  enter_kernel rt cm.Lrpc_sim.Cost_model.kernel_call;
  (match enter_server rt h lc th ~client ~server with
  | () -> unlock_kernel rt
  | exception exn ->
      unlock_kernel rt;
      raise exn);
  (* The deadline fired while we were on our way in: the handle has
     already landed, so serve out the call as an abandoned capture — the
     kernel destroys this thread on return and the A-stack comes home
     then (§5.3). *)
  (match h.ch_abort with
  | Some _ ->
      let linkage = lc.lc_astack.a_linkage in
      linkage.l_abandoned <- true;
      linkage.l_valid <- false
  | None -> ());
  let server_cpu = (Engine.current_cpu e).Engine.idx in
  if server_cpu <> lc.lc_marshal_cpu then coherency rt e lc.lc_bytes_in;
  (* Upcall into the server's entry stub. *)
  Engine.delay ~category:Category.Stub_server e
    cm.Lrpc_sim.Cost_model.server_stub_call;
  lc.lc_t_transfer <- Engine.now e;
  let pb = lc.lc_pb and region = lc.lc_region in
  if b.b_export.ex_defensive then
    defensive_copies rt ?audit:lc.lc_audit ~server ~region lc.lc_plan;
  let ctx =
    {
      sc_rt = rt;
      sc_binding = b;
      sc_proc = pb.pb_spec;
      sc_plan = lc.lc_plan;
      sc_region = region;
      sc_thread = th;
    }
  in
  let outcome =
    try
      (match rt.faults with
      | Some f -> (
          match f.f_server_exn ~proc:h.ch_proc with
          | Some exn -> raise exn
          | None -> ())
      | None -> ());
      let outputs = pb.pb_impl ctx in
      store_outputs ~server ~region ~proc:pb.pb_spec lc.lc_plan outputs;
      Ok ()
    with
    | Engine.Thread_killed as exn -> raise exn
    | Unwind_termination -> Error (Call_failed "server domain terminated")
    | exn -> Error exn
  in
  (* Return transfer: the server stub traps. *)
  Engine.delay ~category:Category.Stub_server e
    cm.Lrpc_sim.Cost_model.server_stub_return;
  lc.lc_t_server <- Engine.now e;
  enter_kernel rt cm.Lrpc_sim.Cost_model.kernel_return;
  let state =
    match leave_server rt h lc th ~client ~server_cpu with
    | state ->
        unlock_kernel rt;
        state
    | exception exn ->
        unlock_kernel rt;
        raise exn
  in
  match (state, outcome) with
  | Abandoned, _ ->
      (* §5.3: the client released this captured call (or its deadline
         fired); the thread is destroyed in the kernel upon release, and
         the A-stack it was still holding goes home now. *)
      release_local rt lc ~client;
      raise Engine.Thread_killed
  | (Valid | Invalidated), _ when not (Pdomain.active client) ->
      release_local rt lc ~client;
      raise Engine.Thread_killed
  | Invalidated, Ok () -> Error (Call_failed "linkage invalidated")
  | (Valid | Invalidated), _ -> outcome

(* [serve] with its failure paths. May raise [Engine.Thread_killed] (the
   §5.3 abandoned-call paths); any other failure is returned as the
   call's outcome. *)
let complete_local rt h lc =
  let th = Engine.self (engine rt) in
  let client = h.ch_binding.b_client in
  match serve rt h lc th with
  | outcome -> outcome
  | exception Unwind_termination ->
      (* The server domain terminated under us outside the procedure
         body (the in-body case surfaces through the normal return
         path). Unwind the linkage claim, reclaim the A-stack, and come
         home so the restarted caller continues in its own domain. *)
      crash_cleanup rt lc th ~client;
      if Pdomain.active client then begin
        let pages = Footprint.return_side rt h.ch_binding in
        transfer_touch rt ~target:client pages
      end;
      Error (Call_failed "server domain terminated")
  | exception exn ->
      (* Thread_killed and everything else: reclaim, then let
         run_completion land or re-raise it. *)
      crash_cleanup rt lc th ~client;
      raise exn

let remote_of b = match b.b_remote with Some r -> r | None -> assert false

(* Return the window slot claimed at issue, waking the longest-blocked
   issuer. Idempotent. *)
let release_slot r rc =
  if rc.rc_slot_held then begin
    rc.rc_slot_held <- false;
    r.r_in_flight <- r.r_in_flight - 1;
    ignore (Waitq.signal r.r_wait)
  end

(* §5.1: the conventional network path, behind the remote bit. The
   window slot is returned however the transport call ends. *)
let complete_remote h rc =
  let r = remote_of h.ch_binding in
  match r.r_transport ~proc:h.ch_proc rc.rc_args with
  | results ->
      rc.rc_results <- results;
      release_slot r rc;
      Ok ()
  | exception (Engine.Thread_killed as exn) ->
      release_slot r rc;
      raise exn
  | exception exn ->
      release_slot r rc;
      Error exn

let complete_body rt h =
  match h.ch_kind with
  | Ck_local lc -> complete_local rt h lc
  | Ck_remote rc -> complete_remote h rc

(* Send home whatever the issue half claimed — the A-stack (and any
   out-of-band region) of a local call, the window slot of a remote one
   — without running the completion half. Idempotent against the
   completion half's own release paths. *)
let reclaim_issue rt h =
  match h.ch_kind with
  | Ck_local lc -> release_local rt lc ~client:h.ch_binding.b_client
  | Ck_remote rc -> release_slot (remote_of h.ch_binding) rc

(* Run the completion half on the current thread and land the handle.
   Never lets an exception other than [Thread_killed] escape: failures
   land as the call's outcome and are re-raised at readback time, so a
   dead carrier cannot leave awaiting threads hanging. *)
let run_completion rt h =
  match h.ch_state with
  | Landed _ | Consumed ->
      (* Aborted between dispatch and the carrier's first instruction:
         the call never enters the kernel, the vehicle just returns the
         claimed resources (the awaiter was detached by the abort). *)
      reclaim_issue rt h
  | Issued | In_flight -> (
      (match h.ch_state with
      | Issued ->
          (* Executing: an inline vehicle in its completion half is
             indistinguishable from a carrier for abort purposes. *)
          h.ch_state <- In_flight
      | _ -> ());
      match complete_body rt h with
      | outcome ->
          land_ rt h outcome;
          (* An abort raced us to the landing (e.g. the deadline fired
             during the return transfer, after the linkage was already
             released): the awaiter was detached and will not release,
             so the claimed resources come home with the vehicle. *)
          (match h.ch_kind with
          | Ck_local lc when lc.lc_detached -> reclaim_issue rt h
          | _ -> ())
      | exception (Engine.Thread_killed as k) ->
          (* The executing thread dies (abandoned call, terminated
             client, deadline abort); the completion half has reclaimed
             the A-stack on every kill path — belt and braces here for
             vehicles killed before the claim. *)
          reclaim_issue rt h;
          let outcome =
            match h.ch_abort with
            | Some exn -> exn
            | None -> Call_aborted (h.ch_proc ^ ": call released while captured")
          in
          land_ rt h (Error outcome);
          raise k
      | exception exn -> land_ rt h (Error exn))

(* ---- readback (the awaiting thread's half) ------------------------------ *)

let readout rt h outcome =
  let e = engine rt in
  let cm = cost_model rt in
  h.ch_state <- Consumed;
  match h.ch_kind with
  | Ck_remote rc -> (
      match outcome with
      | Ok () ->
          let st = h.ch_binding.b_stats in
          Metrics.Counter.incr st.cs_calls;
          Metrics.Histo.observe_us st.cs_total
            (Time.sub (Engine.now e) h.ch_issued_at);
          rc.rc_results
      | Error exn -> raise exn)
  | Ck_local lc -> (
      let b = h.ch_binding in
      let client = b.b_client in
      match outcome with
      | Ok () ->
          (* Client stub, return side: copy F off the A-stack, then the
             A-stack goes home. *)
          Engine.delay ~category:Category.Stub_client e
            cm.Lrpc_sim.Cost_model.client_stub_return;
          let outputs =
            read_outputs e ?audit:lc.lc_audit ~client ~region:lc.lc_region
              ~proc:lc.lc_pb.pb_spec lc.lc_plan.Layout.out_slots
          in
          release_local rt lc ~client;
          Metrics.Counter.incr rt.c_calls_completed;
          let st = b.b_stats in
          let t0 = h.ch_issued_at in
          let t_end = Engine.now e in
          Metrics.Counter.incr st.cs_calls;
          Metrics.Histo.observe_us st.cs_total (Time.sub t_end t0);
          Metrics.Histo.observe_us st.cs_bind (Time.sub lc.lc_t_bind t0);
          Metrics.Histo.observe_us st.cs_marshal
            (Time.sub lc.lc_t_marshal lc.lc_t_bind);
          Metrics.Histo.observe_us st.cs_transfer
            (Time.sub lc.lc_t_transfer lc.lc_t_marshal);
          Metrics.Histo.observe_us st.cs_server
            (Time.sub lc.lc_t_server lc.lc_t_transfer);
          Metrics.Histo.observe_us st.cs_return (Time.sub t_end lc.lc_t_server);
          outputs
      | Error exn ->
          (* Resources already released mean the call failed before the
             transfer (validation, marshalling) or died captured — the
             client stub's return side never runs. A detached call's
             A-stack is still in the hands of its captured vehicle and
             comes home when that thread finally returns (§5.3), so the
             awaiter must not release either. Otherwise the error came
             home through the normal return path. *)
          if (not lc.lc_released) && not lc.lc_detached then begin
            Engine.delay ~category:Category.Stub_client e
              cm.Lrpc_sim.Cost_model.client_stub_return;
            release_local rt lc ~client
          end;
          raise exn)

(* ---- the issue half ----------------------------------------------------- *)

let rec slot_bytes acc = function
  | [] -> acc
  | (s : Layout.slot) :: slots -> slot_bytes (acc + s.Layout.size) slots

(* Client stub, call side: plan slots, claim an A-stack (blocking FIFO
   under the `Wait exhaustion policy — the pool is the pipelining
   window), marshal the arguments. Runs on the issuing thread; errors
   here raise synchronously, before a handle exists. *)
let issue_local ?audit ?deadline_at rt b ~proc args =
  let e = engine rt in
  let cm = cost_model rt in
  let client = b.b_client and server = b.b_server in
  (* The formal procedure call into the stub, then the stub's entry. The
     two lookups between them are made first: a domain, once registered,
     is never removed, and a binding's procedures never change, so
     lookups that succeed now succeed after the call too, and the two
     charges run back to back. A lookup that fails takes the procedure
     call alone and then raises, as it always has. *)
  let caller =
    match Kernel.find_domain rt.kernel (Engine.thread_domain (Engine.self e)) with
    | Some d -> d
    | None ->
        Engine.delay ~category:Category.Proc_call e
          cm.Lrpc_sim.Cost_model.proc_call;
        raise (Bad_binding "caller has no domain")
  in
  let pb =
    match Binding.find_proc b proc with
    | pb -> pb
    | exception exn ->
        Engine.delay ~category:Category.Proc_call e
          cm.Lrpc_sim.Cost_model.proc_call;
        raise exn
  in
  Engine.delay_then ~category:Category.Proc_call e
    cm.Lrpc_sim.Cost_model.proc_call ~then_:Category.Stub_client
    cm.Lrpc_sim.Cost_model.client_stub_call;
  let plan = Layout.plan pb.pb_layout ~args in
  let astack = Astack.checkout ?deadline_at rt b pb in
  let oob = not (Layout.fits pb.pb_layout plan) in
  let data_region =
    if oob then begin
      (* §5.2: arguments too large for the A-stack travel in an
         out-of-band segment — complicated and relatively expensive,
         but infrequent. *)
      Engine.delay ~category:Category.Kernel_transfer e oob_overhead;
      Kernel.alloc_region rt.kernel ~owner:client
        ~name:(Printf.sprintf "oob-%s-%d" proc astack.a_id)
        ~bytes:plan.Layout.total_bytes
        ~mapped:[ client; server ]
    end
    else astack.a_region
  in
  let t_bind = Engine.now e in
  (try
     marshal_inputs e ?audit ~client:caller ~region:data_region
       ~proc:pb.pb_spec plan.Layout.in_slots args
   with exn ->
     if oob then Kernel.release_region rt.kernel ~owner:client data_region;
     Astack.checkin rt pb astack;
     raise exn);
  let t_marshal = Engine.now e in
  Ck_local
    {
      lc_caller = caller;
      lc_pb = pb;
      lc_plan = plan;
      lc_astack = astack;
      lc_region = data_region;
      lc_oob = oob;
      lc_audit = audit;
      lc_marshal_cpu = (Engine.current_cpu e).Engine.idx;
      lc_bytes_in = slot_bytes 0 plan.Layout.in_slots;
      lc_bytes_out = slot_bytes 0 plan.Layout.out_slots;
      lc_released = false;
      lc_detached = false;
      lc_t_bind = t_bind;
      lc_t_marshal = t_marshal;
      lc_t_transfer = t_marshal;
      lc_t_server = t_marshal;
    }

(* The remote stub's call side: the same argument checks the local stub
   makes while planning its A-stack slots, against the interface the
   Binding Object names. Errors raise here, before a window slot or a
   sequence number is taken. *)
let check_remote_args b ~proc args =
  let p =
    match I.find_proc b.b_export.ex_iface proc with
    | Some p -> p
    | None -> raise (Bad_binding ("no such procedure: " ^ proc))
  in
  let inputs =
    List.filter
      (fun (prm : I.param) -> prm.I.mode = I.In || prm.I.mode = I.In_out)
      p.I.params
  in
  if List.length inputs <> List.length args then
    raise
      (Layout.Arity_mismatch
         (Printf.sprintf "%s: expected %d arguments" proc (List.length inputs)));
  List.iter2 (fun (prm : I.param) v -> V.check_exn prm.I.ty v) inputs args

(* Abort an unlanded call — the deadline/timeout path. §5.3 discipline:
   a vehicle inside the server cannot be forced home, so its linkage is
   marked abandoned (the kernel destroys the thread and reclaims the
   A-stack when it finally returns), while the handle lands {e now} so
   the awaiter resumes with [Deadline_exceeded]. A vehicle still on its
   way in picks the abort up at linkage-claim time. Inline vehicles
   (the awaiting thread itself) cannot abort themselves — a no-op, as is
   aborting a call that already landed. Engine-level safe: timers call
   this directly. *)
let abort rt h ~reason =
  let exn = Deadline_exceeded reason in
  match h.ch_state with
  | Landed _ | Consumed -> ()
  | Issued ->
      (* Not yet executing: fail the handle; the awaiter's readback
         releases the A-stack. *)
      land_ rt h (Error exn)
  | In_flight -> (
      match h.ch_carrier with
      | None ->
          (* The awaiting thread is the vehicle, mid-completion: it
             cannot abandon itself; let the call finish. *)
          ()
      | Some c ->
          h.ch_abort <- Some exn;
          (match h.ch_kind with
          | Ck_remote _ ->
              (* The carrier serves out the wire exchange (the server may
                 or may not have executed — at-most-once, not exactly-
                 once); its late outcome is dropped by the landing
                 guard. *)
              ()
          | Ck_local lc ->
              lc.lc_detached <- true;
              let linkage = lc.lc_astack.a_linkage in
              let held_by_carrier =
                linkage.l_in_use
                && (match linkage.l_caller with
                   | Some th -> th == c
                   | None -> false)
              in
              if held_by_carrier then begin
                (* Captured inside the server: abandoned, destroyed on
                   return (§5.3). *)
                linkage.l_abandoned <- true;
                linkage.l_valid <- false
              end);
          land_ rt h (Error exn))

(* Refuse a call at the door. Raised before any resource is claimed, so
   the only cost of a rejected call is the client-stub entry. *)
let overloaded b ~reason =
  let hint = if b.b_srv_ewma_us > 0.0 then b.b_srv_ewma_us else 1000.0 in
  raise (Overloaded { ov_reason = reason; ov_backoff_us = hint })

(* Admission control (installed via [rt.admission], off by default): the
   concurrency bound rejects when the binding already has its limit of
   calls in flight, and deadline-aware admission rejects calls whose
   whole deadline budget is smaller than the observed (EWMA) service
   time — they would only be aborted after consuming a server thread. *)
let admission_gate rt b ?deadline () =
  match rt.admission with
  | None -> ()
  | Some adm ->
      (match adm.adm_max_inflight with
      | Some m when b.b_inflight >= m ->
          overloaded b
            ~reason:
              (Printf.sprintf "binding %d at concurrency limit (%d in flight)"
                 b.bid m)
      | _ -> ());
      (match deadline with
      | Some d when adm.adm_deadline_aware ->
          let need = b.b_srv_ewma_us in
          if need > 0.0 && Time.to_us d < need then
            overloaded b
              ~reason:
                (Printf.sprintf
                   "deadline budget %.0f us below observed service time %.0f us"
                   (Time.to_us d) need)
      | _ -> ());
      Metrics.Counter.incr rt.c_calls_admitted

let issue_guarded ?audit ?deadline ~vehicle rt b ~proc args =
  let e = engine rt in
  let cm = cost_model rt in
  let t0 = Engine.now e in
  (* The admission test is the stub's first instruction, like the §5.1
     remote bit: a couple of loads and compares before the formal
     procedure entry, so a refused call is turned away without ever
     competing for a processor — under overload the rejected sessions
     cost the system nothing, which is what keeps rejection cheaper
     than the work it sheds. *)
  admission_gate rt b ?deadline ();
  (* Admitted: the concurrency the gate bounds is admitted-and-not-yet-
     landed, counted from the gate itself — a call holds its slot
     through the stub entry, the kernel trap, the A-stack FIFO and its
     whole in-service time, so under CPU overload the gate sees every
     runnable thread still inside a call on this binding, not just the
     ones that made it past checkout. Any refusal below (a queue shed,
     a bad binding, a killed thread) returns the slot; a landed call
     returns it in [land_]. *)
  b.b_inflight <- b.b_inflight + 1;
  try
  let kind =
    match b.b_remote with
    | Some r ->
        (* The formal procedure call into the client stub. *)
        Engine.delay ~category:Category.Proc_call e
          cm.Lrpc_sim.Cost_model.proc_call;
        (* §5.1: the remote bit, tested by the stub's first instruction,
           branches to the conventional network RPC path — here gated by
           the binding's in-flight window, the wire analogue of the
           A-stack pool bound. *)
        check_remote_args b ~proc args;
        while r.r_in_flight >= r.r_window do
          Waitq.wait r.r_wait
        done;
        r.r_in_flight <- r.r_in_flight + 1;
        Ck_remote { rc_args = args; rc_results = []; rc_slot_held = true }
    | None ->
        (* The local stub charges the procedure call itself. The
           deadline propagates into the A-stack FIFO wait (so a waiter
           whose deadline passes is shed from the queue) only under an
           installed admission policy — without one no timer is armed
           and the delay sequence is untouched. *)
        let deadline_at =
          match (rt.admission, deadline) with
          | Some _, Some d -> Some (Time.add t0 d)
          | _ -> None
        in
        issue_local ?audit ?deadline_at rt b ~proc args
  in
  let h =
    {
      ch_id = rt.next_handle;
      ch_binding = b;
      ch_proc = proc;
      ch_issuer = Engine.self e;
      ch_issued_at = t0;
      ch_kind = kind;
      ch_carrier = None;
      ch_state = Issued;
      ch_waiters = [];
      ch_abort = None;
      ch_deadline = None;
    }
  in
  rt.next_handle <- rt.next_handle + 1;
  note_call_issued rt;
  if Engine.tracing e then
    Engine.emit e (Event.Call_issued { binding = b.bid; proc; handle = h.ch_id });
  (match vehicle with
  | `Inline -> ()
  | `Carrier ->
      (* Pipelined: a carrier thread in the client domain crosses into
         the server on the issuer's behalf; the issuer keeps running. *)
      h.ch_state <- In_flight;
      let carrier =
        Kernel.spawn rt.kernel b.b_client
          ~name:(Printf.sprintf "carrier-%s#%d" proc h.ch_id)
          (fun () -> run_completion rt h)
      in
      h.ch_carrier <- Some carrier);
  (match deadline with
  | Some d ->
      h.ch_deadline <-
        Some
          (Engine.at e (Time.add t0 d) (fun () ->
               abort rt h
                 ~reason:
                   (Printf.sprintf "%s: deadline (%.0f us) exceeded" proc
                      (Time.to_us d))))
  | None -> ());
  h
  with exn ->
    b.b_inflight <- b.b_inflight - 1;
    raise exn

(* Every synchronous refusal of the issue half — an admission rejection,
   a queue-depth or sojourn shed, a deadline that expired while queued,
   a bad binding — is a call that never got a handle. Count it, so that
   issued + rejected accounts for every attempt, and trace it as its own
   event (there is no handle for a [Call_failed]). *)
let issue ?audit ?deadline ~vehicle rt b ~proc args =
  try issue_guarded ?audit ?deadline ~vehicle rt b ~proc args with
  | (Engine.Thread_killed | Unwind_termination) as exn -> raise exn
  | exn ->
      Metrics.Counter.incr rt.c_calls_rejected;
      let e = engine rt in
      if Engine.tracing e then
        Engine.emit e
          (Event.Call_rejected
             { binding = b.bid; proc; reason = reason_of_exn exn });
      raise exn

(* ---- await -------------------------------------------------------------- *)

let rec await_loop rt h =
  let e = engine rt in
  match h.ch_state with
  | Consumed ->
      raise
        (Already_awaited (Printf.sprintf "%s (handle #%d)" h.ch_proc h.ch_id))
  | Issued ->
      (* Inline handle: the awaiting thread itself is the vehicle — this
         is the synchronous call path, bit-identical in cost to the
         pre-handle implementation. *)
      run_completion rt h;
      await_loop rt h
  | Landed outcome -> readout rt h outcome
  | In_flight ->
      h.ch_waiters <- Engine.self e :: h.ch_waiters;
      Engine.block e;
      await_loop rt h

let await ?timeout rt h =
  match timeout with
  | None -> await_loop rt h
  | Some d ->
      let e = engine rt in
      let tmr =
        Engine.at e
          (Time.add (Engine.now e) d)
          (fun () ->
            abort rt h
              ~reason:
                (Printf.sprintf "%s: await timeout (%.0f us) exceeded"
                   h.ch_proc (Time.to_us d)))
      in
      Fun.protect
        ~finally:(fun () -> Engine.cancel_timer e tmr)
        (fun () -> await_loop rt h)

let await_any rt hs =
  if hs = [] then invalid_arg "Call.await_any: no handles";
  let e = engine rt in
  let landed h = match h.ch_state with Landed _ -> true | _ -> false in
  let issued h = match h.ch_state with Issued -> true | _ -> false in
  let consumed h = match h.ch_state with Consumed -> true | _ -> false in
  let rec loop () =
    match List.find_opt landed hs with
    | Some h -> (
        match h.ch_state with
        | Landed outcome -> (h, readout rt h outcome)
        | _ -> assert false)
    | None -> (
        match List.find_opt issued hs with
        | Some h ->
            (* An inline handle among the candidates: complete it
               ourselves rather than sleeping forever. *)
            run_completion rt h;
            loop ()
        | None ->
            if List.for_all consumed hs then
              raise (Already_awaited "await_any: every handle consumed");
            let th = Engine.self e in
            List.iter
              (fun h ->
                match h.ch_state with
                | In_flight -> h.ch_waiters <- th :: h.ch_waiters
                | Issued | Landed _ | Consumed -> ())
              hs;
            Engine.block e;
            loop ())
  in
  loop ()

let await_all ?timeout rt hs = List.map (fun h -> await ?timeout rt h) hs

(* ---- entry points ------------------------------------------------------- *)

let call ?audit ?deadline rt b ~proc args =
  match deadline with
  | None -> await rt (issue ?audit ~vehicle:`Inline rt b ~proc args)
  | Some _ ->
      (* A synchronous call with a deadline needs an abortable vehicle:
         the §5.3 abandon protocol cannot release the awaiting thread
         from itself, so the completion half rides a carrier. This is
         the one case where a deadline changes the call's cost. *)
      await rt (issue ?audit ?deadline ~vehicle:`Carrier rt b ~proc args)

let call_async ?audit ?deadline rt b ~proc args =
  issue ?audit ?deadline ~vehicle:`Carrier rt b ~proc args
