open Rt

let allocate_batch rt ~client ~server ~proc ~size ~count ~primary =
  List.init count (fun i ->
      let a_id = rt.next_astack in
      rt.next_astack <- a_id + 1;
      let a_region =
        Kernel.alloc_region rt.kernel ~owner:client
          ~name:(Printf.sprintf "astack-%s-%d" proc.I.proc_name a_id)
          ~bytes:(max size 1)
          ~mapped:[ client; server ]
      in
      let l_region =
        Kernel.alloc_region rt.kernel ~owner:(Kernel.kernel_domain rt.kernel)
          ~name:(Printf.sprintf "linkage-%s-%d" proc.I.proc_name a_id)
          ~bytes:64 ~mapped:[]
      in
      ignore i;
      {
        a_id;
        a_region;
        a_linkage =
          {
            l_region;
            l_in_use = false;
            l_valid = true;
            l_abandoned = false;
            l_caller = None;
            l_return_domain = None;
          };
        a_primary = primary;
        a_shard = 0;
        a_estack = None;
        a_last_used = Time.zero;
        a_footprint = None;
      })

(* One shard per processor, capped by the A-stack count (no point in
   empty shards); exactly one shard on a uniprocessor, which makes the
   sharded pool behave — cost-for-cost — like the old single-lock one. *)
let shard_count rt count =
  max 1 (min (Array.length (Engine.cpus (engine rt))) count)

let make_pool rt ~client ~server ~proc ~size ~count =
  let astacks =
    allocate_batch rt ~client ~server ~proc ~size ~count ~primary:true
  in
  (* Under a re-shard policy the pool starts with a single shard and
     earns more only when the controller observes contention — the
     conservative end of the tuning loop. Without one (the default,
     and every published configuration) the historical one-shard-per-
     processor layout is kept bit-identical. *)
  let nsh = match rt.reshard with None -> shard_count rt count | Some _ -> 1 in
  List.iteri (fun i a -> a.a_shard <- i mod nsh) astacks;
  let shards =
    Array.init nsh (fun si ->
        {
          ash_lock =
            Spinlock.create
              ~name:(Printf.sprintf "astack-q-%s" proc.I.proc_name)
              (engine rt);
          ash_free = List.filter (fun a -> a.a_shard = si) astacks;
        })
  in
  let pool =
    {
      ap_bytes = size;
      ap_shards = shards;
      ap_checkouts = 0;
      ap_contended = 0;
      ap_waiters = Queue.create ();
      ap_all = astacks;
    }
  in
  rt.pools <- pool :: rt.pools;
  pool

let lock_hold rt = (cost_model rt).Lrpc_sim.Cost_model.astack_lock

(* Admission context for one checkout: the binding whose queue-delay
   histogram a queued wait observes into, and (only while an admission
   policy is installed) the call's absolute deadline, so expiry can
   abort the wait instead of letting a doomed call consume a grant. *)
type admit = { ad_binding : Rt.binding; ad_deadline_at : Time.t option }

let waiting pool =
  Queue.fold (fun acc c -> if c.aw_active then acc + 1 else acc) 0 pool.ap_waiters

let shed_counter rt =
  Metrics.counter (Engine.metrics (engine rt)) "lrpc.calls_shed"

(* The backoff hint a rejection carries: twice the sojourn target when
   one is set (the CoDel-ish "come back after the queue has drained a
   target's worth"), else a millisecond. *)
let backoff_hint rt =
  match rt.admission with
  | Some { adm_target_sojourn = Some t; _ } -> 2.0 *. Time.to_us t
  | Some _ | None -> 1_000.0

let shed rt ~reason =
  Metrics.Counter.incr (shed_counter rt);
  raise (Overloaded { ov_reason = reason; ov_backoff_us = backoff_hint rt })

(* Engine-level free-list access (timers, revocation, invariant checks):
   the sharded lists are ordinary state — spinlocks only model cost and
   contention for in-thread users. *)

let push_free pool a =
  let sh = pool.ap_shards.(a.a_shard) in
  sh.ash_free <- a :: sh.ash_free

let pop_free_any pool =
  let n = Array.length pool.ap_shards in
  let rec go i =
    if i >= n then None
    else
      let sh = pool.ap_shards.(i) in
      match sh.ash_free with
      | a :: rest ->
          sh.ash_free <- rest;
          Some a
      | [] -> go (i + 1)
  in
  go 0

let free_count pool =
  Array.fold_left (fun acc sh -> acc + List.length sh.ash_free) 0 pool.ap_shards

(* --- Adaptive re-shard controller (tuning loop, off unless a
   [Rt.reshard] policy is installed) ---

   A pool whose checkouts keep tripping the contended-fallback path has
   more concurrent callers than shards; doubling the shard count (up to
   one per processor) spreads them over more locks. Re-sharding moves
   every A-stack to a new home shard, so it only runs at a quiescent
   point: no shard lock held (checked here). Checked-out A-stacks are
   re-homed too — their check-in lands on the new shard — and free-list
   membership is preserved exactly, so simulated call results are
   unchanged; only future lock-contention outcomes differ. *)

let shards_quiescent pool =
  Array.for_all (fun sh -> Spinlock.holder sh.ash_lock = None) pool.ap_shards

let reshard_pool rt pool =
  let nsh = Array.length pool.ap_shards in
  let nsh' = min (shard_count rt (List.length pool.ap_all)) (2 * nsh) in
  if nsh' <= nsh || not (shards_quiescent pool) then false
  else begin
    let free =
      Array.fold_left (fun acc sh -> acc @ sh.ash_free) [] pool.ap_shards
    in
    List.iteri (fun i a -> a.a_shard <- i mod nsh') pool.ap_all;
    pool.ap_shards <-
      Array.init nsh' (fun si ->
          {
            ash_lock = Spinlock.create ~name:"astack-q-resharded" (engine rt);
            ash_free =
              List.filter
                (fun a -> a.a_shard = si && List.memq a free)
                pool.ap_all;
          });
    Metrics.Counter.incr rt.c_reshards;
    true
  end

let review_pool rt rs pool =
  if pool.ap_checkouts >= rs.rs_window then begin
    let ratio =
      float_of_int pool.ap_contended /. float_of_int pool.ap_checkouts
    in
    pool.ap_checkouts <- 0;
    pool.ap_contended <- 0;
    if ratio > rs.rs_threshold then ignore (reshard_pool rt pool)
  end

(* Hand [a] to the longest-waiting live waiter, returning the thread to
   wake, or [None] when nobody (live) is waiting. The grant is written
   into the waiter's cell before the wake, so the woken caller resumes
   with the A-stack already in hand. *)
let rec grant_waiter pool a =
  match Queue.take_opt pool.ap_waiters with
  | None -> None
  | Some cell ->
      if
        cell.aw_active
        && cell.aw_grant = None (* a starve-timer grant may already be
                                   in hand; don't overwrite (and lose)
                                   an A-stack *)
        && Engine.alive cell.aw_th
        && not (Engine.has_pending_interrupt cell.aw_th)
      then begin
        cell.aw_grant <- Some a;
        Some cell.aw_th
      end
      else grant_waiter pool a

(* Return an A-stack nobody will consume (a granted waiter died before
   resuming): pass it on to the next live waiter, or back to the free
   list. *)
let relinquish rt pool a =
  match grant_waiter pool a with
  | Some th -> Engine.wake (engine rt) th
  | None -> push_free pool a

(* Exhaustion back-pressure (paper §5.2's `Wait policy). The blocked
   caller enqueues a FIFO waiter cell and sleeps; the granting check-in
   fills the cell before waking it, so the woken caller neither re-takes
   the pool spinlock nor races a fresh caller for the free list — the
   A-stack transfers without any shared lock on the waiter's side.
   Wake-ups from any other source find the grant empty and sleep again. *)
let wait_in_cell rt pool cell =
  let e = engine rt in
  let consumed = ref false in
  Fun.protect
    ~finally:(fun () ->
      cell.aw_active <- false;
      (* Granted but exiting abnormally (an interrupt delivered between
         the grant and our resumption): the A-stack must not be lost. *)
      match cell.aw_grant with
      | Some a when not !consumed ->
          cell.aw_grant <- None;
          relinquish rt pool a
      | Some _ | None -> ())
    (fun () ->
      while cell.aw_grant = None do
        Engine.block e
      done;
      consumed := true;
      match cell.aw_grant with Some a -> a | None -> assert false)

(* One FIFO wait with the overload guards around it. While queued, an
   installed admission policy's sojourn target arms a CoDel-style timer
   that sheds the waiter (interrupting it with [Overloaded]) once its
   queue delay exceeds the target, and a call deadline arms a second
   timer delivering [Deadline_exceeded] — the §5.3 abort-while-waiting
   path: the interrupted waiter's [Fun.protect] deactivates the cell and
   relinquishes any racing grant, so no A-stack leaks and later waiters
   keep their FIFO order. On a grant, the wait's duration lands in the
   binding's ["lrpc.queue_delay_us"] histogram. With no admission policy
   installed and no deadline, no timer is armed: cost-identical to a
   bare [wait_in_cell]. *)
let guarded_cell_wait ?admit rt pool cell =
  let e = engine rt in
  let t0 = Engine.now e in
  let timers = ref [] in
  let arm at exn ~on_fire =
    timers :=
      Engine.at e at (fun () ->
          if
            cell.aw_active && cell.aw_grant = None && Engine.alive cell.aw_th
            && not (Engine.has_pending_interrupt cell.aw_th)
          then begin
            on_fire ();
            Engine.interrupt e cell.aw_th exn
          end)
      :: !timers
  in
  (match admit with
  | None -> ()
  | Some ad ->
      (match rt.admission with
      | Some { adm_target_sojourn = Some target; _ } ->
          arm (Time.add t0 target)
            (Overloaded
               {
                 ov_reason =
                   Printf.sprintf
                     "A-stack queue delay exceeded %.0f us sojourn target"
                     (Time.to_us target);
                 ov_backoff_us = backoff_hint rt;
               })
            ~on_fire:(fun () -> Metrics.Counter.incr (shed_counter rt))
      | Some _ | None -> ());
      (match ad.ad_deadline_at with
      | Some at ->
          arm at
            (Deadline_exceeded "deadline expired while queued for an A-stack")
            ~on_fire:(fun () -> ())
      | None -> ()));
  Fun.protect
    ~finally:(fun () -> List.iter (Engine.cancel_timer e) !timers)
    (fun () ->
      let a = wait_in_cell rt pool cell in
      (match admit with
      | Some ad ->
          Metrics.Histo.observe_us ad.ad_binding.b_stats.cs_queue
            (Time.sub (Engine.now e) t0)
      | None -> ());
      a)

let wait_for_grant ?admit rt pool =
  let cell =
    { aw_th = Engine.self (engine rt); aw_grant = None; aw_active = true }
  in
  Queue.push cell pool.ap_waiters;
  guarded_cell_wait ?admit rt pool cell

(* Join the FIFO waiter queue with a safety timer that re-grants from the
   free lists after [d], unless an interleaved check-in got there first.
   Used by injected starvation and by the contended-checkout fallback —
   in the latter the interfering lock holder may already have consumed
   the last free A-stack, in which case only a future check-in can grant,
   so the timer alone (no polling, no spinning) keeps the path
   deadlock-free. *)
let timed_grant_wait ?admit rt pool d =
  let e = engine rt in
  let cell = { aw_th = Engine.self e; aw_grant = None; aw_active = true } in
  Queue.push cell pool.ap_waiters;
  let tmr =
    Engine.at e
      (Time.add (Engine.now e) d)
      (fun () ->
        if cell.aw_active && cell.aw_grant = None then
          match pop_free_any pool with
          | Some a ->
              cell.aw_grant <- Some a;
              Engine.wake e cell.aw_th
          | None -> () (* genuinely dry: a future check-in grants FIFO *))
  in
  Fun.protect
    ~finally:(fun () -> Engine.cancel_timer e tmr)
    (fun () -> guarded_cell_wait ?admit rt pool cell)

(* Injected transient starvation (fault plan): the caller joins the FIFO
   waiter queue even though the free lists may be non-empty, exercising
   the direct-grant path until the starvation window closes. *)
let starve ?admit rt pool d =
  Metrics.Counter.incr
    (Metrics.counter (Engine.metrics (engine rt)) "fault.astack_starvations");
  timed_grant_wait ?admit rt pool d

(* Unlink every queued waiter and deliver [exn] into it instead of a
   grant — a binding being revoked must not hand A-stacks of a dead
   binding to blocked callers (§5.3). Engine-level safe. *)
let fail_waiters rt pool exn =
  let e = engine rt in
  Queue.iter
    (fun cell ->
      if cell.aw_active then begin
        cell.aw_active <- false;
        (match cell.aw_grant with
        | Some a ->
            (* Granted but not yet resumed: take the A-stack back. *)
            cell.aw_grant <- None;
            push_free pool a
        | None -> ());
        Engine.interrupt e cell.aw_th exn
      end)
    pool.ap_waiters

let checkout ?admit rt pb ~client ~server =
  let pool = pb.pb_pool in
  let starved =
    match rt.faults with
    | Some f -> (
        match f.f_starvation ~proc:pb.pb_spec.I.proc_name with
        | Some d -> Some (starve ?admit rt pool d)
        | None -> None)
    | None -> None
  in
  match starved with
  | Some a ->
      a.a_last_used <- Engine.now (engine rt);
      a
  | None -> (
  let e = engine rt in
  (* Re-shard review first (one pointer test with no policy installed):
     resizing before the scan keeps this checkout's view of the shard
     array consistent. *)
  (match rt.reshard with
  | None -> ()
  | Some rs ->
      pool.ap_checkouts <- pool.ap_checkouts + 1;
      review_pool rt rs pool);
  let nsh = Array.length pool.ap_shards in
  (* Home shard follows the calling processor, so steady-state checkouts
     on different processors touch different locks and free lists. *)
  let preferred = if nsh = 1 then 0 else (Engine.current_cpu e).Engine.idx mod nsh in
  let taken = ref None in
  let contended = ref false in
  (* Lock-free in the "never waits on a lock" sense: a shard whose lock
     is held by someone else is skipped, not spun on. The claim happens
     at acquire time — the hold models the critical section's cost, so
     concurrent scanners must not see a claimed A-stack as still free.

     The holder pre-check misses simultaneous arrivals (the acquire's
     own instruction cost runs before the lock is taken, so a whole
     round of same-instant checkouts passes the check and then queues
     inside [Spinlock.acquire]); the spinlock's contended-acquire
     counter catches exactly those, and feeds the same re-shard
     signal. *)
  let try_shard si =
    let sh = pool.ap_shards.(si) in
    if Spinlock.holder sh.ash_lock <> None then begin
      if sh.ash_free <> [] then contended := true
    end
    else if sh.ash_free <> [] then begin
      let waited = Spinlock.contended_acquires sh.ash_lock in
      Spinlock.acquire sh.ash_lock;
      if Spinlock.contended_acquires sh.ash_lock > waited then begin
        Metrics.Counter.incr rt.c_shard_contended;
        if rt.reshard <> None then
          pool.ap_contended <- pool.ap_contended + 1
      end;
      (match sh.ash_free with
      | a :: rest ->
          sh.ash_free <- rest;
          taken := Some a
      | [] -> () (* drained by a timer grant; no yield point, unlikely *));
      Fun.protect
        ~finally:(fun () -> Spinlock.release sh.ash_lock)
        (fun () ->
          Engine.delay ~category:Lrpc_sim.Category.Lock e (lock_hold rt));
      if !taken <> None then raise_notrace Exit
    end
  in
  (try
     match Engine.topology e with
     | Some topo when nsh > 1 ->
         (* Shard index doubles as the shard's home processor (never
            more shards than processors): visit shards homed on the
            caller's cluster before paying a cross-cluster cache pull,
            keeping the rotation order within each pass. *)
         let my =
           Lrpc_sim.Cost_model.cluster_of topo
             (Engine.current_cpu e).Engine.idx
         in
         for k = 0 to nsh - 1 do
           let si = (preferred + k) mod nsh in
           if Lrpc_sim.Cost_model.cluster_of topo si = my then try_shard si
         done;
         for k = 0 to nsh - 1 do
           let si = (preferred + k) mod nsh in
           if Lrpc_sim.Cost_model.cluster_of topo si <> my then try_shard si
         done
     | Some _ | None ->
         for k = 0 to nsh - 1 do
           try_shard ((preferred + k) mod nsh)
         done
   with Exit -> ());
  match !taken with
  | Some a ->
      a.a_last_used <- Engine.now e;
      a
  | None when !contended ->
      (* Every free A-stack (if any) sits behind a held shard lock: fall
         back to the FIFO direct-grant path rather than spin. *)
      Metrics.Counter.incr rt.c_shard_contended;
      if rt.reshard <> None then pool.ap_contended <- pool.ap_contended + 1;
      let a = timed_grant_wait ?admit rt pool (lock_hold rt) in
      a.a_last_used <- Engine.now e;
      a
  | None -> (
      Metrics.Counter.incr rt.c_pool_exhausted;
      (* Queue-depth admission: a checkout that would queue behind a
         full FIFO is refused here, before consuming anything, rather
         than deepening a queue the sojourn target already condemns.
         Gated on both an installed policy and an admission context, so
         bare checkouts (tests, revocation paths) never shed. *)
      (match (admit, rt.admission) with
      | Some _, Some { adm_max_queue = Some m; _ } ->
          let depth = waiting pool in
          if depth >= m then
            shed rt
              ~reason:
                (Printf.sprintf "A-stack FIFO full (%d waiters, limit %d)"
                   depth m)
      | _ -> ());
      match rt.config.astack_exhaustion with
      | `Wait ->
          let a = wait_for_grant ?admit rt pool in
          a.a_last_used <- Engine.now e;
          a
      | `Allocate ->
          (* Space contiguous to the original A-stacks is unlikely to be
             found (§5.2); the extras validate more slowly. *)
          let extras =
            allocate_batch rt ~client ~server ~proc:pb.pb_spec
              ~size:pool.ap_bytes ~count:1 ~primary:false
          in
          List.iter (fun a -> a.a_shard <- preferred) extras;
          pool.ap_all <- pool.ap_all @ extras;
          let a = List.hd extras in
          a.a_last_used <- Engine.now e;
          a))

let checkin rt pb a =
  let pool = pb.pb_pool in
  let sh = pool.ap_shards.(a.a_shard) in
  let e = engine rt in
  Spinlock.acquire sh.ash_lock;
  (* Grant-or-push at acquire time (see checkout): during the hold, a
     scanner on another processor sees the returned A-stack behind this
     held lock and takes the contended-fallback path rather than
     mis-reading the shard as empty. *)
  let woken =
    match grant_waiter pool a with
    | Some th -> Some th
    | None ->
        sh.ash_free <- a :: sh.ash_free;
        None
  in
  Fun.protect
    ~finally:(fun () -> Spinlock.release sh.ash_lock)
    (fun () -> Engine.delay ~category:Lrpc_sim.Category.Lock e (lock_hold rt));
  (* The wake itself happens outside the lock: the waiter resumes with the
     grant in hand and never touches the spinlock. *)
  match woken with
  | Some th -> Engine.wake e th
  | None -> ()

let validate rt pb a =
  if not (List.memq a pb.pb_pool.ap_all) then
    raise (Bad_binding "A-stack does not belong to this procedure");
  if not a.a_primary then
    Engine.delay ~category:Lrpc_sim.Category.Kernel_transfer (engine rt)
      rt.config.extra_astack_validation;
  if a.a_linkage.l_in_use then
    raise (Bad_binding "A-stack/linkage pair already in use")
