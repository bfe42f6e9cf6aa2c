open Rt

let allocate_batch rt ~pool ~client ~server ~proc ~size ~count ~primary =
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
        Kernel.alloc_region rt.kernel
          ~owner:(Kernel.kernel_domain rt.kernel)
          ~name:(Printf.sprintf "linkage-%s-%d" proc.I.proc_name a_id)
          ~bytes:64 ~mapped:[]
      in
      ignore i;
      let rec a =
        {
          a_id;
          a_pool = pool;
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
          a_footprint = Tlb.empty_footprint;
          a_footprint_estack = 0;
          a_some = Some a;
        }
      in
      a)

(* One shard per processor, capped by the A-stack count (no point in
   empty shards); exactly one shard on a uniprocessor, which makes the
   sharded pool behave — cost-for-cost — like the old single-lock one. *)
let shard_count rt count =
  max 1 (min (Array.length (Engine.cpus (engine rt))) count)

let make_pool rt ~client ~server ~proc ~size ~count =
  let ap_id = rt.next_pool in
  rt.next_pool <- ap_id + 1;
  let astacks =
    allocate_batch rt ~pool:ap_id ~client ~server ~proc ~size ~count
      ~primary:true
  in
  let nsh = shard_count rt count in
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
  {
    ap_id;
    ap_bytes = size;
    ap_shards = shards;
    ap_waiters = Queue.create ();
    ap_all = astacks;
  }

let lock_hold rt = (cost_model rt).Lrpc_sim.Cost_model.astack_lock

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
let guarded_cell_wait ?deadline_at rt b pool cell =
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
  (match rt.admission with
  | Some { adm_target_sojourn = Some target; _ } ->
      arm (Time.add t0 target)
        (Overloaded
           {
             ov_reason =
               Printf.sprintf "A-stack queue delay exceeded %.0f us sojourn target"
                 (Time.to_us target);
             ov_backoff_us = backoff_hint rt;
           })
        ~on_fire:(fun () -> Metrics.Counter.incr (shed_counter rt))
  | Some _ | None -> ());
  (match deadline_at with
  | Some at ->
      arm at
        (Deadline_exceeded "deadline expired while queued for an A-stack")
        ~on_fire:(fun () -> ())
  | None -> ());
  Fun.protect
    ~finally:(fun () -> List.iter (Engine.cancel_timer e) !timers)
    (fun () ->
      let a = wait_in_cell rt pool cell in
      Metrics.Histo.observe_us b.b_stats.cs_queue (Time.sub (Engine.now e) t0);
      a)

let wait_for_grant ?deadline_at rt b pool =
  let cell =
    { aw_th = Engine.self (engine rt); aw_grant = None; aw_active = true }
  in
  Queue.push cell pool.ap_waiters;
  guarded_cell_wait ?deadline_at rt b pool cell

(* Join the FIFO waiter queue with a safety timer that re-grants from the
   free lists after [d], unless an interleaved check-in got there first.
   Used by injected starvation and by the contended-checkout fallback —
   in the latter the interfering lock holder may already have consumed
   the last free A-stack, in which case only a future check-in can grant,
   so the timer alone (no polling, no spinning) keeps the path
   deadlock-free. *)
let timed_grant_wait ?deadline_at rt b pool d =
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
    (fun () -> guarded_cell_wait ?deadline_at rt b pool cell)

(* Injected transient starvation (fault plan): the caller joins the FIFO
   waiter queue even though the free lists may be non-empty, exercising
   the direct-grant path until the starvation window closes. *)
let starve ?deadline_at rt b pool d =
  Metrics.Counter.incr
    (Metrics.counter (Engine.metrics (engine rt)) "fault.astack_starvations");
  timed_grant_wait ?deadline_at rt b pool d

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

(* One critical section's cost with [lock] held, then its release,
   however the hold ends. *)
let hold_then_release rt e lock =
  match Engine.delay ~category:Lrpc_sim.Category.Lock e (lock_hold rt) with
  | () -> Spinlock.release lock
  | exception exn ->
      Spinlock.release lock;
      raise exn

(* Pop [sh]'s head A-stack under its lock. The claim happens at acquire
   time — the hold models the critical section's cost, so concurrent
   scanners must not see a claimed A-stack as still free. [None] when a
   timer grant drained the list first (no yield point, unlikely).

   The caller's holder pre-check misses simultaneous arrivals (the
   acquire's own instruction cost runs before the lock is taken, so a
   whole round of same-instant checkouts passes the check and then
   queues inside [Spinlock.acquire]); the spinlock's contended-acquire
   counter catches exactly those. *)
let take_from_shard rt e sh =
  let waited = Spinlock.contended_acquires sh.ash_lock in
  Spinlock.acquire sh.ash_lock;
  if Spinlock.contended_acquires sh.ash_lock > waited then
    Metrics.Counter.incr rt.c_shard_contended;
  let taken =
    match sh.ash_free with
    | a :: rest ->
        sh.ash_free <- rest;
        Some a
    | [] -> None
  in
  hold_then_release rt e sh.ash_lock;
  taken

(* Whether checkout's scan visits shard [si] in pass [pass]: under a
   topology, pass 0 takes the shards homed on the caller's cluster
   [mine] (a shard's index doubles as its home processor: never more
   shards than processors) and pass 1 the rest; without one, the single
   pass takes them all. *)
let in_pass topo ~mine pass si =
  match topo with
  | None -> true
  | Some topo -> (Lrpc_sim.Cost_model.cluster_of topo si = mine) = (pass = 0)

let checkout ?deadline_at rt b pb =
  let pool = pb.pb_pool in
  let starved =
    match rt.faults with
    | Some f -> (
        match f.f_starvation ~proc:pb.pb_spec.I.proc_name with
        | Some d -> Some (starve ?deadline_at rt b pool d)
        | None -> None)
    | None -> None
  in
  match starved with
  | Some a ->
      a.a_last_used <- Engine.now (engine rt);
      a
  | None -> (
  let e = engine rt in
  let nsh = Array.length pool.ap_shards in
  (* Home shard follows the calling processor, so steady-state checkouts
     on different processors touch different locks and free lists. *)
  let preferred = if nsh = 1 then 0 else (Engine.current_cpu e).Engine.idx mod nsh in
  let topo = if nsh > 1 then Engine.topology e else None in
  let mine =
    match topo with
    | Some topo ->
        Lrpc_sim.Cost_model.cluster_of topo (Engine.current_cpu e).Engine.idx
    | None -> 0
  in
  (* Lock-free in the "never waits on a lock" sense: a shard whose lock
     is held by someone else is skipped, not spun on, and the scan stops
     at the first A-stack taken. Under a topology a first pass visits
     the shards homed on the caller's cluster and a second the rest,
     each in rotation order. Plain loops and locals: nothing here
     allocates but the taken A-stack's option. *)
  let taken = ref None and contended = ref false in
  let passes = match topo with Some _ -> 2 | None -> 1 in
  let pass = ref 0 and k = ref 0 in
  while !taken == None && !pass < passes do
    let si = (preferred + !k) mod nsh in
    if in_pass topo ~mine !pass si then begin
      let sh = pool.ap_shards.(si) in
      match (Spinlock.holder sh.ash_lock, sh.ash_free) with
      | Some _, _ :: _ -> contended := true
      | None, _ :: _ -> taken := take_from_shard rt e sh
      | _, [] -> ()
    end;
    incr k;
    if !k = nsh then begin
      k := 0;
      incr pass
    end
  done;
  match !taken with
  | Some a ->
      a.a_last_used <- Engine.now e;
      a
  | None when !contended ->
      (* Every free A-stack (if any) sits behind a held shard lock: fall
         back to the FIFO direct-grant path rather than spin. *)
      Metrics.Counter.incr rt.c_shard_contended;
      let a = timed_grant_wait ?deadline_at rt b pool (lock_hold rt) in
      a.a_last_used <- Engine.now e;
      a
  | None -> (
      Metrics.Counter.incr rt.c_pool_exhausted;
      (* Queue-depth admission: a checkout that would queue behind a
         full FIFO is refused here, before consuming anything, rather
         than deepening a queue the sojourn target already condemns. *)
      (match rt.admission with
      | Some { adm_max_queue = Some m; _ } ->
          let depth = waiting pool in
          if depth >= m then
            shed rt
              ~reason:
                (Printf.sprintf "A-stack FIFO full (%d waiters, limit %d)"
                   depth m)
      | _ -> ());
      match rt.config.astack_exhaustion with
      | `Wait ->
          let a = wait_for_grant ?deadline_at rt b pool in
          a.a_last_used <- Engine.now e;
          a
      | `Allocate ->
          (* Space contiguous to the original A-stacks is unlikely to be
             found (§5.2); the extras validate more slowly. *)
          let extras =
            allocate_batch rt ~pool:pool.ap_id ~client:b.b_client
              ~server:b.b_server
              ~proc:pb.pb_spec ~size:pool.ap_bytes ~count:1 ~primary:false
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
  let woken = grant_waiter pool a in
  if woken == None then sh.ash_free <- a :: sh.ash_free;
  hold_then_release rt e sh.ash_lock;
  (* The wake itself happens outside the lock: the waiter resumes with the
     grant in hand and never touches the spinlock. *)
  match woken with
  | Some th -> Engine.wake e th
  | None -> ()

let validate rt pb a =
  if a.a_pool <> pb.pb_pool.ap_id then
    raise (Bad_binding "A-stack does not belong to this procedure");
  if not a.a_primary then
    Engine.delay ~category:Lrpc_sim.Category.Kernel_transfer (engine rt)
      extra_astack_validation;
  if a.a_linkage.l_in_use then
    raise (Bad_binding "A-stack/linkage pair already in use")
