module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

exception Thread_killed
exception Not_in_thread

type state = Embryo | Ready | Running | Blocked | Spinning | Done | Failed

type thread = {
  tid : int;
  name : string;
  mutable domain : int;
  mutable state : state;
  mutable cpu : int; (* index, -1 when not on a processor *)
  mutable last_cpu : int;
  home : int; (* preferred processor, -1 for any *)
  mutable cont : (unit, unit) Effect.Deep.continuation;
      (* the parked fiber, [no_cont] when there is none *)
  mutable body : unit -> unit;
      (* what the thread runs on a fresh fiber at its next resumption: its
         body before its first instruction, or the continuation of a
         [rest_until]; [no_body] otherwise *)
  mutable pending_exn : exn option;
  mutable spin_start : Time.t;
  mutable rq_seq : int;
      (* enqueue stamp while the thread sits in a run queue, -1 when it
         is in none *)
  mutable rq_next : thread;
      (* the next thread of its run queue, [nil] at the end: a thread is
         in at most one queue, so queues are lists linked through the
         threads and enqueue, pop and steal allocate nothing *)
  mutable sleep_seq : int;
      (* timer-heap sequence of the wake entry of the [sleep_until] or
         [rest_until] this thread is in, -1 outside one; an entry whose
         sequence disagrees belongs to a sleep already left and is
         ignored *)
  some : thread option;
      (* preallocated [Some self]: [current], [running] and the run-queue
         scans never allocate one *)
}

and timer = { t_fn : unit -> unit; mutable t_cancelled : bool }

(* What a processor still owes its running thread once the resumption
   of the thread's delay pops: nothing, a fixed charge, or the TLB
   refill of a page list (see [delay_tail]). *)
and tail = No_tail | Fixed | Refill

type cpu = {
  idx : int;
  mutable running : thread option;
  mutable context : int option;
  tlb : Tlb.t;
  mutable busy : Time.t;
  mutable rq_head : thread; (* oldest entry of this processor's run queue *)
  mutable rq_tail : thread;
  mutable rq_len : int;
  mutable tail : tail;
  mutable tail_cat : Category.t;
  mutable tail_len : Time.t;
  mutable tail_pages : Tlb.footprint;
  mutable steals : int;
  mutable steals_tagged : int;
  mutable steals_near : int;
  mutable steals_far : int;
  mutable lock_spin : Time.t;
}

type t = {
  cm : Cost_model.t;
  cpus_ : cpu array;
  run_heap : Heap.t;
      (* resumptions of threads on a processor, by thread id: one per
         processor at most *)
  timer_heap : Heap.t;
      (* timers, by slab slot, and sleeps, by wake code (see [at]);
         shares [run_heap]'s sequence counter *)
  mutable slab : timer array;
      (* the timers of queued [at] entries, by slot; a slot is cleared
         and freed when its entry pops *)
  mutable free_slots : int array; (* a stack of the free slots... *)
  mutable n_free : int; (* ...of this many *)
  mutable run_pushes : int;
  mutable timer_pushes : int;
  mutable resumes : int;
  mutable ready_seq : int; (* global enqueue stamp: cross-queue FIFO age *)
  mutable queued : int;
      (* threads in all run queues together: at 0 no processor has
         anything to pop or steal, and dispatch returns at once *)
  mutable queued_busy : int;
      (* threads in the run queues of busy processors, the only ones a
         steal may take: at 0 a steal returns at once *)
  mutable executing : int;
      (* threads on a processor in state [Running] (spinners excluded):
         the bus factor's load, kept by [place], [wake] of a spinner,
         [fn_block]/[fn_yield]/[fn_spin], [handoff]/[yield_to] and
         [finish] *)
  mutable rr_next : int; (* round-robin target for unpinned enqueues *)
  mutable now_ : Time.t;
  mutable limit : Time.t; (* [until] of the [run] in progress *)
  mutable next_tid : int;
  mutable current : thread option;
  mutable failures_ : (thread * exn) list;
  mutable threads : thread array;
      (* every thread spawned, by id ([nil] past [next_tid]): a thread
         lives as long as its engine, and the heaps name threads by id *)
  metrics_ : Metrics.t;
  cat_time : Metrics.counter array; (* charged ns, indexed by Category.index *)
  tlb_miss_count : Metrics.counter;
  mutable running_host : bool;
  mutable tracer : Trace.t option;
  (* The operands of the payload-free [Delay] and [Suspend] effects,
     written by the performing thread just before it performs one. *)
  mutable d_cat : Category.t;
  mutable d_len : Time.t;
  mutable s_fn : thread -> unit;
  mutable s_peer : thread option; (* [to_] of [handoff]/[yield_to] *)
  (* Preallocated suspension callbacks for the closure-free fast paths
     ([block]/[yield]/[spin_suspend] are per-call operations). *)
  mutable fn_block : thread -> unit;
  mutable fn_yield : thread -> unit;
  mutable fn_spin : thread -> unit;
  mutable fn_handoff : thread -> unit;
  mutable fn_yield_to : thread -> unit;
  mutable handler : (unit, unit) Effect.Deep.handler;
      (* every thread's fiber runs under this one handler, which finds
         its thread in [current] *)
  c_steals : Metrics.counter;
  c_steals_tagged : Metrics.counter;
  c_steals_near : Metrics.counter;
  c_steals_far : Metrics.counter;
  topo : Cost_model.topology option;
      (* cm.topology, hoisted out of the per-dispatch hot path; None on
         every published model keeps those paths byte-identical *)
  victims : int array array;
      (* per-CPU distance-ordered steal scan order (empty without a
         topology): own cluster first, then the rest of the machine *)
  victims_near : int array;
      (* how many leading entries of each ring are same-cluster *)
  (* A steal scan's best candidates so far, oldest overall and oldest in
     the thief's loaded context, with their queues: engine fields rather
     than refs, so a scan allocates nothing. *)
  mutable sc_best : thread;
  mutable sc_best_seq : int;
  mutable sc_best_victim : int;
  mutable sc_tagged : thread;
  mutable sc_tagged_prev : thread; (* its predecessor in its queue *)
  mutable sc_tagged_seq : int;
  mutable sc_tagged_victim : int;
  mutable contexts : int option array;
      (* [Some d] at index [d], built on first use: loading a small
         domain's context onto a processor allocates no option *)
}

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t

(* Raised by [rest_until] to end the resting thread's fiber. *)
exception Rest

(* The empty continuation slot: the continuation of a fiber suspended
   here once and resumed at once, so its fiber is gone and resuming it
   again raises. A parked continuation is stored bare and told from
   this one by address. *)
let no_cont : (unit, unit) Effect.Deep.continuation =
  let parked : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Suspend
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) -> parked := Some k)
          | _ -> None);
    };
  let k = Option.get !parked in
  Effect.Deep.continue k ();
  k

(* The empty body slot, told from a body by address. *)
let no_body () = ()

(* The end marker of the run-queue links and the empty steal candidate. *)
let rec nil =
  {
    tid = -1;
    name = "";
    domain = -1;
    state = Done;
    cpu = -1;
    last_cpu = -1;
    home = -1;
    cont = no_cont;
    body = no_body;
    pending_exn = None;
    spin_start = Time.zero;
    rq_seq = -1;
    rq_next = nil;
    sleep_seq = -1;
    some = Some nil;
  }

let[@inline] tracing t =
  match t.tracer with None -> false | Some _ -> true

let now t = t.now_

(* Non-optional-argument emit for the engine's own hot call sites: no
   [Some tid] wrappers, and callers guard with [tracing] so the event
   payload is never even constructed when detached. *)
let emit_at t ~tid ~cpu kind =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.emit tr ~at:t.now_ ~tid ~cpu kind

(* --- construction ------------------------------------------------------ *)

let create ?(processors = 1) ?(domains = 1) cm =
  if processors < 1 then
    invalid_arg "Engine.create: processors must be at least 1";
  if domains <> 1 then
    invalid_arg
      "Engine.create: domains must be 1 (the engine is one event loop on \
       one host domain)";
  let cpus_ =
    Array.init processors (fun idx ->
        {
          idx;
          running = None;
          context = None;
          tlb = Tlb.create ~capacity:cm.Cost_model.tlb_capacity ~tagged:cm.Cost_model.tlb_tagged;
          busy = Time.zero;
          rq_head = nil;
          rq_tail = nil;
          rq_len = 0;
          tail = No_tail;
          tail_cat = Category.Other;
          tail_len = Time.zero;
          tail_pages = Tlb.empty_footprint;
          steals = 0;
          steals_tagged = 0;
          steals_near = 0;
          steals_far = 0;
          lock_spin = Time.zero;
        })
  in
  let metrics_ = Metrics.create () in
  (* Category.all is in Category.index order, so position = index. *)
  let cat_time =
    Array.of_list
      (List.map
         (fun cat ->
           Metrics.counter metrics_
             ~labels:[ ("category", Category.slug cat) ]
             "sim.time_ns")
         Category.all)
  in
  let run_heap = Heap.create () in
  let t =
    {
      cm;
      cpus_;
      run_heap;
      timer_heap = Heap.create ~share:run_heap ();
      slab = [||];
      free_slots = [||];
      n_free = 0;
      run_pushes = 0;
      timer_pushes = 0;
      resumes = 0;
      ready_seq = 0;
      queued = 0;
      queued_busy = 0;
      executing = 0;
      rr_next = 0;
      now_ = Time.zero;
      limit = max_int;
      next_tid = 0;
      current = None;
      failures_ = [];
      threads = [||];
      metrics_;
      cat_time;
      tlb_miss_count = Metrics.counter metrics_ "sim.tlb_misses";
      running_host = false;
      tracer = None;
      d_cat = Category.Other;
      d_len = Time.zero;
      s_fn = ignore;
      s_peer = None;
      fn_block = ignore;
      fn_yield = ignore;
      fn_spin = ignore;
      fn_handoff = ignore;
      fn_yield_to = ignore;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      c_steals =
        Metrics.counter metrics_ ~labels:[ ("kind", "retag") ] "sim.steals";
      c_steals_tagged =
        Metrics.counter metrics_ ~labels:[ ("kind", "tagged") ] "sim.steals";
      c_steals_near =
        Metrics.counter metrics_ ~labels:[ ("dist", "near") ] "sim.steals_dist";
      c_steals_far =
        Metrics.counter metrics_ ~labels:[ ("dist", "far") ] "sim.steals_dist";
      topo = cm.Cost_model.topology;
      victims =
        (match cm.Cost_model.topology with
        | None -> [||]
        | Some topo ->
            Array.init processors (fun cpu ->
                Cost_model.victim_ring topo ~cpus:processors ~cpu));
      victims_near =
        (match cm.Cost_model.topology with
        | None -> [||]
        | Some topo ->
            Array.init processors (fun cpu ->
                let lo =
                  Cost_model.cluster_of topo cpu * topo.Cost_model.cluster_size
                in
                let hi =
                  min processors (lo + topo.Cost_model.cluster_size)
                in
                hi - lo - 1));
      sc_best = nil;
      sc_best_seq = max_int;
      sc_best_victim = -1;
      sc_tagged = nil;
      sc_tagged_prev = nil;
      sc_tagged_seq = max_int;
      sc_tagged_victim = -1;
      contexts = [||];
    }
  in
  t.fn_spin <-
    (fun th ->
      th.state <- Spinning;
      t.executing <- t.executing - 1;
      th.spin_start <- t.now_);
  t

let set_tracer t tracer = t.tracer <- tracer

let metrics t = t.metrics_

let emit ?tid ?cpu t kind =
  match t.tracer with
  | None -> ()
  | Some _ ->
      let dtid, dcpu =
        match t.current with
        | Some th -> (th.tid, th.cpu)
        | None -> (-1, -1)
      in
      let tid = match tid with Some x -> x | None -> dtid in
      let cpu = match cpu with Some x -> x | None -> dcpu in
      emit_at t ~tid ~cpu kind

let cost_model t = t.cm
let cpus t = t.cpus_
let run_pushes t = t.run_pushes
let timer_pushes t = t.timer_pushes
let resumptions t = t.resumes

let charge t cat d = Metrics.Counter.add t.cat_time.(Category.index cat) d

let breakdown t =
  List.filter_map
    (fun cat ->
      match Metrics.Counter.value t.cat_time.(Category.index cat) with
      | 0 -> None
      | ns -> Some (cat, ns))
    Category.all

let reset_breakdown t = Array.iter Metrics.Counter.reset t.cat_time

let total_tlb_misses t =
  Array.fold_left (fun acc c -> acc + Tlb.miss_count c.tlb) 0 t.cpus_

let thread_id th = th.tid
let thread_name th = th.name
let thread_domain th = th.domain

let alive th = match th.state with Done | Failed -> false | _ -> true

let has_pending_interrupt th = th.pending_exn <> None

let failures t = t.failures_

let check_failures ?(what = "simulated thread") t =
  match t.failures_ with
  | [] -> ()
  | (th, exn) :: _ ->
      failwith
        (Printf.sprintf "%s %s died: %s" what th.name (Printexc.to_string exn))

let stuck_threads t =
  let stuck = ref [] in
  for tid = 0 to t.next_tid - 1 do
    let th = t.threads.(tid) in
    match th.state with
    | Blocked | Spinning | Ready | Embryo -> stuck := th :: !stuck
    | Running | Done | Failed -> ()
  done;
  !stuck

(* --- the two heaps ------------------------------------------------------ *)

(* A thread with a queued resumption is [Running] on a processor and
   stays there until the resumption pops, and a processor runs one
   thread, so the run heap never holds more entries than processors. *)
let push_run t time th =
  assert (Heap.length t.run_heap < Array.length t.cpus_);
  t.run_pushes <- t.run_pushes + 1;
  Heap.push t.run_heap ~time th.tid

let push_timer t time code =
  t.timer_pushes <- t.timer_pushes + 1;
  Heap.push t.timer_heap ~time code

(* A timer-heap entry is an int: the slab slot of an [at] timer, or the
   wake code [-1 - tid] of a thread's sleep. *)
let[@inline] wake_code tid = -1 - tid

(* What a free slab slot holds. *)
let no_timer = { t_fn = ignore; t_cancelled = true }

(* Double the slab. The slots it adds go on the free stack, lowest on
   top; the stack is empty when the slab grows. *)
let grow_slab t =
  let n = Array.length t.slab in
  let cap = max 16 (2 * n) in
  let slab = Array.make cap no_timer in
  Array.blit t.slab 0 slab 0 n;
  t.slab <- slab;
  t.free_slots <- Array.init cap (fun i -> cap - 1 - i);
  t.n_free <- cap - n

let slot_of t tmr =
  if t.n_free = 0 then grow_slab t;
  let n = t.n_free - 1 in
  t.n_free <- n;
  let slot = t.free_slots.(n) in
  t.slab.(slot) <- tmr;
  slot

(* The entry of [slot] has popped: clear and free the slot, so a fired
   or cancelled timer's closure is not kept, and run the timer unless
   it was cancelled. *)
let fire t slot =
  let tmr = t.slab.(slot) in
  t.slab.(slot) <- no_timer;
  t.free_slots.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  if not tmr.t_cancelled then begin
    tmr.t_cancelled <- true;
    tmr.t_fn ()
  end

(* Whether [time] comes before every queued event of both heaps. An
   empty heap reads as [max_int], which no delay reaches. *)
let[@inline] before_queued t time =
  time < Heap.earliest t.run_heap && time < Heap.earliest t.timer_heap

(* --- dispatch machinery ------------------------------------------------ *)

(* The domain ids below which [context_of] shares one [Some d]: kernel
   ids count up from 1, and an arbitrary caller-chosen id must not size
   the cache. *)
let context_cache_bound = 4096

(* [Some domain], shared by every processor that loads the domain when
   [domain] is in [0, context_cache_bound); a fresh option outside. *)
let context_of t domain =
  if domain < 0 || domain >= context_cache_bound then Some domain
  else begin
    let n = Array.length t.contexts in
    if domain >= n then begin
      let grown =
        Array.make (min context_cache_bound (max (domain + 1) (2 * n))) None
      in
      Array.blit t.contexts 0 grown 0 n;
      t.contexts <- grown
    end;
    match t.contexts.(domain) with
    | Some _ as ctx -> ctx
    | None ->
        let ctx = Some domain in
        t.contexts.(domain) <- ctx;
        ctx
  end

let[@inline] cpu_free c =
  match c.running with None -> true | Some _ -> false

(* [c] starts running [th], or stops running anything: either way its
   queue's entries join or leave [queued_busy]. Every write of
   [c.running] goes through these two. *)
let occupy t c th =
  c.running <- th.some;
  t.queued_busy <- t.queued_busy + c.rq_len

let vacate t c =
  c.running <- None;
  t.queued_busy <- t.queued_busy - c.rq_len

(* Under a topology, the multiplier of placing a thread that last ran on
   [prev] on [c]: the longer of two pulls, its working set from [prev]
   and, for a steal, its queue entry and home-cluster state from the
   [victim] queue's CPU (-1 for none). *)
let pull_mult topo ~prev ~victim c =
  let m = if prev < 0 then 1.0 else Cost_model.mult topo prev c.idx in
  if victim < 0 then m else Float.max m (Cost_model.mult topo victim c.idx)

(* Assign [th] to the free processor [c], charging a context switch when
   the loaded VM context differs from the thread's domain, and schedule
   its resumption. Under a topology the reload is scaled by
   [pull_mult]. Without a topology ([topo = None]) the arithmetic is
   byte-identical to the flat engine (no float traffic). [victim] is the
   robbed queue's processor for a steal, -1 otherwise. *)
let place t th c ~victim =
  assert (cpu_free c);
  assert (th.cpu = -1);
  let prev = th.last_cpu in
  (* Only a placement moves [last_cpu] off -1. *)
  let placed_before = prev >= 0 in
  occupy t c th;
  th.cpu <- c.idx;
  th.last_cpu <- c.idx;
  th.state <- Running;
  t.executing <- t.executing + 1;
  let differs =
    match c.context with Some d -> d <> th.domain | None -> true
  in
  let cost =
    if differs then begin
      Tlb.invalidate c.tlb;
      c.context <- context_of t th.domain;
      (* The very first placement models a process that already existed
         when the measurement window opened (as in the paper's set-up);
         it loads the context without charging anyone. *)
      if placed_before then begin
        let reload =
          match t.topo with
          | None -> t.cm.Cost_model.vm_reload
          | Some topo ->
              let m = pull_mult topo ~prev ~victim c in
              if m = 1.0 then t.cm.Cost_model.vm_reload
              else Time.scale t.cm.Cost_model.vm_reload m
        in
        charge t Category.Context_switch reload;
        c.busy <- Time.add c.busy reload;
        reload
      end
      else Time.zero
    end
    else
      (* Warm context: the flat engine charges nothing — a tagged steal
         is the whole point of the tag preference. Under a topology a
         cross-cluster pull still moves the thread's stack and queue
         state over the interconnect, so it pays the distance premium
         (the multiplier's excess over the free local pull). *)
      match t.topo with
      | Some topo when victim >= 0 && placed_before ->
          let m = pull_mult topo ~prev ~victim c in
          if m > 1.0 then begin
            let premium = Time.scale t.cm.Cost_model.vm_reload (m -. 1.0) in
            charge t Category.Context_switch premium;
            c.busy <- Time.add c.busy premium;
            premium
          end
          else Time.zero
      | _ -> Time.zero
  in
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:c.idx
      (Event.Dispatch
         { thread = th.name; domain = th.domain; switched = cost <> Time.zero });
  push_run t (Time.add t.now_ cost) th

let free_cpu_of t th =
  if th.cpu >= 0 then begin
    vacate t t.cpus_.(th.cpu);
    th.last_cpu <- th.cpu;
    th.cpu <- -1
  end

(* First free processor, preferring home then last-run: returns the cpu
   index, or -1 when none is free (no option/closure traffic — this runs
   on every wake and dispatch). *)
let pick_cpu_idx t th =
  let cpus = t.cpus_ in
  let n = Array.length cpus in
  if th.home >= 0 && th.home < n && cpu_free cpus.(th.home) then th.home
  else if th.last_cpu >= 0 && th.last_cpu < n && cpu_free cpus.(th.last_cpu)
  then th.last_cpu
  else begin
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < n do
      if cpu_free cpus.(!i) then found := !i;
      incr i
    done;
    !found
  end

(* --- per-CPU run queues and work stealing -------------------------------

   Each processor owns a FIFO run queue; a runnable thread is enqueued on
   its home processor's queue (falling back to the processor it last ran
   on, then round-robin for never-placed unpinned threads). Every enqueue
   carries a globally increasing stamp so cross-queue age is comparable.
   A free processor drains its own queue first; only when that is empty —
   i.e. its tagged domain (and everyone else homed here) has no runnable
   thread — does it steal, preferring the oldest queued thread whose
   domain matches its loaded context (no retag, preserving the §3.4
   domain-caching semantics) and otherwise taking the oldest thread
   anywhere.

   A queue is a list linked through its threads' [rq_next], oldest
   first. A queued thread is [Embryo] or [Ready] and leaves the queue
   only by a pop or a steal, both of which unlink it, so every entry is
   live and none is left behind as a ghost. [t.queued] counts the
   entries of all queues: when it is 0 there is nothing to dispatch.
   [c.rq_len] counts [c]'s, and [t.queued_busy] those of busy
   processors. *)

let rq_append t c th =
  th.rq_next <- nil;
  if c.rq_tail == nil then c.rq_head <- th else c.rq_tail.rq_next <- th;
  c.rq_tail <- th;
  c.rq_len <- c.rq_len + 1;
  if not (cpu_free c) then t.queued_busy <- t.queued_busy + 1;
  t.queued <- t.queued + 1

(* Unlink [th], which follows [prev] ([nil] for the head) in [c]'s
   queue. *)
let rq_unlink t c ~prev th =
  let n = th.rq_next in
  if prev == nil then c.rq_head <- n else prev.rq_next <- n;
  if n == nil then c.rq_tail <- prev;
  th.rq_next <- nil;
  th.rq_seq <- -1;
  c.rq_len <- c.rq_len - 1;
  if not (cpu_free c) then t.queued_busy <- t.queued_busy - 1;
  t.queued <- t.queued - 1

let ready_push t th =
  let n = Array.length t.cpus_ in
  let i =
    if th.home >= 0 && th.home < n then th.home
    else if th.last_cpu >= 0 && th.last_cpu < n then th.last_cpu
    else begin
      let r = t.rr_next in
      t.rr_next <- (if r + 1 >= n then 0 else r + 1);
      r
    end
  in
  let seq = t.ready_seq in
  t.ready_seq <- seq + 1;
  th.rq_seq <- seq;
  rq_append t t.cpus_.(i) th

(* Steal for the free processor [c]: scan other queues for the oldest
   entry, tracking separately the oldest whose domain matches [c]'s
   loaded context. Preference order: tagged-domain match first (placement
   then charges no context switch), else oldest overall.

   Without a topology the scan covers every queue at once (the flat
   engine's behaviour, byte-identical). With one, and [near_steal] set,
   the scan walks the CPU's distance-ordered victim ring: the rest of
   its own cluster first, the remote clusters only when the near segment
   held nothing runnable. With [near_steal = false] (the distance-blind
   ablation) the scan stays flat but the distance costs and near/far
   counters still apply. *)

(* The oldest thread of [tag] in the queue that starts at [th], if it is
   older than the tagged candidate so far. A queue is in stamp order, so
   its first match is its oldest, and the walk stops at the first entry
   that is no older than the candidate. *)
let rec scan_tagged t tag i ~prev th =
  if th != nil && th.rq_seq < t.sc_tagged_seq then
    if th.domain = tag then begin
      t.sc_tagged <- th;
      t.sc_tagged_prev <- prev;
      t.sc_tagged_seq <- th.rq_seq;
      t.sc_tagged_victim <- i
    end
    else scan_tagged t tag i ~prev:th th.rq_next

(* Fold queue [i] into the candidates. Queues whose owner is itself free
   are off-limits: that processor drains its own queue in the same
   dispatch pass, and stealing from it would defeat the home-processor
   preference. *)
let steal_scan t c tag i =
  if i <> c.idx then begin
    let v = t.cpus_.(i) in
    let head = v.rq_head in
    if head != nil && not (cpu_free v) then begin
      if head.rq_seq < t.sc_best_seq then begin
        t.sc_best <- head;
        t.sc_best_seq <- head.rq_seq;
        t.sc_best_victim <- i
      end;
      scan_tagged t tag i ~prev:nil head
    end
  end

let scan_reset t =
  t.sc_best <- nil;
  t.sc_best_seq <- max_int;
  t.sc_tagged <- nil;
  t.sc_tagged_prev <- nil;
  t.sc_tagged_seq <- max_int

(* Unlink the scan's pick, if there is one, count the steal and place
   the thread on [c]. *)
let take_steal t c =
  let tagged = t.sc_tagged != nil in
  let th = if tagged then t.sc_tagged else t.sc_best in
  if th == nil then false
  else begin
    let victim = if tagged then t.sc_tagged_victim else t.sc_best_victim in
    (* The oldest overall is a queue's head. *)
    let prev = if tagged then t.sc_tagged_prev else nil in
    scan_reset t;
    rq_unlink t t.cpus_.(victim) ~prev th;
    if tagged then begin
      c.steals_tagged <- c.steals_tagged + 1;
      Metrics.Counter.incr t.c_steals_tagged
    end
    else begin
      c.steals <- c.steals + 1;
      Metrics.Counter.incr t.c_steals
    end;
    (match t.topo with
    | None -> ()
    | Some topo ->
        if Cost_model.cluster_of topo c.idx = Cost_model.cluster_of topo victim
        then begin
          c.steals_near <- c.steals_near + 1;
          Metrics.Counter.incr t.c_steals_near
        end
        else begin
          c.steals_far <- c.steals_far + 1;
          Metrics.Counter.incr t.c_steals_far
        end);
    place t th c ~victim;
    true
  end

let[@inline] context_tag c = match c.context with Some d -> d | None -> -1

let steal_flat t c =
  let tag = context_tag c in
  scan_reset t;
  for i = 0 to Array.length t.cpus_ - 1 do
    steal_scan t c tag i
  done;
  take_steal t c

let steal_ring t c =
  let ring = t.victims.(c.idx) and near = t.victims_near.(c.idx) in
  let tag = context_tag c in
  scan_reset t;
  for k = 0 to near - 1 do
    steal_scan t c tag ring.(k)
  done;
  take_steal t c
  || begin
       for k = near to Array.length ring - 1 do
         steal_scan t c tag ring.(k)
       done;
       take_steal t c
     end

(* The thief is free and a steal takes only from busy processors'
   queues, so with [queued_busy] at 0 there is nothing to take. That is
   the common case while threads are spawned on an idle machine: the
   one queued thread sits on a free processor's queue, and each free
   processor before it would scan every queue for nothing. Otherwise
   some other queue holds a candidate, and the scan finds one. *)
let steal t c =
  t.queued_busy > 0
  &&
  let stolen =
    match t.topo with
    | Some topo when topo.Cost_model.near_steal -> steal_ring t c
    | _ -> steal_flat t c
  in
  assert stolen;
  stolen

let dispatch_cpu t c =
  let th = c.rq_head in
  if th != nil then begin
    rq_unlink t c ~prev:nil th;
    place t th c ~victim:(-1)
  end
  else ignore (steal t c : bool)

(* Offer every free processor a dispatch, while anything is queued. *)
let try_dispatch t =
  let cpus = t.cpus_ in
  let i = ref 0 in
  while t.queued > 0 && !i < Array.length cpus do
    let c = cpus.(!i) in
    if cpu_free c then dispatch_cpu t c;
    incr i
  done

let spawn ?(name = "thread") ?(home = -1) t ~domain body =
  let tid = t.next_tid in
  let rec th =
    {
      tid;
      name;
      domain;
      state = Embryo;
      cpu = -1;
      last_cpu = -1;
      home;
      cont = no_cont;
      body;
      pending_exn = None;
      spin_start = Time.zero;
      rq_seq = -1;
      rq_next = nil;
      sleep_seq = -1;
      some = Some th;
    }
  in
  let n = Array.length t.threads in
  if tid = n then begin
    let grown = Array.make (max 16 (2 * n)) nil in
    Array.blit t.threads 0 grown 0 n;
    t.threads <- grown
  end;
  t.threads.(tid) <- th;
  t.next_tid <- tid + 1;
  ready_push t th;
  try_dispatch t;
  th

(* --- execution --------------------------------------------------------- *)

(* Only the executing thread finishes (its body returned or raised, or
   [exec] found it killed before its first instruction), so it leaves
   [Running] here. *)
let finish t th fail =
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu
      (Event.Finish
         {
           thread = th.name;
           error = Option.map Printexc.to_string fail;
         });
  th.state <- (match fail with None -> Done | Some _ -> Failed);
  t.executing <- t.executing - 1;
  (match fail with
  | Some e -> t.failures_ <- (th, e) :: t.failures_
  | None -> ());
  th.cont <- no_cont;
  th.body <- no_body;
  free_cpu_of t th;
  try_dispatch t

let take_cont th =
  let k = th.cont in
  assert (k != no_cont);
  th.cont <- no_cont;
  k

(* Bus dilation of a delay: [1 + bus_alpha * (executing - 1)]. Alone on
   the bus (or no bus model) the factor is exactly 1.0 and
   [Time.scale d 1.0 = d], so skip the float round-trip entirely. *)
let[@inline] dilate t d =
  let alpha = t.cm.Cost_model.bus_alpha in
  if alpha = 0.0 then d
  else
    let execn = t.executing in
    if execn <= 1 then d
    else Time.scale d (1.0 +. (alpha *. float_of_int (execn - 1)))

(* Charge the already-dilated [d] to [cat] and to [th]'s processor; the
   caller moves the clock or schedules the resumption. *)
let[@inline] charge_slice t th cat d =
  charge t cat d;
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Slice { category = cat; dur = d });
  let c = t.cpus_.(th.cpu) in
  c.busy <- Time.add c.busy d

let handle_delay t th k =
  assert (th.cpu >= 0);
  let d = t.d_len in
  charge_slice t th t.d_cat d;
  th.cont <- k;
  push_run t (Time.add t.now_ d) th

let exec t th =
  t.resumes <- t.resumes + 1;
  t.current <- th.some;
  (match th.pending_exn with
  | Some e when th.body != no_body ->
      (* Killed before its first instruction, or while resting. *)
      th.pending_exn <- None;
      th.body <- no_body;
      th.sleep_seq <- -1;
      finish t th (match e with Thread_killed -> None | e -> Some e)
  | Some e ->
      th.pending_exn <- None;
      Effect.Deep.discontinue (take_cont th) e
  | None ->
      let body = th.body in
      if body == no_body then Effect.Deep.continue (take_cont th) ()
      else begin
        (* A start on a fresh fiber: the first, or the end of a rest. *)
        th.body <- no_body;
        th.sleep_seq <- -1;
        Effect.Deep.match_with body () t.handler
      end);
  t.current <- None

(* The resumption of a delay with a tail has popped (see [delay_tail]):
   do what the thread would do once resumed, up to its next effect. With
   an interrupt pending, the resumption delivers it and the tail is never
   charged. Otherwise the thread would compute the tail (a refill touches
   its TLB now), dilate it by the executing count of this instant, emit
   its [Slice], and either run ahead or suspend: here the suspension is a
   push with the sequence the thread's own push would take, and the
   fiber stays parked until that resumption pops. *)
let charge_tail t th cat d =
  charge_slice t th cat d;
  let until = Time.add t.now_ d in
  if until <= t.limit && before_queued t until then begin
    t.now_ <- until;
    exec t th
  end
  else push_run t until th

let boundary t th c =
  let tail = c.tail and pages = c.tail_pages in
  c.tail <- No_tail;
  c.tail_pages <- Tlb.empty_footprint;
  match (th.pending_exn, tail) with
  | Some _, _ | None, No_tail -> exec t th
  | None, Fixed ->
      charge_tail t th c.tail_cat (dilate t c.tail_len)
  | None, Refill ->
      let misses = Tlb.access c.tlb ~domain:th.domain ~pages in
      if misses > 0 then begin
        Metrics.Counter.add t.tlb_miss_count misses;
        charge_tail t th Category.Tlb_miss
          (dilate t (misses * t.cm.Cost_model.tlb_miss))
      end
      else exec t th

(* Defined before the event loop, which runs it for a sleep's wake entry. *)
let wake t th =
  match th.state with
  | Blocked ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Wake { thread = th.name });
      let i = pick_cpu_idx t th in
      if i >= 0 then place t th t.cpus_.(i) ~victim:(-1)
      else begin
        th.state <- Ready;
        ready_push t th
      end
  | Spinning ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Wake { thread = th.name });
      th.state <- Running;
      t.executing <- t.executing + 1;
      let c = t.cpus_.(th.cpu) in
      let spun = Time.sub t.now_ th.spin_start in
      c.busy <- Time.add c.busy spun;
      c.lock_spin <- Time.add c.lock_spin spun;
      charge t Category.Lock spun;
      if spun <> Time.zero && tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu
          (Event.Slice { category = Category.Lock; dur = spun });
      push_run t t.now_ th
  | Embryo | Ready | Running | Done | Failed -> ()

(* --- the event loop ------------------------------------------------------

   Two heaps, one loop: each step pops the earlier of the two tops by
   (time, seq). The heaps share one sequence counter, so this is the
   order one heap holding every event would pop them in. Sequences are
   read only on a tie of times (which includes two empty heaps).
   Allocation-free per event. *)

let run_serial t =
  let runs = t.run_heap and timers = t.timer_heap and limit = t.limit in
  let continue_ = ref true in
  while !continue_ do
    let rt = Heap.earliest runs and tt = Heap.earliest timers in
    if rt < tt || (rt = tt && Heap.precedes runs timers) then begin
      if rt > limit then continue_ := false
      else begin
        t.now_ <- rt;
        let th = t.threads.(Heap.take runs) in
        match th.state with
        | Running -> (
            let c = t.cpus_.(th.cpu) in
            match c.tail with
            | No_tail -> exec t th
            | Fixed | Refill -> boundary t th c)
        | Embryo | Ready | Blocked | Spinning | Done | Failed ->
            (* Stale event: the thread moved on (e.g. it was killed
               while waiting and already discontinued). *)
            ()
      end
    end
    else if Heap.is_empty timers then continue_ := false
    else begin
      if tt > limit then continue_ := false
      else begin
        t.now_ <- tt;
        let seq = Heap.top_seq timers in
        let code = Heap.take timers in
        if code >= 0 then fire t code
        else
          let sleeper = t.threads.(wake_code code) in
          if sleeper.sleep_seq = seq then wake t sleeper
      end
    end
  done

let run ?until t =
  if t.running_host then invalid_arg "Engine.run: re-entrant call";
  t.running_host <- true;
  t.limit <- (match until with Some u -> u | None -> max_int);
  Fun.protect
    ~finally:(fun () -> t.running_host <- false)
    (fun () -> run_serial t)

(* --- in-thread operations ---------------------------------------------- *)

let self t =
  match t.current with Some th -> th | None -> raise Not_in_thread

let self_opt t = t.current

let current_cpu t =
  let th = self t in
  if th.cpu < 0 then raise Not_in_thread else t.cpus_.(th.cpu)

(* Run-ahead: when the delaying thread would be the next event anyway,
   charge the slice in place and move the clock, with no effect,
   continuation or heap traffic. Three conditions make that exact. The
   caller is the current thread with no pending interrupt (the general
   path delivers one on resumption). The delay ends within the [run] in
   progress (the general path would stop before resuming it). And it
   ends strictly before every queued event: nothing else runs while a
   thread delays and the heap orders by (time, monotone sequence), so a
   skipped push reorders nothing, while a queued event at an equal time
   holds the lower sequence and must run first. *)
let delay_cat t cat d =
  if d < 0 then invalid_arg "Engine.delay: negative duration";
  let d = dilate t d in
  let until = Time.add t.now_ d in
  match t.current with
  | Some ({ pending_exn = None; _ } as th)
    when until <= t.limit && before_queued t until ->
      charge_slice t th cat d;
      t.now_ <- until
  | _ ->
      t.d_cat <- cat;
      t.d_len <- d;
      Effect.perform Delay

let delay ?(category = Category.Other) t d = delay_cat t category d

let suspend t f =
  t.s_fn <- f;
  Effect.perform Suspend

(* Every suspension callback is built once per engine (in [bind_fns])
   instead of one closure per invocation; [handoff] and [yield_to] pass
   their target in [s_peer]. *)
let block t = suspend t t.fn_block

let yield t = suspend t t.fn_yield

let spin_suspend t = suspend t t.fn_spin

let handoff t ~to_ =
  t.s_peer <- to_.some;
  suspend t t.fn_handoff

let yield_to t ~to_ =
  t.s_peer <- to_.some;
  suspend t t.fn_yield_to

(* Queue the current thread's wake entry for [time]. It is pushed
   before the thread blocks, where [at] would push its timer, so it
   takes the sequence [at] then [block] would. *)
let push_wake t time =
  let th = self t in
  (* Never schedule into the past: the heap would rewind [now_]. *)
  let time = if Time.compare time t.now_ < 0 then t.now_ else time in
  th.sleep_seq <- Heap.next_seq t.timer_heap;
  push_timer t time (wake_code th.tid);
  th

let sleep_until t time =
  let th = push_wake t time in
  match suspend t t.fn_block with
  | () -> th.sleep_seq <- -1
  | exception e ->
      th.sleep_seq <- -1;
      raise e

(* A sleep whose fiber ends at once: the thread blocks as [sleep_until]
   blocks it, here rather than in the handler, and its fiber unwinds to
   the handler, which lets it end. [exec] starts [k] on a fresh fiber
   at the wake, or ends the thread when an interrupt is pending there. *)
let rest_until t time k =
  let th = push_wake t time in
  th.body <- k;
  t.fn_block th;
  raise_notrace Rest

let touch t pages =
  let th = self t in
  let c = current_cpu t in
  let misses = Tlb.access c.tlb ~domain:th.domain ~pages in
  if misses > 0 then begin
    Metrics.Counter.add t.tlb_miss_count misses;
    delay_cat t Category.Tlb_miss (misses * t.cm.Cost_model.tlb_miss)
  end

let touch_pages t ~pages = touch t pages

(* A processor's TLB may hold a recorded refill of [fp] (see [Tlb]):
   each one builds its slots from the old pages before they change. *)
let patch_footprint t fp ~pos ~src ~len =
  let cpus = t.cpus_ in
  for i = 0 to Array.length cpus - 1 do
    Tlb.settle cpus.(i).tlb fp
  done;
  Tlb.blit ~src fp ~pos ~len

(* A delay of [d] to [cat], then a tail with no instruction of the thread
   between them: a [Fixed] charge of [tlen] to [tcat], or the TLB refill
   of [pages] ([Refill], charged to [Tlb_miss] as [touch] does). Exactly [delay] followed by the tail's own
   [delay] or [touch_pages], with one suspension where those may take
   two. When the first segment runs ahead the thread charges the tail
   itself. When it suspends, its processor keeps the tail and [boundary]
   charges it when the resumption pops: a thread with a queued
   resumption stays on its processor until then, so a processor holds
   at most one tail. *)
let delay_tail t cat d kind tcat tlen pages =
  if d < 0 then invalid_arg "Engine.delay: negative duration";
  let d = dilate t d in
  let until = Time.add t.now_ d in
  match t.current with
  | Some ({ pending_exn = None; _ } as th)
    when until <= t.limit && before_queued t until -> (
      charge_slice t th cat d;
      t.now_ <- until;
      match kind with
      | Fixed -> delay_cat t tcat tlen
      | Refill -> touch t pages
      | No_tail -> ())
  | Some th ->
      let c = t.cpus_.(th.cpu) in
      c.tail <- kind;
      c.tail_cat <- tcat;
      c.tail_len <- tlen;
      c.tail_pages <- pages;
      t.d_cat <- cat;
      t.d_len <- d;
      Effect.perform Delay
  | None ->
      t.d_cat <- cat;
      t.d_len <- d;
      Effect.perform Delay

let delay_then ?(category = Category.Other) t d ~then_ d' =
  if d' < 0 then invalid_arg "Engine.delay_then: negative duration";
  delay_tail t category d Fixed then_ d' Tlb.empty_footprint

(* Load [domain]'s context on [c] for [th] if it is not loaded, and
   retag the thread; whether a VM reload is owed. *)
let load_context t th c ~domain =
  let differs =
    match c.context with Some d -> d <> domain | None -> true
  in
  if differs then begin
    if tracing t then
      emit_at t ~tid:th.tid ~cpu:c.idx
        (Event.Switch { from_domain = th.domain; to_domain = domain });
    Tlb.invalidate c.tlb;
    c.context <- context_of t domain
  end;
  th.domain <- domain;
  differs

let switch_self_context t ~domain =
  let th = self t in
  if load_context t th (current_cpu t) ~domain then
    delay_cat t Category.Context_switch t.cm.Cost_model.vm_reload

let switch_then_touch t ~domain ~pages =
  let th = self t in
  if load_context t th (current_cpu t) ~domain then
    delay_tail t Category.Context_switch t.cm.Cost_model.vm_reload Refill
      Category.Tlb_miss Time.zero pages
  else touch t pages

let exchange_processors t ~target =
  let th = self t in
  assert (cpu_free target);
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu
      (Event.Exchange { from_cpu = th.cpu; to_cpu = target.idx });
  vacate t t.cpus_.(th.cpu);
  th.cpu <- target.idx;
  th.last_cpu <- target.idx;
  occupy t target th;
  delay ~category:Category.Exchange t t.cm.Cost_model.processor_exchange;
  try_dispatch t

(* --- cross-thread operations ------------------------------------------- *)

let topology t = t.topo

let total_steals t =
  Array.fold_left (fun acc c -> acc + c.steals + c.steals_tagged) 0 t.cpus_

let total_steals_near t =
  Array.fold_left (fun acc c -> acc + c.steals_near) 0 t.cpus_

let total_steals_far t =
  Array.fold_left (fun acc c -> acc + c.steals_far) 0 t.cpus_

let interrupt t th e =
  match th.state with
  | Done | Failed -> ()
  | _ -> (
      th.pending_exn <- Some e;
      match th.state with
      | Blocked | Spinning -> wake t th
      | Embryo | Ready | Running | Done | Failed -> ())

let kill t th = interrupt t th Thread_killed

(* --- timers ------------------------------------------------------------- *)

let at t time fn =
  let tmr = { t_fn = fn; t_cancelled = false } in
  (* Never schedule into the past: the heap would rewind [now_]. *)
  let time = if Time.compare time t.now_ < 0 then t.now_ else time in
  push_timer t time (slot_of t tmr);
  tmr

let cancel_timer _t tmr = tmr.t_cancelled <- true

(* --- engine-closure binding (must follow the operations they close over) *)

let bind_fns t =
  let on_delay = Some (fun k -> handle_delay t (self t) k) in
  let on_suspend =
    Some
      (fun k ->
        let th = self t in
        th.cont <- k;
        t.s_fn th)
  in
  t.handler <-
    {
      retc = (fun () -> finish t (self t) None);
      exnc =
        (fun e ->
          match e with
          | Rest -> ()
          | Thread_killed -> finish t (self t) None
          | e -> finish t (self t) (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Suspend -> on_suspend
          | _ -> None);
    };
  t.fn_block <-
    (fun th ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.last_cpu (Event.Block { thread = th.name });
      th.state <- Blocked;
      t.executing <- t.executing - 1;
      free_cpu_of t th;
      try_dispatch t);
  t.fn_yield <-
    (fun th ->
      th.state <- Ready;
      t.executing <- t.executing - 1;
      free_cpu_of t th;
      ready_push t th;
      try_dispatch t);
  let take_peer () =
    match t.s_peer with
    | Some to_ ->
        t.s_peer <- None;
        assert (to_.state = Blocked);
        to_
    | None -> assert false
  in
  t.fn_handoff <-
    (fun me ->
      let to_ = take_peer () in
      me.state <- Blocked;
      t.executing <- t.executing - 1;
      let c = t.cpus_.(me.cpu) in
      free_cpu_of t me;
      place t to_ c ~victim:(-1));
  t.fn_yield_to <-
    (fun me ->
      let to_ = take_peer () in
      me.state <- Ready;
      t.executing <- t.executing - 1;
      let c = t.cpus_.(me.cpu) in
      free_cpu_of t me;
      ready_push t me;
      place t to_ c ~victim:(-1))

let create ?processors ?domains cm =
  let t = create ?processors ?domains cm in
  bind_fns t;
  t
