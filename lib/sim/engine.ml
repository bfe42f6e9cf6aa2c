module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

exception Thread_killed
exception Not_in_thread

type state = Embryo | Ready | Running | Blocked | Spinning | Done | Failed

(* The continuation slot folds the old [cont option] into one variant so
   parking a continuation costs a single [K] block, not [Some (K _)]. *)
type thread = {
  tid : int;
  name : string;
  mutable domain : int;
  mutable state : state;
  mutable cpu : int; (* index, -1 when not on a processor *)
  mutable last_cpu : int;
  home : int; (* preferred processor, -1 for any *)
  mutable cont : cont;
  mutable body : (unit -> unit) option;
  mutable pending_exn : exn option;
  mutable spin_start : Time.t;
  mutable ever_placed : bool;
  mutable rq_seq : int;
      (* enqueue stamp of this thread's live run-queue entry, -1 when it
         has none; a queue cell whose stamp disagrees is a ghost left by
         a steal and is skipped *)
  mutable sleep_seq : int;
      (* timer-heap sequence of the wake entry of the [sleep_until] this
         thread is in, -1 outside one; an entry whose sequence disagrees
         belongs to a sleep already left and is ignored *)
  some : thread option;
      (* preallocated [Some self]: [current], [running] and the run-queue
         scans never allocate one *)
  wake_ev : timed; (* preallocated [Wake self]: a sleep never allocates *)
}

and cont = No_cont | K : (unit, unit) Effect.Deep.continuation -> cont

and timer = { t_fn : unit -> unit; mutable t_cancelled : bool }

(* A timer-heap entry. The run heap holds threads directly. *)
and timed = Fire of timer | Wake of thread

type cpu = {
  idx : int;
  mutable running : thread option;
  mutable context : int option;
  tlb : Tlb.t;
  mutable busy : Time.t;
  rq : (int * thread) Queue.t;
  mutable steals : int;
  mutable steals_tagged : int;
  mutable steals_near : int;
  mutable steals_far : int;
  mutable lock_spin : Time.t;
}

type t = {
  cm : Cost_model.t;
  cpus_ : cpu array;
  run_heap : thread Heap.t;
      (* resumptions of threads on a processor: one per processor at most *)
  timer_heap : timed Heap.t;
      (* timers and sleeps; shares [run_heap]'s sequence counter *)
  mutable run_pushes : int;
  mutable timer_pushes : int;
  mutable ready_seq : int; (* global enqueue stamp: cross-queue FIFO age *)
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
  mutable threads : thread list;
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
  mutable on_idle : cpu -> unit;
      (* consulted when a processor finds no runnable thread anywhere
         (own queue and steal scan both empty); the kernel hangs its
         idle-processor prod policy here. Runs at engine level: it may
         retag contexts but must not perform effects. *)
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
}

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t

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
  assert (processors > 0);
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
          rq = Queue.create ();
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
      run_pushes = 0;
      timer_pushes = 0;
      ready_seq = 0;
      executing = 0;
      rr_next = 0;
      now_ = Time.zero;
      limit = max_int;
      next_tid = 0;
      current = None;
      failures_ = [];
      threads = [];
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
      on_idle = ignore;
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

let thread_cpu t th = if th.cpu >= 0 then Some t.cpus_.(th.cpu) else None

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
  List.filter
    (fun th ->
      match th.state with
      | Blocked | Spinning | Ready | Embryo -> true
      | Running | Done | Failed -> false)
    t.threads

(* --- the two heaps ------------------------------------------------------ *)

(* A thread with a queued resumption is [Running] on a processor and
   stays there until the resumption pops, and a processor runs one
   thread, so the run heap never holds more entries than processors. *)
let push_run t time th =
  assert (Heap.length t.run_heap < Array.length t.cpus_);
  t.run_pushes <- t.run_pushes + 1;
  Heap.push t.run_heap ~time th

let push_timer t time ev =
  t.timer_pushes <- t.timer_pushes + 1;
  Heap.push t.timer_heap ~time ev

(* Whether [time] comes before every queued event of both heaps. An
   empty heap reads as [max_int], which no delay reaches. *)
let[@inline] before_queued t time =
  time < Heap.earliest t.run_heap && time < Heap.earliest t.timer_heap

(* --- dispatch machinery ------------------------------------------------ *)

let[@inline] cpu_free c =
  match c.running with None -> true | Some _ -> false

(* Assign [th] to the free processor [c], charging a context switch when
   the loaded VM context differs from the thread's domain, and schedule
   its resumption. Under a topology the reload is scaled by the longest
   pull the placement implies: the thread's working set from the CPU it
   last ran on (steal multiplier when thief-initiated, dispatch
   multiplier otherwise), and — for steals — its queue entry and
   home-cluster state from the victim queue's CPU. Without a topology
   ([topo = None]) the arithmetic is byte-identical to the flat engine
   (no float traffic). *)
let place ?(stolen = false) ?(victim = -1) t th c =
  assert (cpu_free c);
  assert (th.cpu = -1);
  let prev = th.last_cpu in
  c.running <- th.some;
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
      c.context <- Some th.domain;
      (* The very first placement models a process that already existed
         when the measurement window opened (as in the paper's set-up);
         it loads the context without charging anyone. *)
      if th.ever_placed then begin
        let reload =
          match t.topo with
          | None -> t.cm.Cost_model.vm_reload
          | Some topo ->
              (* A stolen thread's reload covers the longer of two
                 pulls: its working set from the CPU it last ran on,
                 and its queue entry / home-cluster state from the
                 victim queue's CPU. *)
              let m_mig =
                if prev < 0 then 1.0
                else if stolen then Cost_model.steal_mult topo prev c.idx
                else Cost_model.dispatch_mult topo prev c.idx
              in
              let m_queue =
                if stolen && victim >= 0 then
                  Cost_model.steal_mult topo victim c.idx
                else 1.0
              in
              let m = Float.max m_mig m_queue in
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
      | Some topo when stolen && th.ever_placed ->
          let m_mig =
            if prev < 0 then 1.0 else Cost_model.steal_mult topo prev c.idx
          in
          let m_queue =
            if victim >= 0 then Cost_model.steal_mult topo victim c.idx
            else 1.0
          in
          let m = Float.max m_mig m_queue in
          if m > 1.0 then begin
            let premium = Time.scale t.cm.Cost_model.vm_reload (m -. 1.0) in
            charge t Category.Context_switch premium;
            c.busy <- Time.add c.busy premium;
            premium
          end
          else Time.zero
      | _ -> Time.zero
  in
  th.ever_placed <- true;
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:c.idx
      (Event.Dispatch
         { thread = th.name; domain = th.domain; switched = cost <> Time.zero });
  push_run t (Time.add t.now_ cost) th

let free_cpu_of t th =
  if th.cpu >= 0 then begin
    let c = t.cpus_.(th.cpu) in
    c.running <- None;
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
   anywhere. Stolen threads are invalidated in place via the stamp; the
   ghost queue cell is skipped when reached. *)

let[@inline] entry_runnable th =
  match th.state with Embryo | Ready -> true | _ -> false

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
  Queue.push (seq, th) t.cpus_.(i).rq

(* Oldest live entry of a processor's own queue, discarding ghosts and
   stale entries as they surface at the head. *)
let rec pop_own q =
  match Queue.take_opt q with
  | None -> None
  | Some (seq, th) ->
      if th.rq_seq = seq && entry_runnable th then begin
        th.rq_seq <- -1;
        th.some
      end
      else pop_own q

(* Steal for the free processor [c]: scan other queues for the oldest
   live entry, tracking separately the oldest whose domain matches [c]'s
   loaded context. Preference order: tagged-domain match first (placement
   then charges no context switch), else oldest overall. The chosen
   thread is invalidated in place (its queue keeps a ghost cell).

   Without a topology the scan covers every queue at once (the flat
   engine's behaviour, byte-identical). With one, and [near_steal] set,
   the scan walks the CPU's distance-ordered victim ring: the rest of
   its own cluster first, the remote clusters only when the near segment
   held nothing runnable. With [near_steal = false] (the distance-blind
   ablation) the scan stays flat but the distance costs and near/far
   counters still apply. *)

(* Fold queue [i] into the running best/best-tagged candidates. *)
let steal_scan t c tag i best best_seq best_tag best_tag_seq victim
    victim_tag =
  (* Queues whose owner is itself free are off-limits: that processor
     drains its own queue in the same dispatch pass, and stealing from
     it would defeat the home-processor preference. *)
  if i <> c.idx && not (cpu_free t.cpus_.(i)) then
    Queue.iter
      (fun (seq, th) ->
        if th.rq_seq = seq && entry_runnable th then begin
          if seq < !best_seq then begin
            best_seq := seq;
            best := th.some;
            victim := i
          end;
          if th.domain = tag && seq < !best_tag_seq then begin
            best_tag_seq := seq;
            best_tag := th.some;
            victim_tag := i
          end
        end)
      t.cpus_.(i).rq

let take_steal t c th ~tagged ~victim =
  th.rq_seq <- -1;
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
  | Some topo -> (
      match Cost_model.distance topo c.idx victim with
      | Cost_model.Cross_cluster ->
          c.steals_far <- c.steals_far + 1;
          Metrics.Counter.incr t.c_steals_far
      | Cost_model.Local | Cost_model.Same_cluster ->
          c.steals_near <- c.steals_near + 1;
          Metrics.Counter.incr t.c_steals_near));
  Some (th, victim)

let steal_flat t c =
  let n = Array.length t.cpus_ in
  let best = ref None and best_seq = ref max_int in
  let best_tag = ref None and best_tag_seq = ref max_int in
  let victim = ref (-1) and victim_tag = ref (-1) in
  let tag = match c.context with Some d -> d | None -> -1 in
  for i = 0 to n - 1 do
    steal_scan t c tag i best best_seq best_tag best_tag_seq victim victim_tag
  done;
  match !best_tag with
  | Some th -> take_steal t c th ~tagged:true ~victim:!victim_tag
  | None -> (
      match !best with
      | Some th -> take_steal t c th ~tagged:false ~victim:!victim
      | None -> None)

let steal_ring t c =
  let ring = t.victims.(c.idx) in
  let near = t.victims_near.(c.idx) in
  let tag = match c.context with Some d -> d | None -> -1 in
  let scan_seg lo hi =
    let best = ref None and best_seq = ref max_int in
    let best_tag = ref None and best_tag_seq = ref max_int in
    let victim = ref (-1) and victim_tag = ref (-1) in
    for k = lo to hi - 1 do
      steal_scan t c tag
        ring.(k)
        best best_seq best_tag best_tag_seq victim victim_tag
    done;
    match !best_tag with
    | Some th -> take_steal t c th ~tagged:true ~victim:!victim_tag
    | None -> (
        match !best with
        | Some th -> take_steal t c th ~tagged:false ~victim:!victim
        | None -> None)
  in
  match scan_seg 0 near with
  | Some _ as hit -> hit
  | None -> scan_seg near (Array.length ring)

let steal t c =
  match t.topo with
  | Some topo when topo.Cost_model.near_steal -> steal_ring t c
  | _ -> steal_flat t c

let dispatch_cpu t c =
  match pop_own c.rq with
  | Some th -> place t th c
  | None -> (
      match steal t c with
      | Some (th, victim) -> place ~stolen:true ~victim t th c
      | None -> t.on_idle c)

(* Offer every free processor a dispatch. *)
let try_dispatch t =
  let cpus = t.cpus_ in
  for i = 0 to Array.length cpus - 1 do
    let c = cpus.(i) in
    if cpu_free c then dispatch_cpu t c
  done

let spawn ?(name = "thread") ?(home = -1) t ~domain body =
  let rec th =
    {
      tid = t.next_tid;
      name;
      domain;
      state = Embryo;
      cpu = -1;
      last_cpu = -1;
      home;
      cont = No_cont;
      body = Some body;
      pending_exn = None;
      spin_start = Time.zero;
      ever_placed = false;
      rq_seq = -1;
      sleep_seq = -1;
      some = Some th;
      wake_ev = Wake th;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.threads <- th :: t.threads;
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
  th.cont <- No_cont;
  th.body <- None;
  free_cpu_of t th;
  try_dispatch t

let take_cont th =
  match th.cont with
  | K k ->
      th.cont <- No_cont;
      k
  | No_cont -> assert false

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

(* The effects carry no payload and the handler's results are built
   once per thread, so a suspension allocates only the runtime's
   continuation and its [K] cell. *)
let start t th body =
  let on_delay = Some (fun k -> handle_delay t th (K k)) in
  let on_suspend =
    Some
      (fun k ->
        th.cont <- K k;
        t.s_fn th)
  in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> finish t th None);
      exnc =
        (fun e ->
          match e with
          | Thread_killed -> finish t th None
          | e -> finish t th (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Delay -> on_delay
          | Suspend -> on_suspend
          | _ -> None);
    }

let exec t th =
  t.current <- th.some;
  (match th.pending_exn with
  | Some e when th.body <> None ->
      (* Killed before first instruction. *)
      th.pending_exn <- None;
      th.body <- None;
      finish t th (match e with Thread_killed -> None | e -> Some e)
  | Some e ->
      th.pending_exn <- None;
      Effect.Deep.discontinue (take_cont th) e
  | None -> (
      match th.body with
      | Some body ->
          th.body <- None;
          start t th body
      | None -> Effect.Deep.continue (take_cont th) ()));
  t.current <- None

(* Defined before the event loop, which runs it for a sleep's wake entry. *)
let wake t th =
  match th.state with
  | Blocked ->
      if tracing t then
        emit_at t ~tid:th.tid ~cpu:th.cpu (Event.Wake { thread = th.name });
      let i = pick_cpu_idx t th in
      if i >= 0 then place t th t.cpus_.(i)
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
        let th = Heap.take runs in
        match th.state with
        | Running -> exec t th
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
        match Heap.take timers with
        | Fire tmr ->
            if not tmr.t_cancelled then begin
              tmr.t_cancelled <- true;
              tmr.t_fn ()
            end
        | Wake sleeper -> if sleeper.sleep_seq = seq then wake t sleeper
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
let delay ?(category = Category.Other) t d =
  let d = dilate t d in
  (* [Time.t] is [int]. Plain addition keeps this test free of a call
     into another module: dune's dev profile compiles with -opaque, so
     [Time.add] would not be inlined. *)
  let until = t.now_ + d in
  match t.current with
  | Some ({ pending_exn = None; _ } as th)
    when until <= t.limit && before_queued t until ->
      charge_slice t th category d;
      t.now_ <- until
  | _ ->
      t.d_cat <- category;
      t.d_len <- d;
      Effect.perform Delay

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

(* The wake entry is pushed before the suspension, where [at] would
   push its timer, so it takes the sequence [at] then [block] would. *)
let sleep_until t time =
  let th = self t in
  (* Never schedule into the past: the heap would rewind [now_]. *)
  let time = if Time.compare time t.now_ < 0 then t.now_ else time in
  th.sleep_seq <- Heap.next_seq t.timer_heap;
  push_timer t time th.wake_ev;
  match suspend t t.fn_block with
  | () -> th.sleep_seq <- -1
  | exception e ->
      th.sleep_seq <- -1;
      raise e

let touch_pages t ~pages =
  let th = self t in
  let c = current_cpu t in
  let misses = Tlb.access c.tlb ~domain:th.domain ~pages in
  if misses > 0 then begin
    Metrics.Counter.add t.tlb_miss_count misses;
    delay ~category:Category.Tlb_miss t
      (Time.scale t.cm.Cost_model.tlb_miss (float_of_int misses))
  end

let switch_self_context t ~domain =
  let th = self t in
  let c = current_cpu t in
  let differs =
    match c.context with Some d -> d <> domain | None -> true
  in
  if differs then begin
    if tracing t then
      emit_at t ~tid:th.tid ~cpu:c.idx
        (Event.Switch { from_domain = th.domain; to_domain = domain });
    Tlb.invalidate c.tlb;
    c.context <- Some domain;
    th.domain <- domain;
    delay ~category:Category.Context_switch t t.cm.Cost_model.vm_reload
  end
  else th.domain <- domain

let exchange_processors t ~target =
  let th = self t in
  assert (cpu_free target);
  if tracing t then
    emit_at t ~tid:th.tid ~cpu:th.cpu
      (Event.Exchange { from_cpu = th.cpu; to_cpu = target.idx });
  let old = t.cpus_.(th.cpu) in
  old.running <- None;
  th.cpu <- target.idx;
  th.last_cpu <- target.idx;
  target.running <- th.some;
  delay ~category:Category.Exchange t t.cm.Cost_model.processor_exchange;
  try_dispatch t

(* --- cross-thread operations ------------------------------------------- *)

let set_idle_hook t f = t.on_idle <- f
let topology t = t.topo

let victim_ring t cpu =
  if t.topo = None then [||]
  else Array.copy t.victims.(cpu)

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
  push_timer t time (Fire tmr);
  tmr

let cancel_timer _t tmr = tmr.t_cancelled <- true

(* --- engine-closure binding (must follow the operations they close over) *)

let bind_fns t =
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
      place t to_ c);
  t.fn_yield_to <-
    (fun me ->
      let to_ = take_peer () in
      me.state <- Ready;
      t.executing <- t.executing - 1;
      let c = t.cpus_.(me.cpu) in
      free_cpu_of t me;
      ready_push t me;
      place t to_ c)

let create ?processors ?domains cm =
  let t = create ?processors ?domains cm in
  bind_fns t;
  t
