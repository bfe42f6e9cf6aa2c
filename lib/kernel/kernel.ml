module Engine = Lrpc_sim.Engine
module Cost_model = Lrpc_sim.Cost_model
module Category = Lrpc_sim.Category
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

module Time = Lrpc_sim.Time

exception Domain_terminated of string

type hook_handle = int

(* Decaying per-domain context-miss average: [ms_ewma] is the value as of
   [ms_at]; reads decay it forward to the current instant. A miss adds 1
   and the whole thing halves every [ewma_half_life_us] of quiet, so the
   prod policy chases domains that are missing *now*, not domains that
   were busy long ago (raw counters never forget). *)
type miss_stat = {
  mutable ms_ewma : float;
  mutable ms_at : Time.t;
  mutable ms_cpu : int;
      (* CPU of the most recent miss (-1 before any): under a locality
         topology the prod policy discounts idle CPUs far from where the
         domain's calls actually arrive *)
}

type hook = {
  hk_id : hook_handle;
  hk_key : string option;
  hk_fn : Pdomain.t -> unit;
}

type t = {
  engine : Engine.t;
  kernel_domain : Pdomain.t;
  mutable domains_ : Pdomain.t list; (* reversed *)
  by_id : (Pdomain.id, Pdomain.t) Hashtbl.t; (* the call-path lookup *)
  mutable next_domain : int;
  mutable next_page : int;
  mutable next_region : int;
  mutable caching : bool;
  misses : (Pdomain.id, Metrics.counter) Hashtbl.t;
  hits : (Pdomain.id, Metrics.counter) Hashtbl.t;
  ewmas : (Pdomain.id, miss_stat) Hashtbl.t;
  ewma_gauges : (Pdomain.id, Metrics.gauge) Hashtbl.t;
  prodded : (int, Time.t * Pdomain.id) Hashtbl.t;
      (* cpu index -> (when, domain) of the last prod retag, pending its
         first exchange hit; feeds the prod-to-hit latency histogram *)
  c_prods : Metrics.counter;
  c_idle_retags : Metrics.counter;
  h_prod_hit : Metrics.histogram;
  mutable half_life_us : float;
      (* miss-EWMA half-life; per-kernel so it can be swept *)
  mutable margin : float; (* required EWMA gap before any retag *)
  mutable retag_factor : float; (* idle-consult hysteresis multiplier *)
  mutable hooks : hook list; (* reversed *)
  mutable next_hook : int;
  linkages : (int, int) Hashtbl.t; (* tid -> outstanding linkage records *)
  mutable linkages_total : int; (* sum of [linkages] *)
  g_linkages : Metrics.gauge;
}

(* Swept defaults for the idle-prod policy knobs (EXPERIMENTS.md
   "Prod-policy calibration"): the values live on [t] so they can be
   swept per-world. *)
let default_half_life_us = 1000.0
let default_prod_margin = 0.5
let default_idle_retag_factor = 2.0

let boot engine =
  let kernel_domain =
    {
      Pdomain.id = 0;
      name = "kernel";
      machine = 0;
      state = Pdomain.Active;
      threads = [];
      pages_allocated = 0;
      page_limit = max_int;
    }
  in
  let by_id = Hashtbl.create 64 in
  Hashtbl.replace by_id kernel_domain.Pdomain.id kernel_domain;
  {
    engine;
    kernel_domain;
    domains_ = [ kernel_domain ];
    by_id;
    next_domain = 1;
    next_page = 1;
    next_region = 1;
    caching = false;
    misses = Hashtbl.create 16;
    hits = Hashtbl.create 16;
    ewmas = Hashtbl.create 16;
    ewma_gauges = Hashtbl.create 16;
    prodded = Hashtbl.create 8;
    c_prods = Metrics.counter (Engine.metrics engine) "kernel.context_prods";
    c_idle_retags =
      Metrics.counter (Engine.metrics engine) "kernel.idle_retags";
    h_prod_hit = Metrics.histogram (Engine.metrics engine) "kernel.prod_to_hit_us";
    half_life_us = default_half_life_us;
    margin = default_prod_margin;
    retag_factor = default_idle_retag_factor;
    hooks = [];
    next_hook = 1;
    linkages = Hashtbl.create 64;
    linkages_total = 0;
    g_linkages = Metrics.gauge (Engine.metrics engine) "kernel.linkages_outstanding";
  }

let engine t = t.engine
let cost_model t = Engine.cost_model t.engine
let kernel_domain t = t.kernel_domain

let create_domain ?(machine = 0) ?(page_limit = 16_384) t ~name =
  let d =
    {
      Pdomain.id = t.next_domain;
      name;
      machine;
      state = Pdomain.Active;
      threads = [];
      pages_allocated = 0;
      page_limit;
    }
  in
  t.next_domain <- t.next_domain + 1;
  t.domains_ <- d :: t.domains_;
  Hashtbl.replace t.by_id d.Pdomain.id d;
  d

let domains t = List.rev t.domains_

let find_domain t id = Hashtbl.find_opt t.by_id id

let require_active d =
  if not (Pdomain.active d) then
    raise (Domain_terminated d.Pdomain.name)

(* --- memory ------------------------------------------------------------ *)

let alloc_pages t d n =
  require_active d;
  if d.Pdomain.pages_allocated + n > d.Pdomain.page_limit then
    raise Out_of_memory;
  d.Pdomain.pages_allocated <- d.Pdomain.pages_allocated + n;
  let base = t.next_page in
  t.next_page <- base + n;
  List.init n (fun i -> base + i)

let free_pages _t d pages =
  d.Pdomain.pages_allocated <- d.Pdomain.pages_allocated - List.length pages

let alloc_region t ~owner ~name ~bytes ~mapped =
  require_active owner;
  let page_size = (cost_model t).Cost_model.page_size in
  let npages = max 1 ((bytes + page_size - 1) / page_size) in
  let pages = alloc_pages t owner npages in
  let r =
    {
      Vm.rid = t.next_region;
      region_name = name;
      pages;
      data = Bytes.make (max bytes 1) '\000';
      mapped = [];
      region_valid = true;
    }
  in
  t.next_region <- t.next_region + 1;
  List.iter (fun d -> Vm.map_into r d) mapped;
  r

let release_region t ~owner r =
  if r.Vm.region_valid then begin
    r.Vm.region_valid <- false;
    r.Vm.mapped <- [];
    free_pages t owner r.Vm.pages
  end

(* --- threads ------------------------------------------------------------ *)

let spawn ?(name = "thread") ?home t d body =
  require_active d;
  let th = Engine.spawn ?home ~name t.engine ~domain:d.Pdomain.id body in
  d.Pdomain.threads <- th :: d.Pdomain.threads;
  th

let trap t =
  if Engine.tracing t.engine then Engine.emit t.engine Event.Trap;
  Engine.delay ~category:Category.Trap t.engine
    (cost_model t).Cost_model.trap

(* --- linkage-record accounting ------------------------------------------ *)

(* The kernel's view of each thread's outstanding calls. One linkage
   record is claimed per call in flight; with asynchronous handles a
   single thread may hold several at once (they no longer nest like
   procedure calls), so this is a count, not a stack depth. *)

let total_linkages t = t.linkages_total

let linkage_claimed t th =
  let tid = Engine.thread_id th in
  let n = match Hashtbl.find_opt t.linkages tid with Some n -> n | None -> 0 in
  Hashtbl.replace t.linkages tid (n + 1);
  t.linkages_total <- t.linkages_total + 1;
  Metrics.Gauge.set t.g_linkages (float_of_int t.linkages_total)

let linkage_released t th =
  let tid = Engine.thread_id th in
  (match Hashtbl.find_opt t.linkages tid with
  | Some 1 -> Hashtbl.remove t.linkages tid
  | Some n when n > 1 -> Hashtbl.replace t.linkages tid (n - 1)
  | Some _ | None -> invalid_arg "Kernel.linkage_released: none outstanding");
  t.linkages_total <- t.linkages_total - 1;
  Metrics.Gauge.set t.g_linkages (float_of_int t.linkages_total)

let outstanding_linkages t th =
  match Hashtbl.find_opt t.linkages (Engine.thread_id th) with
  | Some n -> n
  | None -> 0

(* --- idle-processor management ------------------------------------------ *)

let domain_caching_enabled t = t.caching
let set_domain_caching t b = t.caching <- b

let find_idle_processor_in_context t d =
  let cpus = Engine.cpus t.engine in
  let found = ref None in
  Array.iter
    (fun c ->
      if
        !found = None
        && c.Engine.running = None
        && c.Engine.context = Some d.Pdomain.id
      then found := Some c)
    cpus;
  !found

(* Per-domain counters live in the engine's metrics registry; the local
   hashtables only cache the instrument handles for the hot path. *)
let domain_counter t cache name d =
  match Hashtbl.find_opt cache d.Pdomain.id with
  | Some c -> c
  | None ->
      let c =
        Metrics.counter (Engine.metrics t.engine)
          ~labels:[ ("domain", string_of_int d.Pdomain.id) ]
          name
      in
      Hashtbl.replace cache d.Pdomain.id c;
      c

let miss_counter t d = domain_counter t t.misses "kernel.context_misses" d
let hit_counter t d = domain_counter t t.hits "kernel.context_hits" d

let context_misses t d = Metrics.Counter.value (miss_counter t d)
let context_hits t d = Metrics.Counter.value (hit_counter t d)

let note_context_hit ?cpu t d =
  Metrics.Counter.incr (hit_counter t d);
  (* A hit on a processor that was prod-retagged closes the loop: record
     how long the prefetched context sat idle before paying off. *)
  match cpu with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt t.prodded c.Engine.idx with
      | Some (t0, id) ->
          Hashtbl.remove t.prodded c.Engine.idx;
          if id = d.Pdomain.id then
            Metrics.Histo.observe_us t.h_prod_hit
              (Time.sub (Engine.now t.engine) t0)
      | None -> ())

(* --- the prod policy ----------------------------------------------------

   When a call misses (no idle processor holding the target context), the
   kernel claims one idle processor and re-tags it to the missed domain,
   so the *next* call finds its context prefetched. Stands in for the
   paper's idle threads noticing per-domain counters and spinning in busy
   domains (§3.4). Candidate ranking uses the decaying miss EWMA rather
   than raw counters: a domain that was hot an hour ago no longer shields
   its stale context from eviction.

   The engine additionally consults the policy whenever a processor goes
   fully idle ([on_cpu_idle], installed at boot): the idle processor may
   preload the hottest domain's context before any miss occurs — but only
   past a clear hysteresis margin, so the steady-state exchange ping-pong
   (both contexts equally warm, every call a hit) is never perturbed. *)

let prod_tuning t = (t.half_life_us, t.margin, t.retag_factor)

let set_prod_tuning ?half_life_us ?margin ?idle_retag_factor t =
  (match half_life_us with
  | Some h ->
      if not (h > 0.0) then
        invalid_arg "Kernel.set_prod_tuning: half_life_us must be positive";
      t.half_life_us <- h
  | None -> ());
  (match margin with
  | Some m ->
      if m < 0.0 then
        invalid_arg "Kernel.set_prod_tuning: margin must be >= 0";
      t.margin <- m
  | None -> ());
  match idle_retag_factor with
  | Some f ->
      if not (f >= 1.0) then
        invalid_arg "Kernel.set_prod_tuning: idle_retag_factor must be >= 1";
      t.retag_factor <- f
  | None -> ()

let decayed t ~now st =
  if st.ms_ewma = 0.0 then 0.0
  else
    let dt = Time.to_us (Time.sub now st.ms_at) in
    if dt <= 0.0 then st.ms_ewma
    else st.ms_ewma *. (0.5 ** (dt /. t.half_life_us))

let miss_stat t d =
  match Hashtbl.find_opt t.ewmas d.Pdomain.id with
  | Some st -> st
  | None ->
      let st = { ms_ewma = 0.0; ms_at = Time.zero; ms_cpu = -1 } in
      Hashtbl.replace t.ewmas d.Pdomain.id st;
      st

let ewma_gauge t d =
  match Hashtbl.find_opt t.ewma_gauges d.Pdomain.id with
  | Some g -> g
  | None ->
      let g =
        Metrics.gauge (Engine.metrics t.engine)
          ~labels:[ ("domain", string_of_int d.Pdomain.id) ]
          "kernel.miss_ewma"
      in
      Hashtbl.replace t.ewma_gauges d.Pdomain.id g;
      g

let ewma_of_id t ~now id =
  match Hashtbl.find_opt t.ewmas id with
  | Some st -> decayed t ~now st
  | None -> 0.0

let context_miss_ewma t d = ewma_of_id t ~now:(Engine.now t.engine) d.Pdomain.id

let prods t = Metrics.Counter.value t.c_prods
let idle_retags t = Metrics.Counter.value t.c_idle_retags

(* Re-tag the idle processor [c] to [d]: the idle processor loads the
   domain's context off the critical path; nobody is charged. *)
let prod t ~now c d =
  Lrpc_sim.Tlb.invalidate c.Engine.tlb;
  c.Engine.context <- Some d.Pdomain.id;
  Metrics.Counter.incr t.c_prods;
  Hashtbl.replace t.prodded c.Engine.idx (now, d.Pdomain.id)

let note_context_miss t d =
  Metrics.Counter.incr (miss_counter t d);
  let now = Engine.now t.engine in
  let st = miss_stat t d in
  st.ms_ewma <- decayed t ~now st +. 1.0;
  st.ms_at <- now;
  (match Engine.self_opt t.engine with
  | Some th -> (
      match Engine.thread_cpu t.engine th with
      | Some c -> st.ms_cpu <- c.Engine.idx
      | None -> ())
  | None -> ());
  Metrics.Gauge.set (ewma_gauge t d) st.ms_ewma;
  if t.caching then begin
    let mine = st.ms_ewma in
    let cpus = Engine.cpus t.engine in
    match Engine.topology t.engine with
    | None ->
        let candidate = ref None and candidate_ewma = ref infinity in
        Array.iter
          (fun c ->
            if c.Engine.running = None then begin
              let ctx =
                match c.Engine.context with
                | Some id when id = d.Pdomain.id -> infinity (* already ours *)
                | Some id -> ewma_of_id t ~now id
                | None -> neg_infinity (* untagged: always the best victim *)
              in
              if ctx +. t.margin < mine && ctx < !candidate_ewma then begin
                candidate := Some c;
                candidate_ewma := ctx
              end
            end)
          cpus;
        (match !candidate with Some c -> prod t ~now c d | None -> ())
    | Some topo ->
        (* Distance-weighted: a prefetched context far from where the
           domain's calls arrive is worth less (the caller pays the
           cross-cluster exchange to reach it), so the miss EWMA is
           divided by the prod multiplier before the margin test, and
           near candidates win ties. *)
        let candidate = ref None and candidate_ewma = ref infinity in
        let candidate_mult = ref infinity in
        Array.iter
          (fun c ->
            if c.Engine.running = None then begin
              let ctx =
                match c.Engine.context with
                | Some id when id = d.Pdomain.id -> infinity
                | Some id -> ewma_of_id t ~now id
                | None -> neg_infinity
              in
              let mult =
                if st.ms_cpu < 0 then 1.0
                else Cost_model.prod_mult topo st.ms_cpu c.Engine.idx
              in
              if
                ctx +. t.margin < mine /. mult
                && (mult < !candidate_mult
                   || (mult = !candidate_mult && ctx < !candidate_ewma))
              then begin
                candidate := Some c;
                candidate_ewma := ctx;
                candidate_mult := mult
              end
            end)
          cpus;
        (match !candidate with Some c -> prod t ~now c d | None -> ())
  end

(* Engine idle consult (installed on the engine at [boot]): a processor
   with nothing to run — own queue empty, nothing stealable — preloads
   the context of the domain whose miss EWMA is hottest, provided it
   clearly out-misses whatever the processor already holds. *)
let on_cpu_idle t (c : Engine.cpu) =
  if t.caching && c.Engine.running = None then begin
    let now = Engine.now t.engine in
    let topo = Engine.topology t.engine in
    (* Under a topology a domain's heat is discounted by the distance
       between this idle CPU and the CPU its misses arrive on: preloading
       a context two clusters away from its callers helps nobody. *)
    let weighted st e =
      match topo with
      | None -> e
      | Some topo ->
          if st.ms_cpu < 0 then e
          else e /. Cost_model.prod_mult topo c.Engine.idx st.ms_cpu
    in
    let best_id = ref (-1) and best_e = ref 0.0 in
    Hashtbl.iter
      (fun id st ->
        let e = weighted st (decayed t ~now st) in
        if e > !best_e || (e = !best_e && !best_id >= 0 && id < !best_id) then begin
          best_id := id;
          best_e := e
        end)
      t.ewmas;
    if !best_id >= 0 then begin
      let already =
        match c.Engine.context with Some id -> id = !best_id | None -> false
      in
      if not already then begin
        let cur =
          match c.Engine.context with
          | Some id -> ewma_of_id t ~now id
          | None -> 0.0
        in
        if !best_e > (t.retag_factor *. cur) +. t.margin then
          match find_domain t !best_id with
          | Some d when Pdomain.active d ->
              Metrics.Counter.incr t.c_idle_retags;
              prod t ~now c d
          | Some _ | None -> ()
      end
    end
  end

(* Rebind [boot] to install the engine's idle consult (the hook closes
   over the policy functions above, so it cannot be set where [boot] is
   first defined). *)
let boot engine =
  let t = boot engine in
  Engine.set_idle_hook engine (fun c -> on_cpu_idle t c);
  t

(* --- termination ---------------------------------------------------------- *)

let on_terminate ?key t fn =
  (* A keyed registration replaces any previous hook with the same key,
     so re-initialising a subsystem (e.g. a second [Api.init] on one
     engine) does not accumulate stale collectors. *)
  (match key with
  | Some k -> t.hooks <- List.filter (fun h -> h.hk_key <> Some k) t.hooks
  | None -> ());
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.hooks <- { hk_id = id; hk_key = key; hk_fn = fn } :: t.hooks;
  id

let remove_terminate_hook t id =
  t.hooks <- List.filter (fun h -> h.hk_id <> id) t.hooks

let terminate_domain t d =
  match d.Pdomain.state with
  | Pdomain.Dead | Pdomain.Terminating -> ()
  | Pdomain.Active ->
      if Engine.tracing t.engine then
        Engine.emit t.engine (Event.Terminated { domain = d.Pdomain.name });
      d.Pdomain.state <- Pdomain.Terminating;
      List.iter (fun h -> h.hk_fn d) (List.rev t.hooks);
      (* Stop homed threads that are still inside the domain. Threads that
         a hook moved elsewhere (restarted callers) are left alone. *)
      List.iter
        (fun th ->
          if Engine.alive th && Engine.thread_domain th = d.Pdomain.id then
            Engine.kill t.engine th)
        d.Pdomain.threads;
      d.Pdomain.state <- Pdomain.Dead
