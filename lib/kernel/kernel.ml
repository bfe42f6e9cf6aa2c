module Engine = Lrpc_sim.Engine
module Cost_model = Lrpc_sim.Cost_model
module Category = Lrpc_sim.Category
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

module Time = Lrpc_sim.Time
module Id_table = Lrpc_util.Id_table

exception Domain_terminated of string

type hook_handle = int

type hook = {
  hk_id : hook_handle;
  hk_key : string option;
  hk_fn : Pdomain.t -> unit;
}

type t = {
  engine : Engine.t;
  kernel_domain : Pdomain.t;
  mutable domains_ : Pdomain.t list; (* reversed *)
  by_id : Pdomain.t option Id_table.t; (* the call-path lookup *)
  mutable next_domain : int;
  mutable next_page : int;
  mutable next_region : int;
  mutable caching : bool;
  misses : (Pdomain.id, Metrics.counter) Hashtbl.t;
  hits : (Pdomain.id, Metrics.counter) Hashtbl.t;
  prodded : (int, Time.t * Pdomain.id) Hashtbl.t;
      (* cpu index -> (when, domain) of the last prod retag, pending its
         first exchange hit; feeds the prod-to-hit latency histogram *)
  c_prods : Metrics.counter;
  h_prod_hit : Metrics.histogram;
  mutable hooks : hook list; (* reversed *)
  mutable next_hook : int;
  linkages : int Id_table.t; (* tid -> outstanding linkage records *)
  mutable linkages_total : int; (* sum of [linkages] *)
}

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
  let by_id = Id_table.create None in
  Id_table.set by_id kernel_domain.Pdomain.id (Some kernel_domain);
  (* Never bumped: lrpcbench's digests hash Metrics.to_json, zeros too. *)
  ignore (Metrics.counter (Engine.metrics engine) "kernel.idle_retags");
  let t =
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
      prodded = Hashtbl.create 8;
      c_prods = Metrics.counter (Engine.metrics engine) "kernel.context_prods";
      h_prod_hit = Metrics.histogram (Engine.metrics engine) "kernel.prod_to_hit_us";
      hooks = [];
      next_hook = 1;
      linkages = Id_table.create 0;
      linkages_total = 0;
    }
  in
  (* The ["kernel.linkages_outstanding"] gauge reads [linkages_total]
     when a snapshot is taken, so claims and releases write no metric. *)
  Metrics.gauge_of_int (Engine.metrics engine) "kernel.linkages_outstanding"
    (fun () -> t.linkages_total);
  t

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
  Id_table.set t.by_id d.Pdomain.id (Some d);
  d

let domains t = List.rev t.domains_

let find_domain t id = Id_table.get t.by_id id

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
  Array.init n (fun i -> base + i)

let free_pages _t d pages =
  d.Pdomain.pages_allocated <- d.Pdomain.pages_allocated - Array.length pages

(* The pages a region of [bytes] takes: whole pages, at least one.
   Rounded up without adding to [bytes], which may be [max_int]. *)
let region_pages t bytes =
  let page_size = (cost_model t).Cost_model.page_size in
  max 1 ((bytes / page_size) + if bytes mod page_size > 0 then 1 else 0)

let region_fits t ~owner ~bytes =
  require_active owner;
  owner.Pdomain.pages_allocated + region_pages t bytes <= owner.Pdomain.page_limit

let alloc_region t ~owner ~name ~bytes ~mapped =
  require_active owner;
  let pages = alloc_pages t owner (region_pages t bytes) in
  let r =
    {
      Vm.rid = t.next_region;
      region_name = name;
      pages;
      size = bytes;
      data = Bytes.empty;
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

let trap_then_transfer t work =
  if Engine.tracing t.engine then Engine.emit t.engine Event.Trap;
  Engine.delay_then ~category:Category.Trap t.engine
    (cost_model t).Cost_model.trap ~then_:Category.Kernel_transfer work

(* --- linkage-record accounting ------------------------------------------ *)

(* The kernel's view of each thread's outstanding calls. One linkage
   record is claimed per call in flight; with asynchronous handles a
   single thread may hold several at once (they no longer nest like
   procedure calls), so this is a count, not a stack depth. *)

let total_linkages t = t.linkages_total

let linkage_claimed t th =
  let tid = Engine.thread_id th in
  Id_table.set t.linkages tid (Id_table.get t.linkages tid + 1);
  t.linkages_total <- t.linkages_total + 1

let linkage_released t th =
  let tid = Engine.thread_id th in
  let n = Id_table.get t.linkages tid in
  if n < 1 then invalid_arg "Kernel.linkage_released: none outstanding";
  Id_table.set t.linkages tid (n - 1);
  t.linkages_total <- t.linkages_total - 1

let outstanding_linkages t th = Id_table.get t.linkages (Engine.thread_id th)

(* --- idle-processor management ------------------------------------------ *)

let domain_caching_enabled t = t.caching
let set_domain_caching t b = t.caching <- b

(* Whether [c] is idle with [id]'s context loaded. Top-level loops, not
   iterators over closures: both run on every transfer with domain
   caching on, and allocate nothing. *)
let idle_in c id =
  match (c.Engine.running, c.Engine.context) with
  | None, Some d -> d = id
  | _ -> false

let rec first_idle_in cpus id i =
  if i >= Array.length cpus then None
  else if idle_in cpus.(i) id then Some cpus.(i)
  else first_idle_in cpus id (i + 1)

let find_idle_processor_in_context t d =
  first_idle_in (Engine.cpus t.engine) d.Pdomain.id 0

(* Per-domain counters live in the engine's metrics registry; the local
   hashtables only cache the instrument handles for the hot path. *)
let domain_counter t cache name d =
  match Hashtbl.find cache d.Pdomain.id with
  | c -> c
  | exception Not_found ->
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
      match Hashtbl.find t.prodded c.Engine.idx with
      | t0, id ->
          Hashtbl.remove t.prodded c.Engine.idx;
          if id = d.Pdomain.id then
            Metrics.Histo.observe_us t.h_prod_hit
              (Time.sub (Engine.now t.engine) t0)
      | exception Not_found -> ())

(* --- the prod policy ----------------------------------------------------

   When a call misses (no idle processor holding the target context), the
   kernel claims one idle processor and re-tags it to the missed domain,
   so the *next* call finds its context prefetched. Stands in for the
   paper's idle threads noticing per-domain counters and spinning in busy
   domains (§3.4), and ranks candidates by those same counters: an
   untagged idle processor first, else the one whose domain has missed
   least, and only when that is strictly less than the missing domain. *)

let prods t = Metrics.Counter.value t.c_prods

let misses_of_id t id =
  match Hashtbl.find t.misses id with
  | c -> Metrics.Counter.value c
  | exception Not_found -> 0

(* Re-tag the idle processor [c] to [d]: the idle processor loads the
   domain's context off the critical path; nobody is charged. *)
let prod t c d =
  Lrpc_sim.Tlb.invalidate c.Engine.tlb;
  c.Engine.context <- Some d.Pdomain.id;
  Metrics.Counter.incr t.c_prods;
  Hashtbl.replace t.prodded c.Engine.idx (Engine.now t.engine, d.Pdomain.id)

let note_context_miss t d =
  let counter = miss_counter t d in
  Metrics.Counter.incr counter;
  if t.caching then begin
    let mine = Metrics.Counter.value counter in
    let cpus = Engine.cpus t.engine in
    let victim = ref (-1) and best = ref max_int in
    for i = 0 to Array.length cpus - 1 do
      let c = cpus.(i) in
      match c.Engine.running with
      | Some _ -> ()
      | None ->
          let held =
            match c.Engine.context with
            | None -> -1 (* untagged: always the best victim *)
            | Some id when id = d.Pdomain.id -> max_int (* already ours *)
            | Some id -> misses_of_id t id
          in
          if held < mine && held < !best then begin
            victim := i;
            best := held
          end
    done;
    if !victim >= 0 then prod t cpus.(!victim) d
  end

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
