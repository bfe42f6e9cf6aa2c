(** LRPC runtime representation.

    Every record the facility juggles — Binding Objects, procedure
    descriptors, A-stacks, E-stacks, linkage records — lives here, in one
    recursive knot, so the functional modules ({!Astack}, {!Estack},
    {!Binding}, {!Call}, {!Termination}) stay cycle-free. User code goes
    through {!Api} and should not normally need these internals, but they
    are exposed (read-mostly) for tests and instrumentation. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics
module Spinlock = Lrpc_sim.Spinlock
module Waitq = Lrpc_sim.Waitq
module Kernel = Lrpc_kernel.Kernel
module Pdomain = Lrpc_kernel.Pdomain
module Vm = Lrpc_kernel.Vm
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Layout = Lrpc_idl.Layout

exception Call_failed of string
(** The server domain terminated while serving this call (paper §5.3), or
    a linkage on the return path had been invalidated. *)

exception Call_aborted of string
(** Raised in a replacement thread standing in for a captured one. *)

exception Bad_binding of string
(** Forged, revoked or foreign Binding Object presented at a call. *)

exception Not_exported of string
(** Import of an interface nobody exports (only when not waiting). *)

exception Already_awaited of string
(** A call handle was awaited a second time ({!Call.await} consumed it). *)

exception Deadline_exceeded of string
(** The call's deadline (or an await's timeout) fired before it landed;
    the call was aborted through the §5.3 captured-thread path. *)

exception Overloaded of { ov_reason : string; ov_backoff_us : float }
(** The call was rejected at admission — per-binding concurrency bound,
    A-stack queue-depth limit, queue-delay (sojourn) shedding, or a
    deadline the observed service time cannot meet — or a Netrpc retry
    was suppressed by an exhausted retry budget. [ov_backoff_us] is the
    server's backoff hint: how long a well-behaved client should wait
    before trying again. *)

(* Delivered into a thread that must unwind out of a terminating server
   domain; never escapes the call path. *)
exception Unwind_termination

type config = {
  astack_exhaustion : [ `Wait | `Allocate ];
      (** what a caller does when the pre-allocated A-stacks are all in
          use (paper §5.2): wait for one, or allocate more (non-primary,
          slightly slower to validate) *)
  estack_policy : [ `Lazy | `Static ];
      (** lazy A-/E-stack association (the paper's design) vs static
          pre-allocation at bind time (ablation A5) *)
  estack_bytes : int;  (** E-stack size; "tens of kilobytes" *)
  oob_overhead : Time.t;
      (** fixed cost of the out-of-band segment path for oversized
          arguments (§5.2): "complicated and relatively expensive" *)
  extra_astack_validation : Time.t;
      (** added validation cost for A-stacks outside the primary
          contiguous region (§5.2) *)
  estack_alloc_cost : Time.t;
      (** kernel cost to allocate a fresh E-stack on first association *)
  default_astack_size : int;  (** for variable-size procedures *)
  kernel_lock : [ `Per_astack | `Global ];
      (** LRPC's design guards each A-stack queue with its own lock and
          keeps the kernel transfer path lock-free; [`Global] is the
          counterfactual (ablation A4): one SRC-style lock held across
          the kernel's call- and return-side transfer work, to show what
          Figure 2 would look like without the design-for-concurrency *)
  astack_sharing : bool;
      (** paper §3.1: procedures in the same interface whose A-stacks
          are of similar size (same page count here) share one A-stack
          set, cutting the storage cost of wide interfaces; the number
          of simultaneous calls is then bounded by the shared total (a
          soft limit — the exhaustion policy still applies). Off by
          default so storage-sensitive and isolation-sensitive setups
          are the explicit choice, as in the paper's interface writer
          overrides. *)
}

let default_config =
  {
    astack_exhaustion = `Wait;
    estack_policy = `Lazy;
    estack_bytes = 20_480;
    oob_overhead = Time.us 120;
    extra_astack_validation = Time.us 2;
    estack_alloc_cost = Time.us 50;
    default_astack_size = Layout.ethernet_packet_size;
    kernel_lock = `Per_astack;
    astack_sharing = false;
  }

(* --- fault-injection hooks ---------------------------------------------- *)

(* What the (simulated) wire does to one request/reply exchange. *)
type wire_fault = {
  wf_request_lost : bool;  (** the request packet never reaches the server *)
  wf_reply_lost : bool;  (** the server executes, but the reply is lost *)
  wf_duplicate : bool;
      (** a retransmission races the ack: the server sees the request
          twice; sequence-number dedup must suppress the re-execution *)
  wf_extra_delay : Time.t;  (** added one-way latency for this exchange *)
}

let wire_ok =
  {
    wf_request_lost = false;
    wf_reply_lost = false;
    wf_duplicate = false;
    wf_extra_delay = Time.zero;
  }

(* What the (simulated) wire does to one packet of a packet-granular
   transport. A lost packet is retransmitted individually; an ECN mark
   arrives with the packet and feeds the sender's congestion control. *)
type packet_fault = {
  pf_lost : bool;  (** this packet (or its ack) never arrives *)
  pf_ecn : bool;  (** delivered, but marked congestion-experienced *)
  pf_dup : bool;  (** delivered twice; receiver-side dedup must hold *)
  pf_delay : Time.t;  (** added one-way latency for this packet *)
}

let packet_ok =
  { pf_lost = false; pf_ecn = false; pf_dup = false; pf_delay = Time.zero }

(* The hook record a fault plan installs on the runtime. Kept here, at
   the bottom of the dependency order, so [Astack], [Call] and [Netrpc]
   can consult it without depending on [lrpc_fault]; when [faults] is
   [None] (the default) every consultation is a single pointer test —
   the fast path costs nothing. *)
type faults = {
  f_wire : proc:string -> seq:int -> attempt:int -> wire_fault;
      (** consulted once per transmission attempt on the network path *)
  f_packet : proc:string -> seq:int -> pkt:int -> attempt:int -> packet_fault;
      (** consulted once per packet per transmission attempt on the
          packet-granular network path *)
  f_backoff_jitter : binding:int -> attempt:int -> float;
      (** deterministic jitter factor in [0, 1) for retry backoff,
          drawn from a per-binding stream so one binding's schedule
          cannot perturb another's under the same seed *)
  f_server_exn : proc:string -> exn option;
      (** exception to raise from the server stub instead of the
          procedure body *)
  f_starvation : proc:string -> Time.t option;
      (** transient A-stack pool starvation: force this checkout to wait
          in the FIFO queue for (at most) the returned duration even if
          the free list is non-empty *)
}

(* --- overload control ---------------------------------------------------- *)

(* Admission policy, installed on the runtime like a fault plan: when
   [admission] is [None] (the default) every consultation on the call
   path is a single pointer test and no timer is ever armed, so the
   fast path — and every same-seed trace digest — is untouched. *)
type admission = {
  adm_max_inflight : int option;
      (** per-binding concurrency bound, checked at issue: calls issued
          but not yet landed, local and remote alike *)
  adm_max_queue : int option;
      (** per-pool queue-depth bound: a checkout that would enqueue
          behind this many live FIFO waiters is rejected instead *)
  adm_target_sojourn : Time.t option;
      (** CoDel-style queue-{e delay} bound: a waiter whose simulated
          wait in the FIFO direct-grant queue exceeds this target is
          shed with {!Overloaded} rather than kept queueing *)
  adm_deadline_aware : bool;
      (** drop calls whose deadline budget cannot cover the binding's
          observed (EWMA) service time — they would only burn a server
          slot to miss their deadline anyway *)
}

(* Each bound, when given, must admit something: at least one call in
   flight, a queue of zero or more waiters (0 sheds every checkout that
   would queue, but none that finds a free A-stack), and a positive
   sojourn target (the backoff hint is twice it). *)
let admission_policy ?max_inflight ?max_queue ?target_sojourn
    ?(deadline_aware = false) () =
  (match max_inflight with
  | Some n when n < 1 ->
      invalid_arg "Rt.admission_policy: max_inflight must be >= 1"
  | _ -> ());
  (match max_queue with
  | Some n when n < 0 -> invalid_arg "Rt.admission_policy: max_queue must be >= 0"
  | _ -> ());
  (match target_sojourn with
  | Some t when t <= Time.zero ->
      invalid_arg "Rt.admission_policy: target_sojourn must be > 0"
  | _ -> ());
  {
    adm_max_inflight = max_inflight;
    adm_max_queue = max_queue;
    adm_target_sojourn = target_sojourn;
    adm_deadline_aware = deadline_aware;
  }

type linkage = {
  l_region : Vm.region;  (** kernel-private page holding the record *)
  mutable l_in_use : bool;
  mutable l_valid : bool;
  mutable l_abandoned : bool;
      (** the client released this captured call; destroy the thread when
          it finally returns *)
  mutable l_caller : Engine.thread option;
  mutable l_return_domain : Pdomain.t option;
}

type estack = {
  es_region : Vm.region;
  mutable es_assoc : astack option;
  mutable es_last_used : Time.t;
}

and astack = {
  a_id : int;
  a_region : Vm.region;
  a_linkage : linkage;
  a_primary : bool;
  mutable a_shard : int;
      (** index of the pool shard whose free list this A-stack returns
          to; assigned round-robin at pool creation (extras inherit the
          shard of the checkout that allocated them) *)
  mutable a_estack : estack option;
  mutable a_last_used : Time.t;
  mutable a_footprint : (estack * int list) option;
      (** the call-side TLB footprint ({!Footprint.call_side}) and the
          E-stack it was built for; rebuilt when the association
          changes *)
}

(* Per-binding call statistics, kept in the engine's metrics registry
   (labels: binding id, client and server names). Latencies are in
   microseconds, one histogram per stage of the call path. *)
type call_stats = {
  cs_calls : Metrics.counter;
  cs_total : Metrics.histogram;
  cs_bind : Metrics.histogram;
  cs_marshal : Metrics.histogram;
  cs_transfer : Metrics.histogram;
  cs_server : Metrics.histogram;
  cs_return : Metrics.histogram;
  cs_queue : Metrics.histogram;
      (** ["lrpc.queue_delay_us"]: time spent queued in the A-stack FIFO
          direct-grant path, per binding — the sojourn that CoDel-style
          shedding bounds. Observed only by checkouts that actually
          queued, so it stays empty (and out of the JSON export) on
          uncontended runs. *)
}

type impl = server_ctx -> V.t list

and export = {
  ex_iface : I.interface;
  ex_server : Pdomain.t;
  ex_defensive : bool;
      (** server stubs defensively copy interpreted arguments off the
          A-stack (the immutability-matters rows of Table 3) *)
  ex_impls : (string * impl) list;
  ex_pdl_pages : int list;
  ex_stub_pages : int list;
  mutable ex_revoked : bool;
}

and astack_shard = {
  ash_lock : Spinlock.t;
      (** this shard's own lock — never spun on by checkouts (a checkout
          finding it held falls back to the FIFO direct-grant path), so
          the uncontended fast path is the only acquirer *)
  mutable ash_free : astack list;  (** LIFO free list *)
}

and astack_pool = {
  ap_bytes : int;  (** A-stack size; the largest procedure in the group *)
  ap_shards : astack_shard array;
      (** the free list, sharded per processor (capped by the A-stack
          count; exactly one shard on a uniprocessor): a checkout prefers
          the shard indexed by its current processor, so concurrent
          callers of one size class stop serializing on a single lock *)
  ap_waiters : astack_waiter Queue.t;
      (** callers blocked on pool exhaustion or shard contention, FIFO; a
          check-in grants the A-stack directly to the head waiter so the
          transfer never takes a spinlock on the waiter's side *)
  mutable ap_all : astack list;
}

and astack_waiter = {
  aw_th : Engine.thread;
  mutable aw_grant : astack option;
      (** set by the granting check-in {e before} the waiter is woken, so
          a woken waiter never re-enters the checkout race *)
  mutable aw_active : bool;  (** cleared when the wait exits by any path *)
}

and proc_binding = {
  pb_spec : I.proc;
  pb_layout : Layout.t;
  pb_impl : impl;
  pb_pool : astack_pool;
      (** private to this procedure, or shared with same-sized
          procedures of the interface when the runtime enables A-stack
          sharing (paper §3.1) *)
}

and binding = {
  bid : int;
  b_client : Pdomain.t;
  b_server : Pdomain.t;
  b_export : export;
  b_procs : (string * proc_binding) list;
  b_client_stub_pages : int list;
  mutable b_return_pages : int list;
      (** the return-side TLB footprint ({!Footprint.return_side}), built
          on the first return; empty until then *)
  b_stats : call_stats;
  mutable b_inflight : int;
      (** calls issued through this binding and not yet landed — always
          maintained (two integer bumps per call), so installing an
          admission policy mid-run starts from true counts *)
  mutable b_srv_ewma_us : float;
      (** EWMA of successful call latency through this binding, the
          service-time estimate deadline-aware admission checks budgets
          against; updated only while an admission policy is installed
          (0.0 = no observation yet) *)
  mutable b_revoked : bool;
  b_remote : remote option;
      (** §5.1: set on bindings to truly remote servers; the stub's first
          instruction branches to this conventional network path *)
}

and remote = {
  r_transport : remote_transport;
  r_window : int;
      (** maximum calls in flight on the wire through this binding; the
          network analogue of the A-stack pool bound *)
  mutable r_in_flight : int;
  r_wait : Waitq.t;  (** issuers blocked on a full window, FIFO *)
}

and remote_transport = proc:string -> V.t list -> V.t list

and server_ctx = {
  sc_rt : runtime;
  sc_binding : binding;
  sc_proc : I.proc;
  sc_plan : Layout.plan;
  sc_region : Vm.region;  (** A-stack or out-of-band segment *)
  sc_thread : Engine.thread;
}

(* --- asynchronous call handles ----------------------------------------- *)

(* A call's life: [issue] (client-stub half, on the issuing thread) makes
   a handle; the completion half (kernel transfer + server procedure) runs
   either inline at [await] (synchronous calls — the paper's design, the
   client thread itself crosses into the server) or on a carrier thread
   dispatched at issue time (pipelined calls); [await] finally reads the
   results off the A-stack on the awaiting thread. *)
and call_state =
  | Issued  (** inline handle: the completion half runs at [await] *)
  | In_flight  (** a carrier thread is executing the completion half *)
  | Landed of (unit, exn) result
      (** completion done; on [Ok] the outputs still sit in the data
          region awaiting their copy-F readback *)
  | Consumed  (** awaited; a second await is an error *)

and call_handle = {
  ch_id : int;
  ch_binding : binding;
  ch_proc : string;
  ch_issuer : Engine.thread;
  ch_issued_at : Time.t;
  ch_kind : call_kind;
  mutable ch_carrier : Engine.thread option;
  mutable ch_state : call_state;
  mutable ch_waiters : Engine.thread list;
      (** threads blocked in await/await_any; woken (possibly spuriously)
          when the call lands — wait loops re-check the state *)
  mutable ch_abort : exn option;
      (** set when the call was aborted (deadline/timeout) while its
          vehicle was still en route; the vehicle checks it at linkage
          claim and serves out the call as abandoned *)
  mutable ch_deadline : Engine.timer option;
      (** armed at issue when [Options.deadline] is set; cancelled by the
          landing *)
}

and call_kind = Ck_local of local_call | Ck_remote of remote_call

and local_call = {
  lc_caller : Pdomain.t;  (** the issuing thread's domain, fixed at issue *)
  lc_pb : proc_binding;
  lc_plan : Layout.plan;
  lc_astack : astack;
  lc_region : Vm.region;  (** A-stack or out-of-band segment *)
  lc_oob : bool;
  lc_audit : Vm.audit option;
  lc_marshal_cpu : int;
  lc_bytes_in : int;
  lc_bytes_out : int;
  mutable lc_released : bool;
      (** out-of-band segment freed and A-stack checked in *)
  mutable lc_detached : bool;
      (** the awaiter must not release: the call was aborted while its
          captured vehicle still holds the A-stack, which comes home when
          the vehicle finally returns (§5.3) *)
  mutable lc_t_bind : Time.t;
  mutable lc_t_marshal : Time.t;
  mutable lc_t_transfer : Time.t;
  mutable lc_t_server : Time.t;
}

and remote_call = {
  rc_args : V.t list;
  mutable rc_results : V.t list;
  mutable rc_slot_held : bool;  (** holds one of the window's slots *)
}

and domain_pages = { dp_code : int list; dp_stack : int list }

and estack_pool = { mutable ep_free : estack list; mutable ep_all : estack list }

and runtime = {
  kernel : Kernel.t;
  config : config;
  global_kernel_lock : Spinlock.t option;
  mutable exports : (string * export) list;
  bindings : (int, binding) Hashtbl.t;  (** issued Binding Objects *)
  linkstacks : (int, linkage list ref) Hashtbl.t;  (** per-thread (tid) *)
  estack_pools : (Pdomain.id, estack_pool) Hashtbl.t;
  domain_pages : (Pdomain.id, domain_pages) Hashtbl.t;
  pending_exports : (string, Waitq.t) Hashtbl.t;
  alerts : (int, unit) Hashtbl.t;
  kernel_call_pages : int list;
  kernel_return_pages : int list;
  binding_table_pages : int list;
  mutable next_binding : int;
  mutable next_astack : int;
  mutable next_handle : int;
  mutable in_flight : int;  (** issued-but-not-landed calls, local + remote *)
  c_calls_completed : Metrics.counter;  (** ["lrpc.calls_completed"] *)
  g_in_flight : Metrics.gauge;  (** ["lrpc.calls_in_flight"] *)
  c_pool_exhausted : Metrics.counter;
      (** ["lrpc.astack_pool_exhausted"]: checkouts that found the free
          list empty (paper §5.2's wait-or-allocate moment) *)
  c_shard_contended : Metrics.counter;
      (** ["lrpc.astack_shard_contended"]: checkouts that found every
          reachable shard lock held and fell back to the FIFO
          direct-grant path instead of spinning *)
  c_calls_failed : Metrics.counter;
      (** ["lrpc.calls_failed"]: calls that landed with an error *)
  c_calls_rejected : Metrics.counter;
      (** ["lrpc.calls_rejected"]: calls refused synchronously at issue,
          before a handle existed — admission rejections, sojourn sheds,
          bad bindings, revocations delivered to queued waiters.
          [calls_failed + calls_rejected] therefore accounts for every
          typed failure a client observes. *)
  c_calls_admitted : Metrics.counter;
      (** ["lrpc.calls_admitted"]: calls that passed an installed
          admission policy's issue gate; untouched (zero, omitted from
          exports) when no policy is installed *)
  mutable admission : admission option;
      (** installed admission policy; [None] (the default) keeps every
          overload consultation down to one pointer test *)
  mutable faults : faults option;
      (** installed fault plan; [None] (the default) keeps every fault
          consultation down to one pointer test *)
}

let engine rt = Kernel.engine rt.kernel
let cost_model rt = Kernel.cost_model rt.kernel

let create ?(config = default_config) kernel =
  (* The kernel's own code and data working set: twelve pages touched on
     the call path, of which the first ten are touched again on the
     simpler return path (DESIGN.md §4 derives the 25/18 split). *)
  let kregion =
    Kernel.alloc_region kernel ~owner:(Kernel.kernel_domain kernel)
      ~name:"lrpc-kernel-text" ~bytes:(12 * 512) ~mapped:[]
  in
  let btable =
    Kernel.alloc_region kernel ~owner:(Kernel.kernel_domain kernel)
      ~name:"lrpc-binding-table" ~bytes:(2 * 512) ~mapped:[]
  in
  let take n pages = List.filteri (fun i _ -> i < n) pages in
  (* Never bumped: lrpcbench's digests hash Metrics.to_json, zeros too. *)
  ignore
    (Metrics.counter (Engine.metrics (Kernel.engine kernel)) "lrpc.astack_reshards");
  {
    kernel;
    config;
    global_kernel_lock =
      (match config.kernel_lock with
      | `Global ->
          Some (Spinlock.create ~name:"lrpc-global-lock" (Kernel.engine kernel))
      | `Per_astack -> None);
    exports = [];
    bindings = Hashtbl.create 32;
    linkstacks = Hashtbl.create 64;
    estack_pools = Hashtbl.create 16;
    domain_pages = Hashtbl.create 16;
    pending_exports = Hashtbl.create 8;
    alerts = Hashtbl.create 8;
    kernel_call_pages = kregion.Vm.pages;
    kernel_return_pages = take 10 kregion.Vm.pages;
    binding_table_pages = btable.Vm.pages;
    next_binding = 1;
    next_astack = 1;
    next_handle = 1;
    in_flight = 0;
    c_calls_completed =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.calls_completed";
    g_in_flight =
      Metrics.gauge (Engine.metrics (Kernel.engine kernel))
        "lrpc.calls_in_flight";
    c_pool_exhausted =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.astack_pool_exhausted";
    c_shard_contended =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.astack_shard_contended";
    c_calls_failed =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.calls_failed";
    c_calls_rejected =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.calls_rejected";
    c_calls_admitted =
      Metrics.counter (Engine.metrics (Kernel.engine kernel))
        "lrpc.calls_admitted";
    admission = None;
    faults = None;
  }

(* Registered lazily at bind time; same-binding ids share instruments. *)
let make_call_stats rt ~bid ~client ~server =
  let m = Engine.metrics (Kernel.engine rt.kernel) in
  let labels =
    [
      ("binding", string_of_int bid);
      ("client", client.Pdomain.name);
      ("server", server.Pdomain.name);
    ]
  in
  let stage s = Metrics.histogram m ~labels:(("stage", s) :: labels) "lrpc.call_us" in
  {
    cs_calls = Metrics.counter m ~labels "lrpc.calls";
    cs_total = stage "total";
    cs_bind = stage "bind";
    cs_marshal = stage "marshal";
    cs_transfer = stage "transfer";
    cs_server = stage "server";
    cs_return = stage "return";
    cs_queue = Metrics.histogram m ~labels "lrpc.queue_delay_us";
  }

(* Client-code and client-stack pages of a domain, for the return-side TLB
   footprint; allocated on first use. *)
let pages_of_domain rt d =
  match Hashtbl.find_opt rt.domain_pages d.Pdomain.id with
  | Some dp -> dp
  | None ->
      let code =
        Kernel.alloc_region rt.kernel ~owner:d ~name:(d.Pdomain.name ^ "-text")
          ~bytes:(2 * 512) ~mapped:[ d ]
      in
      let stack =
        Kernel.alloc_region rt.kernel ~owner:d ~name:(d.Pdomain.name ^ "-stack")
          ~bytes:(4 * 512) ~mapped:[ d ]
      in
      let dp = { dp_code = code.Vm.pages; dp_stack = stack.Vm.pages } in
      Hashtbl.replace rt.domain_pages d.Pdomain.id dp;
      dp

let linkstack_of rt th =
  let tid = Engine.thread_id th in
  match Hashtbl.find_opt rt.linkstacks tid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace rt.linkstacks tid r;
      r

let estack_pool rt d =
  match Hashtbl.find_opt rt.estack_pools d.Pdomain.id with
  | Some p -> p
  | None ->
      let p = { ep_free = []; ep_all = [] } in
      Hashtbl.replace rt.estack_pools d.Pdomain.id p;
      p

(* --- in-flight accounting ------------------------------------------------ *)

let note_call_issued rt =
  rt.in_flight <- rt.in_flight + 1;
  Metrics.Gauge.set rt.g_in_flight (float_of_int rt.in_flight)

let note_call_landed rt =
  rt.in_flight <- rt.in_flight - 1;
  Metrics.Gauge.set rt.g_in_flight (float_of_int rt.in_flight)

(* --- Taos-style alerts (paper §5.3) ------------------------------------- *)

let alert rt th = Hashtbl.replace rt.alerts (Engine.thread_id th) ()

let alerted rt th = Hashtbl.mem rt.alerts (Engine.thread_id th)

let clear_alert rt th = Hashtbl.remove rt.alerts (Engine.thread_id th)
