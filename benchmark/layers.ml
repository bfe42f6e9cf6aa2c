(* Per-layer counts for one workload: a traced pass that folds the
   typed trace into counts per event kind, and an untraced pass that
   reads engine, metrics and GC counters. Every count is taken between
   the warmup tick and the horizon and divided by the calls completed
   there. *)

module Engine = Lrpc_sim.Engine
module Metrics = Lrpc_obs.Metrics
module Trace = Lrpc_obs.Trace
module Event = Lrpc_obs.Event
module Driver = Lrpc_workload.Driver

type events = {
  mutable total : int;
  mutable slices : int;
  mutable dispatches : int;
  mutable blocks : int;
  mutable wakes : int;
  mutable switches : int;
  mutable exchanges : int;
  mutable traps : int;
  mutable copies : int;
  mutable copy_bytes : int;
  mutable lock_contends : int;
  mutable packets : int;
  mutable retransmits : int;
  mutable dropped : int;  (** events lost to ring overwrites; must stay 0 *)
}

let count ev (e : Trace.event) =
  ev.total <- ev.total + 1;
  match e.Trace.kind with
  | Event.Slice _ -> ev.slices <- ev.slices + 1
  | Event.Dispatch { switched; _ } ->
      ev.dispatches <- ev.dispatches + 1;
      if switched then ev.switches <- ev.switches + 1
  | Event.Block _ -> ev.blocks <- ev.blocks + 1
  | Event.Wake _ -> ev.wakes <- ev.wakes + 1
  | Event.Switch _ -> ev.switches <- ev.switches + 1
  | Event.Exchange _ -> ev.exchanges <- ev.exchanges + 1
  | Event.Trap -> ev.traps <- ev.traps + 1
  | Event.Copy { bytes; _ } ->
      ev.copies <- ev.copies + 1;
      ev.copy_bytes <- ev.copy_bytes + bytes
  | Event.Lock_contend _ -> ev.lock_contends <- ev.lock_contends + 1
  | Event.Net_packet { retransmit; _ } ->
      ev.packets <- ev.packets + 1;
      if retransmit then ev.retransmits <- ev.retransmits + 1
  | _ -> ()

(* The ring only has to hold one sampler window: it is drained and
   cleared at every tick. *)
let trace_capacity = 1 lsl 17

let traced w ~quick ~seed ~horizon =
  let ev =
    {
      total = 0; slices = 0; dispatches = 0; blocks = 0; wakes = 0;
      switches = 0; exchanges = 0; traps = 0; copies = 0; copy_bytes = 0;
      lock_contends = 0; packets = 0; retransmits = 0; dropped = 0;
    }
  in
  let drain b phase =
    match b.Driver.bt_tracer with
    | None -> ()
    | Some tr ->
        ev.dropped <- ev.dropped + Trace.dropped tr;
        if phase = Sampler.Measured then Trace.iter tr (count ev);
        Trace.clear tr
  in
  let rep = Bench.run ~trace_capacity ~on_tick:drain w ~quick ~seed ~horizon in
  (rep, ev)

(* Counters the untraced pass reads at the warmup tick and the end. *)
type counters = {
  steals : int;
  astack_waits : int;
  credit_stalls : int;
  minor_gcs : int;
  major_cycles : int;
  promoted_words : float;
}

let read_counters engine =
  let snap = Metrics.snapshot (Engine.metrics engine) in
  let get name = Option.value (Metrics.get_counter snap name) ~default:0 in
  let g = Gc.quick_stat () in
  {
    steals = Engine.total_steals engine;
    astack_waits = get "lrpc.astack_pool_exhausted";
    credit_stalls = get "net.erpc.credit_stalls";
    minor_gcs = g.Gc.minor_collections;
    major_cycles = g.Gc.major_collections;
    promoted_words = g.Gc.promoted_words;
  }

(* GC time from the runtime's own event ring: the outermost minor
   collection or major slice, from begin to end. The ring is small, so
   it is drained at every sampler tick. *)
type gc_time = {
  mutable counting : bool;
  mutable depth : int;
  mutable began : int64;
  mutable ns : int;
}

let gc_callbacks g =
  let is_gc = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  let stamp = Runtime_events.Timestamp.to_int64 in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if is_gc phase then begin
        if g.depth = 0 then g.began <- stamp ts;
        g.depth <- g.depth + 1
      end)
    ~runtime_end:(fun _ ts phase ->
      if is_gc phase && g.depth > 0 then begin
        g.depth <- g.depth - 1;
        if g.depth = 0 && g.counting then
          g.ns <- g.ns + Int64.to_int (Int64.sub (stamp ts) g.began)
      end)
    ()

(* Returns the pass, the counters at the warmup tick and at the end,
   and the GC time in between. *)
let untraced w ~quick ~seed ~horizon =
  Runtime_events.start ();
  let g = { counting = false; depth = 0; began = 0L; ns = 0 } in
  let callbacks = gc_callbacks g and cursor = Runtime_events.create_cursor None in
  let at_warm = ref None and engine = ref None in
  let on_tick b phase =
    ignore (Runtime_events.read_poll cursor callbacks None);
    engine := Some b.Driver.bt_engine;
    if phase = Sampler.At_warmup then begin
      at_warm := Some (read_counters b.Driver.bt_engine);
      g.counting <- true
    end
  in
  let rep = Bench.run ~on_tick w ~quick ~seed ~horizon in
  Runtime_events.free_cursor cursor;
  match (!at_warm, !engine) with
  | Some a, Some e -> (rep, a, read_counters e, g.ns)
  | _ -> failwith "untraced pass: no warmup tick"
