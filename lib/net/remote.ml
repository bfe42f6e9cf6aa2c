module Engine = Lrpc_sim.Engine
module Metrics = Lrpc_obs.Metrics
module Pdomain = Lrpc_kernel.Pdomain
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

type t = {
  rt : Lrpc_core.Api.t;
  client : Pdomain.t;
  server : Pdomain.t;
  iface : I.interface;
  impls : (string * (V.t list -> V.t list)) list;
  remote_calls : Metrics.counter;
  duplicates : Metrics.counter;
  live_gauge : Metrics.gauge;
  peak_gauge : Metrics.gauge;
  mutable bid : int;
  mutable next_seq : int;
  mutable live : int;  (** executed cells whose transport call is still open *)
}

type cell = {
  owner : t;
  proc : string;
  args : V.t list;
  impl : V.t list -> V.t list;
  seq : int;
  mutable ran : bool;
  mutable results : V.t list;
}

(* The counter's single home is the runtime engine's metrics registry:
   one count per simulated machine set, not per process. *)
let remote_counter rt =
  Metrics.counter (Engine.metrics (Lrpc_core.Api.engine rt)) "net.remote_calls"

let remote_calls rt = Metrics.Counter.value (remote_counter rt)
let reset_remote_calls rt = Metrics.Counter.reset (remote_counter rt)

let payload_bytes vs = List.fold_left (fun acc v -> acc + V.payload_bytes v) 0 vs

let create ~who ~duplicates ~live ~peak rt ~client ~server iface ~impls =
  if Pdomain.is_local client server then
    invalid_arg (who ^ ": domains share a machine; bind locally");
  (match I.validate iface with
  | Ok () -> ()
  | Error m -> invalid_arg (who ^ ": " ^ m));
  let m = Engine.metrics (Lrpc_core.Api.engine rt) in
  {
    rt;
    client;
    server;
    iface;
    impls;
    remote_calls = remote_counter rt;
    duplicates = Metrics.counter m duplicates;
    live_gauge = Metrics.gauge m live;
    peak_gauge = Metrics.gauge m peak;
    bid = -1;
    next_seq = 0;
    live = 0;
  }

(* Several bindings write the same gauges, so every write reports this
   binding's count as of now, and the peak is the high-water mark over
   all of them. *)
let note_live s =
  let n = float_of_int s.live in
  Metrics.Gauge.set s.live_gauge n;
  if n > Metrics.Gauge.value s.peak_gauge then Metrics.Gauge.set s.peak_gauge n

let execute c =
  if c.ran then begin
    Metrics.Counter.incr c.owner.duplicates;
    c.results
  end
  else begin
    let results = c.impl c.args in
    c.ran <- true;
    c.results <- results;
    let s = c.owner in
    s.live <- s.live + 1;
    note_live s;
    results
  end

let release c =
  let s = c.owner in
  if c.ran then s.live <- s.live - 1;
  note_live s

let bind ?window s exchange =
  let transport ~proc args =
    let impl =
      match List.assoc_opt proc s.impls with
      | Some impl -> impl
      | None -> raise (Lrpc_core.Rt.Bad_binding ("no remote impl: " ^ proc))
    in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    Metrics.Counter.incr s.remote_calls;
    let c = { owner = s; proc; args; impl; seq; ran = false; results = [] } in
    match exchange c with
    | results ->
        release c;
        results
    | exception exn ->
        release c;
        raise exn
  in
  let b =
    Lrpc_core.Binding.make_remote_binding ?window s.rt ~client:s.client
      ~server:s.server s.iface ~transport
  in
  s.bid <- b.Lrpc_core.Rt.bid;
  b

let proc c = c.proc
let seq c = c.seq
let arg_bytes c = payload_bytes c.args
let binding c = c.owner.bid
