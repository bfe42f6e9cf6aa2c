module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Category = Lrpc_sim.Category
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics
module V = Lrpc_idl.Value

let ethernet_mtu = 1_500

let null_network_us = 2_660.0

(* 10 Mbit/s = 0.8 us per byte on the wire; each additional packet beyond
   the first costs another protocol exchange. *)
let per_byte_ns = 800
let per_extra_packet = Time.us 400

let wire_time ~bytes =
  let packets = max 1 ((bytes + ethernet_mtu - 1) / ethernet_mtu) in
  Time.add
    (Time.add (Time.us_f null_network_us) (Time.ns (bytes * per_byte_ns)))
    ((packets - 1) * per_extra_packet)

let remote_calls = Remote.remote_calls
let reset_remote_calls = Remote.reset_remote_calls

let default_rto = Time.us 4_000
let default_max_attempts = 5
let retry_budget_cap = 10.0

let import_remote ?(window = 8) ?(rto = default_rto)
    ?(max_attempts = default_max_attempts) ?retry_budget rt ~client ~server
    iface ~impls =
  let s =
    Remote.create ~who:"Netrpc.import_remote"
      ~duplicates:"net.duplicates_suppressed" ~live:"net.dedup_cache_entries"
      ~peak:"net.dedup_cache_peak" rt ~client ~server iface ~impls
  in
  if max_attempts < 1 then
    invalid_arg "Netrpc.import_remote: max_attempts must be at least 1";
  (match retry_budget with
  | Some r when r < 0.0 ->
      invalid_arg "Netrpc.import_remote: retry_budget must be non-negative"
  | _ -> ());
  let engine = Lrpc_core.Api.engine rt in
  let retry_counter = Metrics.counter (Engine.metrics engine) "net.retries" in
  let suppressed_counter =
    Metrics.counter (Engine.metrics engine) "net.retries_suppressed"
  in
  (* Client-side retry budget (off unless [retry_budget] is given): a
     token bucket per binding accrues [retry_budget] tokens per logical
     call and spends one per retransmission, so sustained retries are
     bounded to that fraction of the request rate — a transient server
     slowdown cannot snowball into a metastable retry storm. The bucket
     starts full so isolated bursts still get their retries. *)
  let tokens = ref retry_budget_cap in
  (* One whole-message exchange per attempt. A retransmitted request, or
     a request the wire delivered twice, reaches the call's at-most-once
     cell, which answers it without re-running the procedure. *)
  let exchange c =
    let proc = Remote.proc c and seq = Remote.seq c in
    let arg_bytes = Remote.arg_bytes c in
    let fault ~attempt =
      match rt.Lrpc_core.Rt.faults with
      | None -> Lrpc_core.Rt.wire_ok
      | Some f -> f.Lrpc_core.Rt.f_wire ~proc ~seq ~attempt
    in
    let jitter ~attempt =
      match rt.Lrpc_core.Rt.faults with
      | None -> 0.0
      | Some f ->
          f.Lrpc_core.Rt.f_backoff_jitter ~binding:(Remote.binding c) ~attempt
    in
    let rec attempt n =
      let wf = fault ~attempt:n in
      if Engine.tracing engine then
        Engine.emit engine (Event.Net_send { bytes = arg_bytes });
      if wf.Lrpc_core.Rt.wf_request_lost then
        retry n "request lost"
      else begin
        let results = Remote.execute c in
        if wf.Lrpc_core.Rt.wf_duplicate then
          (* The network delivered the request twice; the cell answers
             the second copy without re-running the procedure. *)
          ignore (Remote.execute c : V.t list);
        if wf.Lrpc_core.Rt.wf_reply_lost then retry n "reply lost"
        else begin
          let result_bytes = Remote.payload_bytes results in
          Engine.delay ~category:Category.Network engine
            (Time.add
               (wire_time ~bytes:(arg_bytes + result_bytes))
               wf.Lrpc_core.Rt.wf_extra_delay);
          if Engine.tracing engine then
            Engine.emit engine (Event.Net_recv { bytes = result_bytes });
          results
        end
      end
    and retry n why =
      if n >= max_attempts then
        raise
          (Lrpc_core.Rt.Call_failed
             (Printf.sprintf "%s: remote call failed after %d attempts (%s; seq %d)"
                proc n why seq))
      else begin
        let backoff =
          Time.scale rto (float_of_int (1 lsl (n - 1)) *. (1.0 +. jitter ~attempt:n))
        in
        (match retry_budget with
        | Some _ when !tokens < 1.0 ->
            (* Budget exhausted: give up now rather than feed the storm.
               The backoff that would have been slept is the client's
               retry-after hint. *)
            Metrics.Counter.incr suppressed_counter;
            raise
              (Lrpc_core.Rt.Overloaded
                 {
                   ov_reason =
                     Printf.sprintf
                       "%s: retry budget exhausted after %d attempts (%s; seq %d)"
                       proc n why seq;
                   ov_backoff_us = Time.to_us backoff;
                 })
        | Some _ -> tokens := !tokens -. 1.0
        | None -> ());
        Metrics.Counter.incr retry_counter;
        (* Bounded exponential backoff; the jitter factor comes from the
           fault plan's PRNG so replays are bit-identical. *)
        Engine.delay ~category:Category.Network engine backoff;
        attempt (n + 1)
      end
    in
    (match retry_budget with
    | Some r -> tokens := Float.min retry_budget_cap (!tokens +. r)
    | None -> ());
    attempt 1
  in
  Remote.bind ~window s exchange
