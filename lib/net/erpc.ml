module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Category = Lrpc_sim.Category
module Waitq = Lrpc_sim.Waitq
module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics
module Pdomain = Lrpc_kernel.Pdomain
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value

(* An eRPC-style packet-granular transport ("Datacenter RPCs can be
   General and Fast", NSDI '19) next to the classic whole-message
   [Netrpc] model. Messages fragment into MTU-sized packets that are
   scheduled as individual engine events; a per-session credit window
   gates injection; per-packet acks carry RTT samples and ECN marks
   into a Timely/DCQCN-style congestion controller; lost packets are
   retransmitted selectively (only the lost fragment, per-packet RTO)
   instead of re-sending the whole message. The receiver runs to
   completion: fragment reassembly and the procedure body execute
   without a per-packet thread switch, and with [zero_copy] the payload
   lands directly in the pinned A-stack region (the paper's
   shared-argument-stack insight) instead of through a staged copy.

   Model simplifications, on purpose: there is no shared-link queueing
   between sessions — congestion signals (drop / ECN / delay) come
   solely from the installed fault plan's per-packet stream, so the
   controller's reaction is exercised deterministically; and the ack
   path is reduced to a propagation delay (acks are tiny). *)

type params = {
  mtu : int;  (** wire MTU, bytes; fragments carry [mtu - header_bytes] *)
  header_bytes : int;  (** per-packet header overhead *)
  per_byte_ns : int;  (** serialisation cost per wire byte (one way) *)
  propagation_us : float;  (** one-way propagation latency *)
  host_overhead_us : float;
      (** sender CPU cost to inject one packet (doorbell + DMA); also
          models the receiver's run-to-completion handler, folded into
          the delivery latency *)
  kernel_mediation_us : float;
      (** per-call kernel mediation (binding validation trap) *)
  cache_hit_us : float;
      (** per-call cost when the Arcalis-style binding-context cache
          hits instead of the full mediation *)
  rto_us : float;  (** per-packet retransmission timeout *)
  max_pkt_attempts : int;  (** attempts per packet before the call fails *)
  credit_cap : int;  (** hard cap on the credit window, packets *)
  init_cwnd : float;  (** initial congestion window, packets *)
  min_cwnd : float;  (** congestion-window floor *)
  ai_pkts : float;  (** additive increase per below-threshold RTT sample *)
  md_factor : float;  (** multiplicative decrease on loss/ECN/high RTT *)
  rtt_low_us : float;  (** Timely low threshold: below this, increase *)
  rtt_high_us : float;  (** Timely high threshold: above this, decrease *)
  zero_copy : bool;
      (** true: payload lands in the pinned A-stack region, no staged
          copy; false: charge [copy_ns_per_byte] at both ends *)
  copy_ns_per_byte : int;  (** staged-copy cost when [zero_copy = false] *)
  binding_cache : bool;
      (** opt-in Arcalis ablation: cache the binding context so repeat
          calls pay [cache_hit_us] instead of [kernel_mediation_us] *)
}

let default_params =
  {
    mtu = 1_500;
    header_bytes = 64;
    per_byte_ns = 800;
    propagation_us = 25.0;
    host_overhead_us = 8.0;
    kernel_mediation_us = 20.0;
    cache_hit_us = 1.0;
    rto_us = 400.0;
    max_pkt_attempts = 8;
    credit_cap = 32;
    init_cwnd = 8.0;
    min_cwnd = 1.0;
    ai_pkts = 0.5;
    md_factor = 0.5;
    rtt_low_us = 1_500.0;
    rtt_high_us = 3_000.0;
    zero_copy = true;
    copy_ns_per_byte = 167;
    binding_cache = false;
  }

let default_dedup_capacity = 1_024

let import_remote ?(params = default_params) ?(window = 8)
    ?(dedup_capacity = default_dedup_capacity) rt ~client ~server iface ~impls =
  if Pdomain.is_local client server then
    invalid_arg "Erpc.import_remote: domains share a machine; bind locally";
  (match I.validate iface with
  | Ok () -> ()
  | Error m -> invalid_arg ("Erpc.import_remote: " ^ m));
  let p = params in
  if p.mtu <= p.header_bytes then
    invalid_arg "Erpc.import_remote: mtu must exceed header_bytes";
  if p.credit_cap < 1 || p.max_pkt_attempts < 1 then
    invalid_arg
      "Erpc.import_remote: credit_cap and max_pkt_attempts must be >= 1";
  if dedup_capacity < 1 then
    invalid_arg "Erpc.import_remote: dedup_capacity must be at least 1";
  let engine = Lrpc_core.Api.engine rt in
  let m = Engine.metrics engine in
  let remote_calls = Metrics.counter m "net.remote_calls" in
  let pkts_sent = Metrics.counter m "net.erpc.pkts_sent" in
  let retransmits = Metrics.counter m "net.erpc.retransmits" in
  let ecn_marks = Metrics.counter m "net.erpc.ecn_marks" in
  let credit_stalls = Metrics.counter m "net.erpc.credit_stalls" in
  let dup_suppressed = Metrics.counter m "net.erpc.dup_suppressed" in
  let credit_underflow = Metrics.counter m "net.erpc.credit_underflow" in
  let bcache_hits = Metrics.counter m "net.erpc.bcache_hits" in
  let bcache_misses = Metrics.counter m "net.erpc.bcache_misses" in
  let zerocopy_bytes = Metrics.counter m "net.erpc.zerocopy_bytes" in
  let copied_bytes = Metrics.counter m "net.erpc.copied_bytes" in
  let cwnd_gauge = Metrics.gauge m "net.erpc.cwnd" in
  let inflight_max = Metrics.gauge m "net.erpc.inflight_max" in
  let dedup_gauge = Metrics.gauge m "net.erpc.dedup_entries" in
  let dedup_peak = Metrics.gauge m "net.erpc.dedup_peak" in
  let rtt_hist = Metrics.histogram m "net.erpc.rtt_us" in
  (* --- per-session (per-binding) state ---------------------------------- *)
  let cwnd = ref p.init_cwnd in
  let inflight = ref 0 in
  let credit_q = Waitq.create engine in
  Metrics.Gauge.set cwnd_gauge !cwnd;
  let cur_window () =
    let w = int_of_float !cwnd in
    max 1 (min p.credit_cap w)
  in
  let md () = cwnd := Float.max p.min_cwnd (!cwnd *. p.md_factor) in
  let ai () =
    cwnd := Float.min (float_of_int p.credit_cap) (!cwnd +. p.ai_pkts)
  in
  let note_cwnd () = Metrics.Gauge.set cwnd_gauge !cwnd in
  let take_credit () =
    incr inflight;
    if float_of_int !inflight > Metrics.Gauge.value inflight_max then
      Metrics.Gauge.set inflight_max (float_of_int !inflight)
  in
  let return_credit () =
    decr inflight;
    if !inflight < 0 then begin
      (* Must never happen: the qcheck invariant reads this counter. *)
      Metrics.Counter.incr credit_underflow;
      inflight := 0
    end;
    ignore (Waitq.signal credit_q : bool)
  in
  (* At-most-once at packet granularity: results of completed sequence
     numbers are cached (bounded, insertion-order eviction) so a late
     duplicate fragment of an already-executed message is answered by
     suppression, never by re-execution. *)
  let next_seq = ref 0 in
  let executed : (int, V.t list) Hashtbl.t = Hashtbl.create 16 in
  let dedup_order : int Queue.t = Queue.create () in
  let note_dedup_size () =
    let n = float_of_int (Hashtbl.length executed) in
    Metrics.Gauge.set dedup_gauge n;
    if n > Metrics.Gauge.value dedup_peak then Metrics.Gauge.set dedup_peak n
  in
  let dedup_insert seq results =
    Hashtbl.replace executed seq results;
    Queue.push seq dedup_order;
    while Hashtbl.length executed > dedup_capacity
          && not (Queue.is_empty dedup_order) do
      Hashtbl.remove executed (Queue.pop dedup_order)
    done;
    note_dedup_size ()
  in
  let dedup_ack seq =
    Hashtbl.remove executed seq;
    note_dedup_size ()
  in
  let payload_cap = p.mtu - p.header_bytes in
  let frags_of bytes = max 1 ((bytes + payload_cap - 1) / payload_cap) in
  let bcache_warm = ref false in
  let transport ~proc args =
    let pr =
      match I.find_proc iface proc with
      | Some pr -> pr
      | None -> raise (Lrpc_core.Rt.Bad_binding ("no such procedure: " ^ proc))
    in
    let impl =
      match List.assoc_opt proc impls with
      | Some impl -> impl
      | None -> raise (Lrpc_core.Rt.Bad_binding ("no remote impl: " ^ proc))
    in
    let inputs =
      List.filter
        (fun (prm : I.param) -> prm.I.mode = I.In || prm.I.mode = I.In_out)
        pr.I.params
    in
    if List.length inputs <> List.length args then
      raise
        (Lrpc_idl.Layout.Arity_mismatch
           (Printf.sprintf "%s: expected %d arguments" proc (List.length inputs)));
    List.iter2 (fun (prm : I.param) v -> V.check_exn prm.I.ty v) inputs args;
    let seq = !next_seq in
    incr next_seq;
    Metrics.Counter.incr remote_calls;
    let self_th = Engine.self engine in
    (* Per-call completion state, flipped from timer context; the
       engine never preempts between delays, so flag-then-block loops
       are race-free. *)
    let failure = ref None in
    let fail_call why =
      if !failure = None then begin
        failure := Some why;
        Engine.wake engine self_th
      end
    in
    let check_failed () =
      match !failure with
      | Some why ->
          dedup_ack seq;
          raise
            (Lrpc_core.Rt.Call_failed
               (Printf.sprintf "%s: %s (seq %d)" proc why seq))
      | None -> ()
    in
    let fault ~pkt ~attempt =
      match rt.Lrpc_core.Rt.faults with
      | None -> Lrpc_core.Rt.packet_ok
      | Some f -> f.Lrpc_core.Rt.f_packet ~proc ~seq ~pkt ~attempt
    in
    (* One reliable packet: draw the per-attempt fault verdict, emit the
       injection event, and either schedule delivery + ack or arm the
       per-packet retransmission timer. Retransmission re-enters from
       timer context (schedule/wake/metrics only — never a delay). *)
    let rec launch ~pkt ~frag_bytes ~attempt ~on_delivered =
      let pf = fault ~pkt ~attempt in
      Metrics.Counter.incr pkts_sent;
      if attempt > 1 then Metrics.Counter.incr retransmits;
      if Engine.tracing engine then
        Engine.emit engine
          (Event.Net_packet
             { seq; pkt; bytes = frag_bytes; retransmit = attempt > 1 });
      if pf.Lrpc_core.Rt.pf_lost then begin
        if attempt >= p.max_pkt_attempts then begin
          return_credit ();
          fail_call
            (Printf.sprintf "packet %d lost after %d attempts" pkt attempt)
        end
        else begin
          (* Loss is a congestion signal: back off before the retry. *)
          md ();
          note_cwnd ();
          ignore
            (Engine.at engine
               (Time.add (Engine.now engine) (Time.us_f p.rto_us))
               (fun () ->
                 launch ~pkt ~frag_bytes ~attempt:(attempt + 1) ~on_delivered)
              : Engine.timer)
        end
      end
      else begin
        let wire_bytes = frag_bytes + p.header_bytes in
        let delay_us = Time.to_us pf.Lrpc_core.Rt.pf_delay in
        let one_way_us =
          p.propagation_us
          +. (float_of_int (wire_bytes * p.per_byte_ns) /. 1_000.0)
          +. p.host_overhead_us +. delay_us
        in
        let now = Engine.now engine in
        let arrival = Time.add now (Time.us_f one_way_us) in
        ignore (Engine.at engine arrival on_delivered : Engine.timer);
        if pf.Lrpc_core.Rt.pf_dup then
          (* The wire delivered the fragment twice; reassembly dedup
             must suppress the copy (no second ack, no second credit). *)
          ignore
            (Engine.at engine (Time.add arrival (Time.us_f 1.0)) (fun () ->
                 Metrics.Counter.incr dup_suppressed)
              : Engine.timer);
        let rtt_us = one_way_us +. p.propagation_us +. delay_us in
        ignore
          (Engine.at engine
             (Time.add now (Time.us_f rtt_us))
             (fun () ->
               return_credit ();
               Metrics.Histo.observe rtt_hist
                 (int_of_float (Float.round rtt_us));
               if pf.Lrpc_core.Rt.pf_ecn then begin
                 Metrics.Counter.incr ecn_marks;
                 md ()
               end
               else if rtt_us > p.rtt_high_us then md ()
               else if rtt_us < p.rtt_low_us then ai ();
               note_cwnd ())
            : Engine.timer)
      end
    in
    (* Send all fragments of one direction from the client thread,
       credit-gated, then return; completion is awaited separately. *)
    let send_fragments ~pkt_base ~bytes ~on_frag_delivered =
      let n = frags_of bytes in
      for i = 0 to n - 1 do
        (while !failure = None && !inflight >= cur_window () do
           Metrics.Counter.incr credit_stalls;
           Waitq.wait credit_q
         done);
        check_failed ();
        take_credit ();
        let frag_bytes =
          if i = n - 1 then max 1 (bytes - (i * payload_cap))
          else payload_cap
        in
        (* Injection cost: doorbell + DMA on the sender CPU. *)
        Engine.delay ~category:Category.Network engine
          (Time.us_f p.host_overhead_us);
        launch ~pkt:(pkt_base + i) ~frag_bytes ~attempt:1
          ~on_delivered:(fun () -> on_frag_delivered i)
      done;
      n
    in
    let await flag =
      while (not !flag) && !failure = None do
        Engine.block engine
      done;
      check_failed ()
    in
    let staged_copy bytes =
      if bytes > 0 then
        if p.zero_copy then Metrics.Counter.add zerocopy_bytes bytes
        else begin
          Metrics.Counter.add copied_bytes bytes;
          if Engine.tracing engine then
            Engine.emit engine (Event.Copy { label = "B"; bytes });
          Engine.delay ~category:Category.Network engine
            (Time.ns (bytes * p.copy_ns_per_byte))
        end
    in
    (* Per-call kernel mediation, short-circuited by the opt-in
       Arcalis-style binding-context cache after the first call. *)
    (if p.binding_cache then
       if !bcache_warm then begin
         Metrics.Counter.incr bcache_hits;
         Engine.delay ~category:Category.Kernel_transfer engine
           (Time.us_f p.cache_hit_us)
       end
       else begin
         Metrics.Counter.incr bcache_misses;
         bcache_warm := true;
         Engine.delay ~category:Category.Kernel_transfer engine
           (Time.us_f p.kernel_mediation_us)
       end
     else
       Engine.delay ~category:Category.Kernel_transfer engine
         (Time.us_f p.kernel_mediation_us));
    let arg_bytes =
      List.fold_left (fun acc v -> acc + V.payload_bytes v) 0 args
    in
    if Engine.tracing engine then
      Engine.emit engine (Event.Net_send { bytes = arg_bytes });
    (* Marshal: zero-copy hands the payload straight to the pinned
       A-stack region; the ablation pays a staged copy instead. *)
    staged_copy arg_bytes;
    (* Request direction: fragment, inject, await reassembly. *)
    let req_frags = frags_of arg_bytes in
    let req_delivered = Array.make req_frags false in
    let req_remaining = ref req_frags in
    let req_done = ref false in
    ignore
      (send_fragments ~pkt_base:0 ~bytes:arg_bytes ~on_frag_delivered:(fun i ->
           if req_delivered.(i) then Metrics.Counter.incr dup_suppressed
           else begin
             req_delivered.(i) <- true;
             decr req_remaining;
             if !req_remaining = 0 then begin
               req_done := true;
               Engine.wake engine self_th
             end
           end)
        : int);
    await req_done;
    (* Receiver runs to completion: the last fragment's handler executes
       the procedure body directly, no thread switch. At-most-once: one
       execution per sequence number, ever. *)
    let results =
      match Hashtbl.find_opt executed seq with
      | Some results ->
          Metrics.Counter.incr dup_suppressed;
          results
      | None ->
          let results = impl args in
          dedup_insert seq results;
          results
    in
    let result_bytes =
      List.fold_left (fun acc v -> acc + V.payload_bytes v) 0 results
    in
    staged_copy result_bytes;
    (* Response direction, same session credits. *)
    let resp_frags = frags_of result_bytes in
    let resp_delivered = Array.make resp_frags false in
    let resp_remaining = ref resp_frags in
    let resp_done = ref false in
    ignore
      (send_fragments ~pkt_base:req_frags ~bytes:result_bytes
         ~on_frag_delivered:(fun i ->
           if resp_delivered.(i) then Metrics.Counter.incr dup_suppressed
           else begin
             resp_delivered.(i) <- true;
             decr resp_remaining;
             if !resp_remaining = 0 then begin
               resp_done := true;
               Engine.wake engine self_th
             end
           end)
        : int);
    await resp_done;
    if Engine.tracing engine then
      Engine.emit engine (Event.Net_recv { bytes = result_bytes });
    dedup_ack seq;
    results
  in
  Lrpc_core.Binding.make_remote_binding ~window rt ~client ~server iface
    ~transport
