module Prng = Lrpc_util.Prng
module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Metrics = Lrpc_obs.Metrics
module Kernel = Lrpc_kernel.Kernel
module Pdomain = Lrpc_kernel.Pdomain
module Rt = Lrpc_core.Rt

exception Injected_fault of string

type spec = {
  seed : int64;
  wire_drop : float;
  wire_reply_drop : float;
  wire_duplicate : float;
  wire_delay : float;
  wire_delay_mean_us : float;
  server_exn : float;
  starvation : float;
  starvation_us : float;
  crashes : (float * string) list;
  storm_from_us : float;
  storm_until_us : float;
  storm_reply_drop : float;
  pkt_drop : float;
  pkt_ecn : float;
  pkt_dup : float;
  pkt_delay : float;
  pkt_delay_mean_us : float;
}

let none =
  {
    seed = 1L;
    wire_drop = 0.0;
    wire_reply_drop = 0.0;
    wire_duplicate = 0.0;
    wire_delay = 0.0;
    wire_delay_mean_us = 0.0;
    server_exn = 0.0;
    starvation = 0.0;
    starvation_us = 0.0;
    crashes = [];
    storm_from_us = 0.0;
    storm_until_us = 0.0;
    storm_reply_drop = 0.0;
    pkt_drop = 0.0;
    pkt_ecn = 0.0;
    pkt_dup = 0.0;
    pkt_delay = 0.0;
    pkt_delay_mean_us = 0.0;
  }

type t = {
  t_spec : spec;
  (* One independent stream per fault family, split off the seed in a
     fixed order: the wire verdict sequence does not shift when, say,
     the starvation probability changes. *)
  t_wire : Prng.t;
  (* Retired global jitter stream. Still split off the root in its
     historical position so the wire/server/starve/storm sequences are
     unchanged; the per-binding streams derive from [t_jitter_root]. *)
  _t_jitter : Prng.t;
  t_server : Prng.t;
  t_starve : Prng.t;
  (* Split last so the older streams keep their historical sequences:
     adding the storm family must not shift same-seed wire verdicts. *)
  t_storm : Prng.t;
  (* Newest families last, same reasoning: the per-packet stream and the
     jitter root (each binding's jitter stream derives from it) joined
     after the storm stream. *)
  t_packet : Prng.t;
  t_jitter_root : Prng.t;
  t_jitter_streams : (int, Prng.t) Hashtbl.t;
  mutable t_timers : Engine.timer list;
}

(* NaN fails both comparisons, so it is rejected with the rest. *)
let validate s =
  let reject field v why =
    invalid_arg (Printf.sprintf "Plan.make: %s = %g %s" field v why)
  in
  List.iter
    (fun (field, p) ->
      if not (p >= 0.0 && p <= 1.0) then reject field p "is not in [0, 1]")
    [
      ("wire_drop", s.wire_drop);
      ("wire_reply_drop", s.wire_reply_drop);
      ("wire_duplicate", s.wire_duplicate);
      ("wire_delay", s.wire_delay);
      ("server_exn", s.server_exn);
      ("starvation", s.starvation);
      ("storm_reply_drop", s.storm_reply_drop);
      ("pkt_drop", s.pkt_drop);
      ("pkt_ecn", s.pkt_ecn);
      ("pkt_dup", s.pkt_dup);
      ("pkt_delay", s.pkt_delay);
    ];
  List.iter
    (fun (field, x) -> if not (x >= 0.0) then reject field x "is negative")
    (("wire_delay_mean_us", s.wire_delay_mean_us)
    :: ("starvation_us", s.starvation_us)
    :: ("pkt_delay_mean_us", s.pkt_delay_mean_us)
    :: List.map
         (fun (t_us, name) -> ("crash time of " ^ name, t_us))
         s.crashes);
  if not (s.storm_until_us >= s.storm_from_us) then
    reject "storm_until_us" s.storm_until_us "is before storm_from_us"

let make spec =
  validate spec;
  let root = Prng.create ~seed:spec.seed in
  let t_wire = Prng.split root in
  let _t_jitter = Prng.split root in
  let t_server = Prng.split root in
  let t_starve = Prng.split root in
  let t_storm = Prng.split root in
  let t_packet = Prng.split root in
  let t_jitter_root = Prng.split root in
  {
    t_spec = spec;
    t_wire;
    _t_jitter;
    t_server;
    t_starve;
    t_storm;
    t_packet;
    t_jitter_root;
    t_jitter_streams = Hashtbl.create 8;
    t_timers = [];
  }

let spec t = t.t_spec

let install t rt =
  let s = t.t_spec in
  let e = Lrpc_core.Api.engine rt in
  let k = Lrpc_core.Api.kernel rt in
  let m = Engine.metrics e in
  let wire_faults = Metrics.counter m "fault.wire_faults" in
  let server_exns = Metrics.counter m "fault.server_exns" in
  let crash_count = Metrics.counter m "fault.crashes" in
  let f_wire ~proc:_ ~seq:_ ~attempt:_ =
    (* Every verdict consumes the same number of draws whichever way it
       lands, so the wire stream stays aligned across outcomes. *)
    let request_lost = Prng.bernoulli t.t_wire ~p:s.wire_drop in
    let reply_lost = Prng.bernoulli t.t_wire ~p:s.wire_reply_drop in
    let duplicate = Prng.bernoulli t.t_wire ~p:s.wire_duplicate in
    let delayed = Prng.bernoulli t.t_wire ~p:s.wire_delay in
    let extra_us =
      if s.wire_delay > 0.0 then
        Prng.exponential t.t_wire ~mean:s.wire_delay_mean_us
      else 0.0
    in
    (* A retry-storm window: while the simulated clock is inside
       [storm_from_us, storm_until_us) the server is "slow" — replies
       are additionally lost with [storm_reply_drop], so clients pile on
       retransmissions. Drawn from its own stream, and only when the
       storm is configured, so storm-free plans keep their historical
       verdict sequences bit-identical. *)
    let storm_lost =
      s.storm_reply_drop > 0.0
      &&
      let now_us = Time.to_us (Engine.now e) in
      now_us >= s.storm_from_us
      && now_us < s.storm_until_us
      && Prng.bernoulli t.t_storm ~p:s.storm_reply_drop
    in
    let reply_lost = reply_lost || storm_lost in
    if request_lost || reply_lost || duplicate || delayed then
      Metrics.Counter.incr wire_faults;
    {
      Rt.wf_request_lost = request_lost;
      wf_reply_lost = reply_lost;
      wf_duplicate = duplicate;
      wf_extra_delay = (if delayed then Time.us_f extra_us else Time.zero);
    }
  in
  let f_packet ~proc:_ ~seq:_ ~pkt:_ ~attempt:_ =
    (* Same fixed-draw-count discipline as [f_wire]: each verdict
       consumes four bernoulli draws (plus the delay magnitude when the
       delay family is enabled) whichever way it lands. *)
    let lost = Prng.bernoulli t.t_packet ~p:s.pkt_drop in
    let ecn = Prng.bernoulli t.t_packet ~p:s.pkt_ecn in
    let dup = Prng.bernoulli t.t_packet ~p:s.pkt_dup in
    let delayed = Prng.bernoulli t.t_packet ~p:s.pkt_delay in
    let extra_us =
      if s.pkt_delay > 0.0 then
        Prng.exponential t.t_packet ~mean:s.pkt_delay_mean_us
      else 0.0
    in
    if lost || ecn || dup || delayed then Metrics.Counter.incr wire_faults;
    {
      Rt.pf_lost = lost;
      pf_ecn = ecn;
      pf_dup = dup;
      pf_delay = (if delayed then Time.us_f extra_us else Time.zero);
    }
  in
  (* Jitter stream for one binding: derived from the pristine jitter
     root by [binding] throw-away splits and one final split, so it is a
     pure function of (seed, binding id). Adding a binding — or calling
     through bindings in a different order — cannot perturb another
     binding's retransmit schedule. *)
  let jitter_stream binding =
    match Hashtbl.find_opt t.t_jitter_streams binding with
    | Some s -> s
    | None ->
        let r = Prng.copy t.t_jitter_root in
        for _ = 1 to binding do
          ignore (Prng.split r : Prng.t)
        done;
        let s = Prng.split r in
        Hashtbl.replace t.t_jitter_streams binding s;
        s
  in
  let f_backoff_jitter ~binding ~attempt:_ =
    Prng.float (jitter_stream binding) 0.5
  in
  let f_server_exn ~proc =
    if Prng.bernoulli t.t_server ~p:s.server_exn then begin
      Metrics.Counter.incr server_exns;
      Some (Injected_fault (proc ^ ": injected server fault"))
    end
    else None
  in
  let f_starvation ~proc:_ =
    if Prng.bernoulli t.t_starve ~p:s.starvation then
      Some (Time.us_f s.starvation_us)
    else None
  in
  rt.Rt.faults <-
    Some { Rt.f_wire; f_packet; f_backoff_jitter; f_server_exn; f_starvation };
  t.t_timers <-
    List.map
      (fun (t_us, name) ->
        Engine.at e (Time.us_f t_us) (fun () ->
            match
              List.find_opt
                (fun d -> d.Pdomain.name = name && Pdomain.active d)
                (Kernel.domains k)
            with
            | Some d ->
                Metrics.Counter.incr crash_count;
                Kernel.terminate_domain k d
            | None -> ()))
      s.crashes
    @ t.t_timers

let uninstall t rt =
  let e = Lrpc_core.Api.engine rt in
  rt.Rt.faults <- None;
  List.iter (Engine.cancel_timer e) t.t_timers;
  t.t_timers <- []
