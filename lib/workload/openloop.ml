module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Prng = Lrpc_util.Prng
module Qsketch = Lrpc_util.Qsketch

type process =
  | Poisson
  | Bursty of {
      burst_mult : float;
      mean_burst : Time.t;
      mean_idle : Time.t;
    }

type config = {
  ol_seed : int64;
  ol_sessions : int;
  ol_offered_cps : float;
  ol_process : process;
  ol_horizon : Time.t;
  ol_warmup : Time.t;
}

(* A stream is a piecewise-constant-rate Poisson process: one phase for
   Poisson proper, alternating exponentially-timed burst/idle phases
   for the MMPP. Gaps are generated by inverting the accumulated
   hazard: draw a unit-mean exponential "amount of hazard" and advance
   time through phases until it is spent. All state is in float
   microseconds, in a record of floats only, whose fields hold their
   floats unboxed: storing the phase's time left allocates nothing. *)
type phase = {
  burst_rate : float; (* arrivals per us while bursting *)
  idle_rate : float; (* arrivals per us while idle *)
  mean_burst_us : float; (* 0 for Poisson: never leaves the phase *)
  mean_idle_us : float;
  mutable left_us : float;
}

type stream = { rng : Prng.t; mutable in_burst : bool; ph : phase }

let stream_of_process rng ~rate_per_us = function
  | Poisson ->
      {
        rng;
        in_burst = true;
        ph =
          {
            burst_rate = rate_per_us;
            idle_rate = rate_per_us;
            mean_burst_us = 0.0;
            mean_idle_us = 0.0;
            left_us = infinity;
          };
      }
  | Bursty { burst_mult; mean_burst; mean_idle } ->
      if burst_mult < 1.0 then
        invalid_arg "Openloop: burst_mult must be >= 1";
      let tb = Time.to_us mean_burst and ti = Time.to_us mean_idle in
      if not (tb > 0.0 && ti > 0.0) then
        invalid_arg "Openloop: burst/idle phases must be positive";
      let cycle = tb +. ti in
      (* Mean preservation: burst_rate*tb + idle_rate*ti = rate*cycle.
         When the requested burst rate alone exceeds the budget, the
         source becomes pure on/off and the burst rate is renormalized
         so the mean offered load is still exact. *)
      let burst_rate = ref (burst_mult *. rate_per_us) in
      let idle_rate =
        ((rate_per_us *. cycle) -. (!burst_rate *. tb)) /. ti
      in
      let idle_rate =
        if idle_rate < 0.0 then begin
          burst_rate := rate_per_us *. cycle /. tb;
          0.0
        end
        else idle_rate
      in
      (* Stationary initial phase: in a burst with probability
         tb / cycle; the residual phase time is exponential again by
         memorylessness. *)
      let in_burst = Prng.bernoulli rng ~p:(tb /. cycle) in
      let left_us =
        Prng.exponential rng ~mean:(if in_burst then tb else ti)
      in
      {
        rng;
        in_burst;
        ph =
          {
            burst_rate = !burst_rate;
            idle_rate;
            mean_burst_us = tb;
            mean_idle_us = ti;
            left_us;
          };
      }

let streams cfg =
  if cfg.ol_sessions <= 0 then invalid_arg "Openloop: no sessions";
  if not (cfg.ol_offered_cps > 0.0) then
    invalid_arg "Openloop: offered load must be positive";
  let master = Prng.create ~seed:cfg.ol_seed in
  let rate_per_us =
    cfg.ol_offered_cps /. float_of_int cfg.ol_sessions /. 1e6
  in
  (* Split in session order: stream i is a function of (seed, i) only,
     independent of how sessions are later placed or scheduled. *)
  Array.init cfg.ol_sessions (fun _ ->
      stream_of_process (Prng.split master) ~rate_per_us cfg.ol_process)

let next_gap s =
  let ph = s.ph in
  let gap = ref 0.0 in
  let need = ref (Prng.exponential s.rng ~mean:1.0) in
  let fin = ref false in
  while not !fin do
    let rate = if s.in_burst then ph.burst_rate else ph.idle_rate in
    if rate > 0.0 && !need <= ph.left_us *. rate then begin
      let dt = !need /. rate in
      ph.left_us <- ph.left_us -. dt;
      gap := !gap +. dt;
      fin := true
    end
    else begin
      (* Spend the rest of this phase and roll into the next. *)
      if rate > 0.0 then need := !need -. (ph.left_us *. rate);
      gap := !gap +. ph.left_us;
      s.in_burst <- not s.in_burst;
      ph.left_us <-
        Prng.exponential s.rng
          ~mean:(if s.in_burst then ph.mean_burst_us else ph.mean_idle_us)
    end
  done;
  !gap

type report = {
  ol_issued : int;
  ol_completed : int;
  ol_shed : int;
  ol_measured : int;
  ol_achieved_cps : float;
  ol_mean_us : float;
  ol_sketch : Qsketch.t;
}

(* A session's next scheduled arrival, in microseconds: the one field
   of a float-only record, so storing it allocates nothing. *)
type arrival = { mutable at_us : float }

let run cfg ~engine ~spawn ~call =
  let ss = streams cfg in
  let horizon_us = Time.to_us cfg.ol_horizon in
  let warmup_us = Time.to_us cfg.ol_warmup in
  if not (horizon_us > warmup_us) then
    invalid_arg "Openloop: horizon must be past warmup";
  let issued = ref 0 and completed = ref 0 and shed = ref 0 in
  let sketch = Qsketch.create () in
  (* A session is a chain of arrival steps, built once per session:
     [step] draws the next arrival and rests until it, so a session
     holds no fiber between arrivals, and [arrive] makes the call due
     and steps on. *)
  let session i =
    let stream = ss.(i) in
    let next = { at_us = 0.0 } in
    let rec step () =
      next.at_us <- next.at_us +. next_gap stream;
      if next.at_us > horizon_us then ()
      else begin
        let target = Time.us_f next.at_us in
        (* Past-due arrivals (the session fell behind) fire
           immediately — that backlog is the open-loop signal. *)
        if Time.compare target (Engine.now engine) > 0 then
          (* Rest without occupying a simulated processor: sessions
             waiting for their next arrival must not look like load. *)
          Engine.rest_until engine target arrive
        else arrive ()
      end
    and arrive () =
      incr issued;
      (* How far past its scheduled arrival this call is starting:
         run-queue wait after the wake, plus the session's own backlog.
         This is the part of a call's deadline budget that is already
         spent before the stub is even entered — the system under test
         can refuse a too-stale call at the door instead of doing work
         whose deadline has already passed. *)
      let lateness_us =
        Float.max 0.0 (Time.to_us (Engine.now engine) -. next.at_us)
      in
      (* A shed arrival is goodput lost, not latency observed: it is
         counted, but neither completed nor measured — the admitted
         calls' quantiles are the "bounded p99" the shedding ablation
         is about. *)
      (match call ~session:i ~lateness_us with
      | `Ok ->
          incr completed;
          if next.at_us >= warmup_us then begin
            let lat_us = Time.to_us (Engine.now engine) -. next.at_us in
            Qsketch.add sketch (int_of_float (Float.round lat_us))
          end
      | `Shed -> incr shed);
      step ()
    in
    step ()
  in
  for i = 0 to cfg.ol_sessions - 1 do
    spawn ~session:i (fun () -> session i)
  done;
  Engine.run ~until:cfg.ol_horizon engine;
  Engine.check_failures ~what:"open-loop session" engine;
  let measured = Qsketch.count sketch in
  let window_s = (horizon_us -. warmup_us) /. 1e6 in
  {
    ol_issued = !issued;
    ol_completed = !completed;
    ol_shed = !shed;
    ol_measured = measured;
    ol_achieved_cps = float_of_int measured /. window_s;
    ol_mean_us = Qsketch.mean sketch;
    ol_sketch = sketch;
  }
