(* The host-time sampler: an engine timer that fires every [period] of
   simulated time and records the host clock and the completed-call
   count. It reads host state only, so it cannot change what the
   simulation computes (test_lrpcbench checks the digests with it on,
   off, and at two periods).

   The first tick is scheduled at simulated time 0 right after boot, so
   it is the first event [Engine.run] processes: its host time marks
   the end of set-up. Ticks before [warmup] are not timed. From the
   warmup tick on, every tick also runs the reference kernel, and each
   window between two ticks is normalized by the mean of the two
   reference times around it. The sampler's own work at a tick — the
   reference kernel and [on_tick] — is left out of the clock. *)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time

exception Setup_done

(* Where a tick falls: the window a tick closes is timed only once the
   warmup tick has passed. *)
type phase = Before_warmup | At_warmup | Measured

type t = {
  engine : Engine.t;
  period : Time.t;
  horizon : Time.t;
  warmup : Time.t;
  calls : unit -> int;
  on_tick : phase -> unit;
  setup_only : bool;
  clock : int array;  (** host ns at each tick, the sampler's own time excluded *)
  count : int array;  (** completed calls at each tick *)
  refs : int array;  (** reference-kernel ns at each tick from warmup on *)
  mutable n : int;
  mutable warm : int;  (** index of the warmup tick, -1 before it *)
  words : float array;  (** minor words at the warmup tick and at the end *)
  mutable own_ns : int;  (** reference-kernel and [on_tick] ns so far *)
}

(* Record tick [n]: clock and count first, then the reference kernel. *)
let record s =
  let i = s.n in
  s.clock.(i) <- Clock.now_ns () - s.own_ns;
  s.count.(i) <- s.calls ();
  s.n <- i + 1;
  if s.warm >= 0 then begin
    let d = Clock.reference_ns () in
    s.refs.(i) <- d;
    s.own_ns <- s.own_ns + d
  end

let run_on_tick s phase =
  let t0 = Clock.now_ns () in
  s.on_tick phase;
  s.own_ns <- s.own_ns + (Clock.now_ns () - t0)

let rec tick s k () =
  if s.setup_only then begin
    record s;
    raise Setup_done
  end;
  let phase =
    if s.warm >= 0 then Measured
    else if Engine.now s.engine >= s.warmup then begin
      s.warm <- s.n;
      s.words.(0) <- Gc.minor_words ();
      At_warmup
    end
    else Before_warmup
  in
  record s;
  run_on_tick s phase;
  let next = (k + 1) * s.period in
  if next <= s.horizon then ignore (Engine.at s.engine next (tick s (k + 1)))

let attach ?(setup_only = false) ?(on_tick = fun _ -> ()) engine ~period
    ~horizon ~calls =
  let ticks = (horizon / period) + 2 in
  (* The first 5% of the horizon, rounded up to a whole window. *)
  let warmup = (horizon / 20 + period - 1) / period * period in
  let s =
    {
      engine;
      period;
      horizon;
      warmup;
      calls;
      on_tick;
      setup_only;
      clock = Array.make ticks 0;
      count = Array.make ticks 0;
      refs = Array.make ticks 0;
      n = 0;
      warm = -1;
      words = Array.make 2 0.0;
      own_ns = 0;
    }
  in
  ignore (Engine.at engine Time.zero (tick s 0));
  s

(* Close the last window when [Engine.run] returns. *)
let finish s =
  s.words.(1) <- Gc.minor_words ();
  record s;
  run_on_tick s Measured

let setup_end_ns s = s.clock.(0)

(* What one run of a workload measured. *)
type summary = {
  calls : int;  (** completed after warmup *)
  raw_ns : float;  (** host ns per call, reference time excluded *)
  ns_per_call : float;  (** the same with every window normalized *)
  window_ns : float array;  (** normalized ns of each window, in order *)
  window_calls : int array;  (** calls completed in each window *)
  ref_us : float;  (** median reference-kernel time *)
  words_per_call : float;
}

let summary s =
  if s.warm < 0 || s.n - 1 <= s.warm then
    failwith "sampler: horizon ends before warmup";
  let last = s.n - 1 in
  let calls = s.count.(last) - s.count.(s.warm) in
  if calls <= 0 then failwith "sampler: no calls completed after warmup";
  let window_ns = Array.make (last - s.warm) 0.0 in
  let window_calls = Array.make (last - s.warm) 0 in
  for i = s.warm + 1 to last do
    let ref_us = float_of_int (s.refs.(i - 1) + s.refs.(i)) /. 2000.0 in
    let ns = float_of_int (s.clock.(i) - s.clock.(i - 1)) *. Clock.factor ~ref_us in
    window_ns.(i - s.warm - 1) <- ns;
    window_calls.(i - s.warm - 1) <- s.count.(i) - s.count.(i - 1)
  done;
  {
    calls;
    raw_ns = float_of_int (s.clock.(last) - s.clock.(s.warm)) /. float_of_int calls;
    ns_per_call = Array.fold_left ( +. ) 0.0 window_ns /. float_of_int calls;
    window_ns;
    window_calls;
    ref_us =
      Clock.median
        (List.init (last - s.warm + 1) (fun j ->
             float_of_int s.refs.(s.warm + j) /. 1000.0));
    words_per_call = (s.words.(1) -. s.words.(0)) /. float_of_int calls;
  }

(* Window [i]'s normalized ns at its least disturbed run among [sums].
   Runs of one workload and seed compute the same simulation, so window
   i is the same work in each; another tenant's burst, which lasts
   seconds, rarely hits the same window in every run. *)
let fastest sums i = List.fold_left (fun m s -> Float.min m s.window_ns.(i)) infinity sums

(* Host ns per call with each window at its least disturbed run. *)
let envelope = function
  | [] -> nan
  | first :: _ as sums ->
      let total = ref 0.0 in
      Array.iteri (fun i _ -> total := !total +. fastest sums i) first.window_ns;
      !total /. float_of_int first.calls

(* Normalized ns per call of each window that completed calls, at its
   least disturbed run: one run's own windows when [sums] is one run. *)
let window_ns_per_call = function
  | [] -> []
  | first :: _ as sums ->
      List.concat
        (List.init (Array.length first.window_ns) (fun i ->
             let dc = first.window_calls.(i) in
             if dc = 0 then [] else [ fastest sums i /. float_of_int dc ]))
