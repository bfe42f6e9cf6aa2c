(* The two measurements of one workload — end to end and per layer —
   and the checks that make their numbers trustworthy. Each prints
   `workload metric value unit` lines as it goes and returns an
   outcome for the final JSON object. *)

type metric = { name : string; value : float; unit : string }

type outcome = {
  metrics : metric list;
  attempted : int;  (** simulated calls attempted *)
  failed : int;  (** calls that returned [Error _] or a wrong result *)
  checks : (string * bool) list;  (** every correctness check made *)
}

let line w name value unit = Printf.printf "%s %s %.6g %s\n%!" w name value unit

(* --- paper pins ----------------------------------------------------------- *)

(* The chaos-soak trace digest and the md5 of the `t4 t5 --quick`
   rendering, as `make check` pins them: the SRC RPC and classic
   Netrpc rows that no workload times are checked here. *)
let chaos_digest = "5eeba0661c190ff27d10f0b0154ef27c"
let t45_digest = "8da7f56177c9c5c4908222de5c262ccd"

let paper_pins () =
  let soak = Lrpc_fault.Soak.run Lrpc_fault.Soak.default in
  let t45 =
    String.concat ""
      (List.map
         (fun n -> Lrpc_experiments.Suite.run ~seed:1989L ~quick:true n ^ "\n\n")
         [ "t4"; "t5" ])
  in
  [
    ("chaos soak invariants", Lrpc_fault.Soak.ok soak);
    ("chaos digest pin", soak.Lrpc_fault.Soak.r_digest = chaos_digest);
    ("t4/t5 rendering pin", Digest.to_hex (Digest.string t45) = t45_digest);
  ]

(* --- shared ---------------------------------------------------------------- *)

let seconds_of_ns ns = float_of_int ns /. 1e9

(* Set-up alone, repeated: from a collected heap, batches of ten builds
   (one under --quick) back to back, each batch followed by one
   reference run that normalizes it, until [budget_ns] is spent (at
   least one batch, at most 10,000 builds). Back to back, a build finds the caches as the
   previous one left them and pays the GC for its own garbage at the
   steady rate, so what is timed is the set-up's own work. A lone build
   right after a full collection also pays for cache misses whose cost
   moves with what other tenants do to the shared caches, which the
   reference kernel tracks poorly (see README). Each element holds the
   normalized seconds of the whole set-up and of its four phases. *)
let setup_runs w ~quick ~seed ~horizon ~budget_ns =
  Gc.full_major ();
  let t0 = Clock.now_ns () and runs = ref [] and builds = ref 0 in
  while
    !builds = 0
    || (!builds < 10_000 && float_of_int (Clock.now_ns () - t0) < budget_ns)
  do
    let batch =
      List.init (if quick then 1 else 10) (fun _ ->
          Bench.run ~setup_only:true w ~quick ~seed ~horizon)
    in
    let ref_us = float_of_int (Clock.reference_ns ()) /. 1000.0 in
    let f = Clock.setup_factor ~ref_us in
    List.iter
      (fun (r : Bench.rep) ->
        let all = Array.append [| r.setup_ns |] r.phases_ns in
        runs := Array.map (fun ns -> f *. seconds_of_ns ns) all :: !runs)
      batch;
    builds := !builds + List.length batch
  done;
  !runs

let setup_median runs i = Clock.median (List.map (fun a -> a.(i)) runs)

(* [pinned]: whether the run's horizon is one the digest pins cover. *)
let rep_checks (w : Workloads.t) ~quick ~seed ~pinned ~expect (r : Bench.rep) =
  [
    (w.name ^ " digest repeats", r.digest = expect);
    (w.name ^ " no failed calls", r.c.failed = 0);
    (w.name ^ " results correct", r.c.wrong = 0);
  ]
  @
  if pinned && seed = Workloads.default_seed then
    [ (w.name ^ " digest pin", r.digest = Workloads.pinned w ~quick) ]
  else []

let tally (reps : Bench.rep list) =
  List.fold_left
    (fun (a, f) (r : Bench.rep) -> (a + r.c.attempted, f + r.c.failed + r.c.wrong))
    (0, 0) reps

(* --- end to end ------------------------------------------------------------ *)

(* Full-horizon repetitions of one run: a count fixed by [seconds]
   alone — one per 4 s, so 5 at the default 20 s, 1 under --quick —
   never by how fast they go. Two commits are then compared over the
   same number of samples, and a faster one does not get a lower
   minimum just by fitting more repetitions in. *)
let repetitions ~quick ~seconds = if quick then 1 else max 1 (int_of_float (seconds /. 4.0))

(* Peak live heap: one more run, untimed and over the per-layer
   horizon (a tenth of a repetition's), that collects the heap fully at
   every tenth sampler tick and keeps the largest live size. The
   process's [top_heap_words] also counts the garbage the major GC had
   not freed yet when the heap peaked, and where the GC cycle stands at
   that moment depends on the seed: erpc_lossy's top heap ranged over
   25-38 MB across 20 seeds, while its live peak stayed within 1%. *)
let heap_pass w ~quick ~seed =
  let horizon = Workloads.layer_horizon w ~quick in
  let peak = ref 0 and ticks = ref 0 in
  let on_tick _ _ =
    incr ticks;
    if !ticks mod 10 = 0 then begin
      Gc.full_major ();
      peak := max !peak (Gc.stat ()).Gc.live_words
    end
  in
  let r = Bench.run ~on_tick w ~quick ~seed ~horizon in
  (r, float_of_int (!peak * (Sys.word_size / 8)) /. 1e6)

(* [repetitions] full-horizon repetitions, each in a freshly collected
   heap, then the heap pass. Set-up alone for a twentieth of [seconds],
   in equal slices before each repetition and after the last, so that
   its median samples the whole run's host conditions, not its first
   second.

   Other tenants of a shared host slow the simulator in episodes that
   last seconds, by up to 1.8x, and the reference kernel tracks only
   part of that. So the host-time metrics are robust to episodes: both
   take each window at its least disturbed repetition
   ([Sampler.envelope]); [host_ns_per_call] is their mean per call and
   [host_ns_per_call_p25] the first quartile of their ns per call. The
   best, median and worst repetition, the raw mean and the median
   window are printed beside them. *)
let end_to_end (w : Workloads.t) ~quick ~seed ~seconds =
  let horizon = Workloads.horizon w ~quick and r = repetitions ~quick ~seconds in
  let slices = ref [] in
  let setup_slice () =
    let budget_ns = seconds *. 1e9 /. 20.0 /. float_of_int (r + 1) in
    slices := setup_runs w ~quick ~seed ~horizon ~budget_ns :: !slices
  in
  let reps =
    List.init r (fun _ ->
        setup_slice ();
        Gc.full_major ();
        Bench.run w ~quick ~seed ~horizon)
  in
  setup_slice ();
  (* Reduced before the heap pass: the lists' length depends on host
     speed, and they would be live there. *)
  let setup_s = setup_median (List.concat !slices) 0 in
  slices := [];
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let heap_rep, peak_mb = heap_pass w ~quick ~seed in
  let expect = (List.hd reps).digest in
  let w0 = Gc.minor_words () in
  ignore (Clock.reference_ns ());
  let ref_words = Gc.minor_words () -. w0 in
  let checks =
    ("reference kernel allocates nothing", ref_words = 0.0)
    :: List.concat_map (rep_checks w ~quick ~seed ~pinned:true ~expect) reps
    @ rep_checks w ~quick ~seed ~pinned:quick ~expect:heap_rep.digest heap_rep
  in
  let sums = List.filter_map (fun (r : Bench.rep) -> r.summary) reps in
  let get f = List.map f sums in
  let ns = get (fun s -> s.Sampler.ns_per_call) in
  let windows = List.concat_map (fun s -> Sampler.window_ns_per_call [ s ]) sums in
  let metrics =
    [
      { name = "host_ns_per_call"; value = Sampler.envelope sums; unit = "ns" };
      {
        name = "host_ns_per_call_p25";
        value = Clock.quantile (Sampler.window_ns_per_call sums) 0.25;
        unit = "ns";
      };
      {
        name = "alloc_words_per_call";
        value = Clock.median (get (fun s -> s.Sampler.words_per_call));
        unit = "words";
      };
      { name = "peak_heap_mb"; value = peak_mb; unit = "MB" };
      { name = "setup_s"; value = setup_s; unit = "s" };
    ]
  in
  let n = w.name in
  List.iter (fun m -> line n m.name m.value m.unit) metrics;
  (* Across repetitions: the normalized mean, the raw mean and the
     reference time, each with its spread, (max - min) / median. *)
  let raw = get (fun s -> s.Sampler.raw_ns) and refs = get (fun s -> s.Sampler.ref_us) in
  let spread xs =
    (List.fold_left Float.max neg_infinity xs -. List.fold_left Float.min infinity xs)
    /. Clock.median xs
  in
  line n "host_ns_per_call.best_rep" (List.fold_left Float.min infinity ns) "ns";
  line n "host_ns_per_call.median" (Clock.median ns) "ns";
  line n "host_ns_per_call.max" (List.fold_left Float.max neg_infinity ns) "ns";
  line n "host_ns_per_call.spread" (spread ns) "frac";
  line n "host_ns_per_call.raw" (Clock.median raw) "ns";
  line n "host_ns_per_call.raw.spread" (spread raw) "frac";
  line n "host_ns_per_call_p50" (Clock.median windows) "ns";
  line n "peak_heap_mb.top" (float_of_int (top * (Sys.word_size / 8)) /. 1e6) "MB";
  line n "ref_us.median" (Clock.median refs) "us";
  line n "ref_us.spread" (spread refs) "frac";
  line n "ref_words" ref_words "words";
  line n "reps" (float_of_int (List.length reps)) "count";
  line n "calls_per_rep" (float_of_int (List.hd sums).Sampler.calls) "count";
  Printf.printf "%s digest %s\n" n expect;
  let attempted, failed = tally (heap_rep :: reps) in
  { metrics; attempted; failed; checks }

(* --- per layer --------------------------------------------------------------- *)

(* Every primitive, sharing three quarters of the run's seconds. *)
let measure_prims ~seconds =
  let budget_ns = int_of_float (seconds *. 1e9 *. 0.75) / List.length Prims.all in
  List.map (fun p -> (p, Prims.measure ~budget_ns p)) Prims.all

let prim_metrics prims =
  List.concat_map
    (fun ((p : Prims.t), (r : Prims.result)) ->
      [
        { name = Printf.sprintf "prim.%s.ns" p.name; value = r.Prims.ns; unit = "ns" };
        {
          name = Printf.sprintf "prim.%s.words" p.name;
          value = r.Prims.words;
          unit = "words";
        };
      ])
    prims

(* An untraced and a traced pass over a tenth of the horizon, and the
   set-up phases timed alone. *)
let per_layer ~prims (w : Workloads.t) ~quick ~seed ~seconds =
  let horizon = Workloads.layer_horizon w ~quick in
  let setups = setup_runs w ~quick ~seed ~horizon ~budget_ns:(seconds *. 1e9 /. 20.0) in
  Gc.full_major ();
  let urep, c0, c1, gc_ns = Layers.untraced w ~quick ~seed ~horizon in
  Gc.full_major ();
  let trep, ev = Layers.traced w ~quick ~seed ~horizon in
  let checks =
    [
      (w.name ^ " traced digest = untraced digest", trep.digest = urep.digest);
      (w.name ^ " no trace events dropped", ev.Layers.dropped = 0);
    ]
    @ List.concat_map
        (rep_checks w ~quick ~seed ~pinned:quick ~expect:urep.digest)
        [ urep; trep ]
  in
  let us = Option.get urep.summary and ts = Option.get trep.summary in
  let per x = float_of_int x /. float_of_int ts.Sampler.calls in
  let uper x = float_of_int x /. float_of_int us.Sampler.calls in
  let phase i = setup_median setups (i + 1) in
  let delay_ns =
    (snd (List.find (fun ((p : Prims.t), _) -> p.name = "engine_delay") prims)).Prims.ns
  in
  let m name value unit = { name; value; unit } in
  let metrics =
    [
      m "sim.slices_per_call" (per ev.slices) "count";
      m "sim.dispatches_per_call" (per ev.dispatches) "count";
      m "sim.blocks_per_call" (per ev.blocks) "count";
      m "sim.wakes_per_call" (per ev.wakes) "count";
      m "sim.steals_per_call" (uper (c1.Layers.steals - c0.Layers.steals)) "count";
      m "sim.lock_contends_per_call" (per ev.lock_contends) "count";
      (* The simulator's Table 5 "minimum": every charged slice at the
         cost of a bare engine delay, as a share of the measured cost. *)
      m "sim.floor_frac" (per ev.slices *. delay_ns /. us.Sampler.ns_per_call) "frac";
      m "kernel.traps_per_call" (per ev.traps) "count";
      m "kernel.switches_per_call" (per ev.switches) "count";
      m "kernel.exchanges_per_call" (per ev.exchanges) "count";
      m "core.copies_per_call" (per ev.copies) "count";
      m "core.copy_bytes_per_call" (per ev.copy_bytes) "bytes";
      m "core.astack_waits_per_call"
        (uper (c1.Layers.astack_waits - c0.Layers.astack_waits))
        "count";
      m "net.packets_per_call" (per ev.packets) "count";
      m "net.retransmits_per_call" (per ev.retransmits) "count";
      m "net.credit_stalls_per_call"
        (uper (c1.Layers.credit_stalls - c0.Layers.credit_stalls))
        "count";
      (* 1 when nothing is sent: no packet was wasted. *)
      m "net.useful_pkt_frac"
        (if ev.packets = 0 then 1.0
         else float_of_int (ev.packets - ev.retransmits) /. float_of_int ev.packets)
        "frac";
      m "obs.events_per_call" (per ev.total) "count";
      m "obs.trace_overhead_frac"
        ((ts.Sampler.ns_per_call /. us.Sampler.ns_per_call) -. 1.0)
        "frac";
      m "gc.promoted_words_per_call"
        ((c1.Layers.promoted_words -. c0.Layers.promoted_words)
        /. float_of_int us.Sampler.calls)
        "words";
      m "gc.minor_gcs_per_kcall"
        (1e3 *. uper (c1.Layers.minor_gcs - c0.Layers.minor_gcs))
        "count";
      m "gc.major_cycles_per_mcall"
        (1e6 *. uper (c1.Layers.major_cycles - c0.Layers.major_cycles))
        "count";
      m "gc.time_frac"
        (float_of_int gc_ns /. (us.Sampler.raw_ns *. float_of_int us.Sampler.calls))
        "frac";
      m "gc.window_p99_ns_per_call"
        (Clock.quantile (Sampler.window_ns_per_call [ us ]) 0.99)
        "ns";
      m "setup.boot_s" (phase 0) "s";
      m "setup.domains_s" (phase 1) "s";
      m "setup.bind_s" (phase 2) "s";
      m "setup.spawn_s" (phase 3) "s";
    ]
    @ prim_metrics prims
  in
  List.iter (fun mt -> line w.name mt.name mt.value mt.unit) metrics;
  line w.name "untraced.host_ns_per_call" us.Sampler.ns_per_call "ns";
  let attempted, failed = tally [ urep; trep ] in
  { metrics; attempted; failed; checks }
