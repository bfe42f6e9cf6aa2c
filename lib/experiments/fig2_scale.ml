module Time = Lrpc_sim.Time
module Chart = Lrpc_util.Chart
module Table = Lrpc_util.Table
module Profile = Lrpc_msgrpc.Profile
module Driver = Lrpc_workload.Driver

type point = {
  cpus : int;
  lrpc : float;
  lrpc_speedup : float;
  src : float;
  src_speedup : float;
  unbal : float;
  unbal_steals : int;
  unbal_steals_tagged : int;
  steals : int;
  steals_tagged : int;
  shard_contended : int;
  lrpc_spin_us : float;
  src_steals : int;
  src_steals_tagged : int;
  src_spin_us : float;
  src_lock_contended : int;
}

type cpu_row = {
  cr_steals : int;
  cr_tagged : int;
  cr_spin_us : float;
  cr_src_steals : int;
  cr_src_tagged : int;
  cr_src_spin_us : float;
}

type result = { points : point list; per_cpu : cpu_row array; horizon : Time.t }

let ladder max_cpus =
  List.filter (fun n -> n <= max_cpus) [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

(* The bus dilation caps aggregate throughput well before 64 processors,
   so the high rungs add host work (O(n) dispatch scans, n clients)
   without adding statistical information per unit horizon. Tapering the
   measurement window inversely with the rung keeps the full ladder
   affordable; calls/s is a rate, so points stay comparable. *)
let rung_horizon ~horizon n =
  if n <= 32 then horizon else Time.scale horizon (32.0 /. float_of_int n)

let run ?(max_cpus = 32) ?(horizon = Time.ms 250) () =
  let raw =
    List.map
      (fun n ->
        let horizon = rung_horizon ~horizon n in
        let config =
          { Driver.Config.default with Driver.Config.processors = n }
        in
        let l = Driver.lrpc_scale ~config ~clients:n ~horizon () in
        (* Same workload, pathological submission: every caller enters on
           processor 0 and only work stealing can spread the load. *)
        let u =
          Driver.lrpc_scale ~home:(fun _ -> 0) ~config ~clients:n ~horizon ()
        in
        let s = Driver.mpass_scale ~config Profile.src_rpc ~clients:n ~horizon in
        (n, l, u, s))
      (ladder max_cpus)
  in
  let base (_, l, _, s) = (l.Driver.ss_cps, s.Driver.ss_cps) in
  let lrpc1, src1 = base (List.hd raw) in
  let sum = Array.fold_left ( + ) 0 in
  let sumf = Array.fold_left ( +. ) 0.0 in
  let points =
    List.map
      (fun (n, l, u, s) ->
        {
          cpus = n;
          lrpc = l.Driver.ss_cps;
          lrpc_speedup = l.Driver.ss_cps /. lrpc1;
          src = s.Driver.ss_cps;
          src_speedup = s.Driver.ss_cps /. src1;
          unbal = u.Driver.ss_cps;
          unbal_steals = sum u.Driver.ss_steals;
          unbal_steals_tagged = sum u.Driver.ss_steals_tagged;
          steals = sum l.Driver.ss_steals;
          steals_tagged = sum l.Driver.ss_steals_tagged;
          shard_contended = l.Driver.ss_shard_contended;
          lrpc_spin_us = sumf l.Driver.ss_spin_us;
          src_steals = sum s.Driver.ss_steals;
          src_steals_tagged = sum s.Driver.ss_steals_tagged;
          src_spin_us = sumf s.Driver.ss_spin_us;
          src_lock_contended = s.Driver.ss_lock_contended;
        })
      raw
  in
  let _, _, u_last, s_last = List.nth raw (List.length raw - 1) in
  let per_cpu =
    Array.init
      (Array.length u_last.Driver.ss_steals)
      (fun i ->
        {
          cr_steals = u_last.Driver.ss_steals.(i);
          cr_tagged = u_last.Driver.ss_steals_tagged.(i);
          cr_spin_us = u_last.Driver.ss_spin_us.(i);
          cr_src_steals = s_last.Driver.ss_steals.(i);
          cr_src_tagged = s_last.Driver.ss_steals_tagged.(i);
          cr_src_spin_us = s_last.Driver.ss_spin_us.(i);
        })
  in
  { points; per_cpu; horizon }

let speedup_at r n =
  match List.find_opt (fun p -> p.cpus = n) r.points with
  | Some p -> Some p.lrpc_speedup
  | None -> None

let render r =
  let chart =
    Chart.create ~x_label:"number of processors" ~y_label:"calls per second" ()
  in
  let series f = List.map (fun p -> (float_of_int p.cpus, f p)) r.points in
  Chart.add_series chart ~name:"LRPC measured" (series (fun p -> p.lrpc));
  Chart.add_series chart ~name:"LRPC unbalanced" (series (fun p -> p.unbal));
  Chart.add_series chart ~name:"SRC RPC measured" (series (fun p -> p.src));
  let t =
    Table.create
      ~columns:
        [
          ("CPUs", Table.Right);
          ("LRPC calls/s", Table.Right);
          ("speedup", Table.Right);
          ("unbal calls/s", Table.Right);
          ("unbal steals", Table.Right);
          ("SRC calls/s", Table.Right);
          ("speedup", Table.Right);
          ("steals", Table.Right);
          ("shard cont.", Table.Right);
          ("LRPC spin us", Table.Right);
          ("SRC spin us", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.lrpc;
          Printf.sprintf "%.2f" p.lrpc_speedup;
          Printf.sprintf "%.0f" p.unbal;
          string_of_int (p.unbal_steals + p.unbal_steals_tagged);
          Printf.sprintf "%.0f" p.src;
          Printf.sprintf "%.2f" p.src_speedup;
          string_of_int (p.steals + p.steals_tagged);
          string_of_int p.shard_contended;
          Printf.sprintf "%.0f" p.lrpc_spin_us;
          Printf.sprintf "%.0f" p.src_spin_us;
        ])
    r.points;
  let max_point = List.nth r.points (List.length r.points - 1) in
  (* Past 32 CPUs the per-CPU rows stop being readable; show the first
     block and summarize the tail. *)
  let per_cpu_cap = 32 in
  let per_cpu_table =
    let t =
      Table.create
        ~columns:
          [
            ("CPU", Table.Right);
            ("LRPC steals", Table.Right);
            ("tagged", Table.Right);
            ("LRPC spin us", Table.Right);
            ("SRC steals", Table.Right);
            ("tagged", Table.Right);
            ("SRC spin us", Table.Right);
          ]
    in
    Array.iteri
      (fun i c ->
        if i < per_cpu_cap then
          Table.add_row t
            [
              string_of_int i;
              string_of_int c.cr_steals;
              string_of_int c.cr_tagged;
              Printf.sprintf "%.0f" c.cr_spin_us;
              string_of_int c.cr_src_steals;
              string_of_int c.cr_src_tagged;
              Printf.sprintf "%.0f" c.cr_src_spin_us;
            ])
      r.per_cpu;
    let body = Table.to_string t in
    if Array.length r.per_cpu > per_cpu_cap then
      Printf.sprintf "%s\n(first %d of %d CPUs shown)" body per_cpu_cap
        (Array.length r.per_cpu)
    else body
  in
  let at16 =
    match speedup_at r 16 with
    | Some s -> Printf.sprintf "LRPC speedup at 16 processors: %.2f\n" s
    | None -> ""
  in
  Printf.sprintf
    "Figure 2 (extended): Call Throughput Beyond Four Processors\n%s\n%s\n\
     %sLRPC speedup at %d processors: %.2f (shared bus caps the slope: \
     each executing processor stretches on-CPU work by the bus dilation \
     factor)\n\
     Unbalanced submission (every caller enters on CPU 0) reaches %.0f \
     calls/s at %d processors — %.0f%% of the pinned workload — because \
     the per-CPU run queues redistribute it by stealing (%d steals)\n\
     SRC RPC stays flat past ~2 processors: its global lock is held ~250 us \
     per call, so added processors only add spin\n\n\
     Per-processor breakdown at %d CPUs (unbalanced-LRPC and SRC runs; \
     work-steal dispatches and spin-wait):\n%s"
    (Chart.to_string chart) (Table.to_string t) at16 max_point.cpus
    max_point.lrpc_speedup max_point.unbal max_point.cpus
    (100.0 *. max_point.unbal /. max_point.lrpc)
    (max_point.unbal_steals + max_point.unbal_steals_tagged)
    max_point.cpus per_cpu_table

let to_json r =
  let point_json p =
    Printf.sprintf
      "{\"cpus\": %d, \"lrpc_cps\": %.1f, \"lrpc_speedup\": %.3f, \
       \"src_cps\": %.1f, \"src_speedup\": %.3f, \"unbal_cps\": %.1f, \
       \"unbal_steals\": %d, \"steals\": %d, \"steals_tagged\": %d, \
       \"shard_contended\": %d, \"lrpc_spin_us\": %.1f, \"src_steals\": %d, \
       \"src_spin_us\": %.1f, \"src_lock_contended\": %d}"
      p.cpus p.lrpc p.lrpc_speedup p.src p.src_speedup p.unbal
      (p.unbal_steals + p.unbal_steals_tagged)
      p.steals p.steals_tagged p.shard_contended p.lrpc_spin_us
      (p.src_steals + p.src_steals_tagged)
      p.src_spin_us p.src_lock_contended
  in
  Printf.sprintf
    "{\"experiment\": \"fig2_scale\", \"horizon_us\": %.0f, \"points\": [%s]}"
    (Time.to_us r.horizon)
    (String.concat ", " (List.map point_json r.points))
