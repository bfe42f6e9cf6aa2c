module Time = Lrpc_sim.Time
module Cost_model = Lrpc_sim.Cost_model
module Chart = Lrpc_util.Chart
module Table = Lrpc_util.Table
module Profile = Lrpc_msgrpc.Profile
module Driver = Lrpc_workload.Driver

type point = { cpus : int; lrpc : float; lrpc_optimal : float; src : float }

type result = {
  points : point list;
  lrpc_speedup_at_4 : float;
  microvax_speedup_at_5 : float;
}

let run ?(horizon = Time.ms 500) () =
  let procs n = { Driver.Config.default with Driver.Config.processors = n } in
  let lrpc_at n =
    Driver.lrpc_throughput ~config:(procs n) ~clients:n ~horizon ()
  in
  let src_at n =
    (* SRC needs processors for its receiver threads as well; the paper's
       measurement dedicates the machine, so give the server domain the
       same processors the callers run on. *)
    Driver.mpass_throughput ~config:(procs n) Profile.src_rpc ~clients:n
      ~horizon
  in
  let single = lrpc_at 1 in
  let points =
    List.init 4 (fun i ->
        let n = i + 1 in
        {
          cpus = n;
          lrpc = (if n = 1 then single else lrpc_at n);
          lrpc_optimal = float_of_int n *. single;
          src = src_at n;
        })
  in
  let at4 = (List.nth points 3).lrpc /. single in
  let microvax n =
    {
      (procs n) with
      Driver.Config.cost_model = Cost_model.microvax2_firefly;
    }
  in
  let mv1 =
    Driver.lrpc_throughput ~config:(microvax 1) ~clients:1 ~horizon ()
  in
  let mv5 =
    Driver.lrpc_throughput ~config:(microvax 5) ~clients:5 ~horizon ()
  in
  { points; lrpc_speedup_at_4 = at4; microvax_speedup_at_5 = mv5 /. mv1 }

let render r =
  let chart = Chart.create ~x_label:"number of processors" ~y_label:"calls per second" () in
  let series f = List.map (fun p -> (float_of_int p.cpus, f p)) r.points in
  Chart.add_series chart ~name:"LRPC optimal" (series (fun p -> p.lrpc_optimal));
  Chart.add_series chart ~name:"LRPC measured" (series (fun p -> p.lrpc));
  Chart.add_series chart ~name:"SRC RPC measured" (series (fun p -> p.src));
  let t =
    Table.create
      ~columns:
        [
          ("CPUs", Table.Right);
          ("LRPC calls/s", Table.Right);
          ("LRPC optimal", Table.Right);
          ("SRC RPC calls/s", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.lrpc;
          Printf.sprintf "%.0f" p.lrpc_optimal;
          Printf.sprintf "%.0f" p.src;
        ])
    r.points;
  Printf.sprintf
    "Figure 2: Call Throughput on a Multiprocessor\n%s\n%s\n\
     LRPC speedup at 4 processors: %.2f (paper: 3.7, ~23,000 calls/s from \
     ~6,300)\nMicroVAX II Firefly speedup at 5 processors: %.2f (paper: 4.3)\n\
     SRC RPC levels off near 4,000 calls/s: global lock held ~250 us/call \
     (paper: ~4,000 with two processors)\n"
    (Chart.to_string chart) (Table.to_string t) r.lrpc_speedup_at_4
    r.microvax_speedup_at_5
