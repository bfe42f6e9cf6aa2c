module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Mpass = Lrpc_msgrpc.Mpass
module Profile = Lrpc_msgrpc.Profile
module Netrpc = Lrpc_net.Netrpc
module Driver = Lrpc_workload.Driver
module Ol = Lrpc_workload.Openloop
module Qsketch = Lrpc_util.Qsketch
module Chart = Lrpc_util.Chart
module Table = Lrpc_util.Table

type point = {
  op_offered_cps : float;
  op_achieved_cps : float;
  op_issued : int;
  op_completed : int;
  op_shed : int;
  op_measured : int;
  op_p50_us : int;
  op_p99_us : int;
  op_p999_us : int;
  op_mean_us : float;
}

type curve = {
  oc_system : string;
  oc_capacity_cps : float;
  oc_knee_cps : float option;
  oc_points : point list;
}

type result = {
  or_seed : int64;
  or_processors : int;
  or_sessions : int;
  or_horizon : Time.t;
  or_warmup : Time.t;
  or_curves : curve list;
}

type params = {
  seed : int64;
  processors : int;
  sessions : int;
  session_domains : int;
  horizon : Time.t;
  warmup : Time.t;
  fractions : float list;
  capacity_clients : int;
  capacity_horizon : Time.t;
}

let params ~seed ~quick =
  if quick then
    {
      seed;
      processors = 4;
      sessions = 400;
      session_domains = 50;
      horizon = Time.ms 250;
      warmup = Time.ms 50;
      fractions = [ 0.25; 0.55; 0.85; 1.1; 1.35 ];
      capacity_clients = 64;
      capacity_horizon = Time.ms 100;
    }
  else
    {
      seed;
      processors = 4;
      sessions = 2000;
      session_domains = 200;
      horizon = Time.ms 1000;
      warmup = Time.ms 200;
      fractions = [ 0.2; 0.4; 0.6; 0.75; 0.85; 0.95; 1.05; 1.25 ];
      capacity_clients = 64;
      capacity_horizon = Time.ms 250;
    }

(* A system under test, reduced to what the open-loop generator needs:
   place a session body in its protection domain, and issue one call on
   its behalf. Each sweep point (and the capacity anchor) gets a fresh
   world, so no state leaks between points. *)
type world = {
  w_engine : Engine.t;
  w_spawn : session:int -> (unit -> unit) -> unit;
  w_call : session:int -> lateness_us:float -> [ `Ok | `Shed ];
}

let config_of p =
  { Driver.Config.default with Driver.Config.processors = p.processors }

(* LRPC: one server domain exporting the Bench interface, sessions
   spread over [session_domains] client domains. Sessions in the same
   domain share its binding — and therefore its A-stack pool, whose
   FIFO checkout is the per-domain back-pressure under overload.
   [admission] installs an overload-control policy on the runtime (the
   shedding ablation's "on" arm); a refused call surfaces as [`Shed].
   [astacks] shrinks the served procedure's A-stack pool (the paper's
   §3.3 per-procedure sizing): with the pool at the server's true
   concurrency, overload surfaces as a FIFO of blocked waiters at the
   checkout path — the queue the admission policy's depth bound and
   sojourn target act on. With the default pool, calls on a 4-CPU
   engine never exhaust 5 A-stacks and overload hides in the CPU run
   queue instead, where no admission signal can see it.
   [lateness_budget] is the client half of overload control, the
   deadline-propagation rule: a call that starts more than the budget
   past its scheduled arrival has already missed any deadline it could
   have carried, so the stub refuses it locally at zero cost — exactly
   how an RPC client fails a call whose propagated deadline has expired
   without ever dialing. Server-side admission alone cannot do this:
   the arrears live in the client, before any runtime state is
   touched. *)
let lrpc_world ?admission ?astacks ?lateness_budget ?cost_model ?home_of p
    ~sessions =
  let config =
    match cost_model with
    | None -> config_of p
    | Some cm -> { (config_of p) with Driver.Config.cost_model = cm }
  in
  let b = Driver.boot { config with Driver.Config.admission } in
  let kernel = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain kernel ~name:"ol-server" in
  let iface, impls =
    match astacks with
    | None -> (Driver.bench_interface, Driver.bench_impls)
    | Some n ->
        ( Lrpc_idl.Types.interface "Bench"
            [ Lrpc_idl.Types.proc ~astacks:n "null" [] ],
          [ ("null", fun _ -> []) ] )
  in
  ignore (Api.export rt ~domain:server iface ~impls);
  let n_domains = min p.session_domains sessions in
  let domains =
    Array.init n_domains (fun d ->
        Kernel.create_domain kernel ~name:(Printf.sprintf "ol-client%d" d))
  in
  let bindings =
    Array.map (fun d -> Api.import rt ~domain:d ~interface:"Bench") domains
  in
  {
    w_engine = b.Driver.bt_engine;
    w_spawn =
      (fun ~session body ->
        let home =
          match home_of with
          | None -> session mod p.processors
          | Some f -> f session
        in
        ignore
          (Kernel.spawn kernel
             domains.(session mod n_domains)
             ~home
             ~name:(Printf.sprintf "ol-session%d" session)
             body));
    w_call =
      (fun ~session ~lateness_us ->
        let stale =
          match lateness_budget with
          | Some b -> lateness_us > Time.to_us b
          | None -> false
        in
        if stale then `Shed
        else
          match
            Api.call_result rt bindings.(session mod n_domains) ~proc:"null" []
          with
          | Ok _ -> `Ok
          | Error (Api.Overloaded _) -> `Shed
          | Error f -> failwith (Api.failure_to_string f));
  }

(* SRC RPC baseline: the profile's receiver pool is widened (capped —
   every connection allocates a [receivers + 4] message-buffer pool in
   its client domain, so receivers ~ sessions would blow the domains'
   page budgets) so the baseline is never starved of receivers below
   its real bottleneck, the global lock. The cap matches the capacity
   anchor's client count, so both worlds run the same server. Each
   session connects from inside its own thread, as Mpass requires. *)
let mpass_world p ~sessions =
  let profile = Profile.src_rpc in
  let profile =
    {
      profile with
      Profile.receivers =
        max (min sessions p.capacity_clients) profile.Profile.receivers;
    }
  in
  let w = Driver.make_mpass ~config:(config_of p) profile in
  let kernel = w.Driver.mw_kernel in
  let n_domains = min p.session_domains sessions in
  let domains =
    Array.init n_domains (fun d ->
        Kernel.create_domain kernel ~name:(Printf.sprintf "ol-client%d" d))
  in
  let conns = Array.make sessions None in
  {
    w_engine = w.Driver.mw_engine;
    w_spawn =
      (fun ~session body ->
        let client = domains.(session mod n_domains) in
        ignore
          (Kernel.spawn kernel client
             ~home:(session mod p.processors)
             ~name:(Printf.sprintf "ol-session%d" session)
             (fun () ->
               conns.(session) <- Some (Mpass.connect w.Driver.mw_server ~client);
               body ())));
    w_call =
      (fun ~session ~lateness_us:_ ->
        match conns.(session) with
        | Some conn ->
            ignore (Mpass.call conn ~proc:"null" []);
            `Ok
        | None -> assert false);
  }

(* Netrpc: server domain on machine 1, client domains on machine 0,
   one remote binding per client domain with the in-flight window
   sized to the sessions sharing it (so the window is back-pressure,
   not an artificial serializer). *)
let netrpc_world p ~sessions =
  let b = Driver.boot (config_of p) in
  let kernel = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain kernel ~machine:1 ~name:"ol-server" in
  let n_domains = min p.session_domains sessions in
  let per_domain = (sessions + n_domains - 1) / n_domains in
  let domains =
    Array.init n_domains (fun d ->
        Kernel.create_domain kernel ~name:(Printf.sprintf "ol-client%d" d))
  in
  let bindings =
    Array.map
      (fun client ->
        Netrpc.import_remote ~window:per_domain rt ~client ~server
          Driver.bench_interface ~impls:Driver.mpass_bench_impls)
      domains
  in
  {
    w_engine = b.Driver.bt_engine;
    w_spawn =
      (fun ~session body ->
        ignore
          (Kernel.spawn kernel
             domains.(session mod n_domains)
             ~name:(Printf.sprintf "ol-session%d" session)
             body));
    w_call =
      (fun ~session ~lateness_us:_ ->
        ignore (Api.call rt bindings.(session mod n_domains) ~proc:"null" []);
        `Ok);
  }

(* Clustered-placement arm (the ROADMAP locality/open-loop slice):
   same LRPC world under a clustered cost topology (two clusters of
   two on the 4-CPU sweep machine, 4x cross-cluster migration,
   near-first victim rings live), with every arrival homed on cluster
   0 — the adversarial placement. Cluster 1's processors only
   contribute by stealing across the boundary, so the question the
   curve answers is whether the saturation knee moves when arrivals
   land on the wrong cluster. *)
let lrpc_clustered_world p ~sessions =
  let cluster_size = max 1 (p.processors / 2) in
  let cm =
    Lrpc_sim.Cost_model.clustered ~cluster_size ~cross_mult:4.0
      ~near_steal:true ~name:"ol-clustered" Lrpc_sim.Cost_model.cvax_firefly
  in
  lrpc_world ~cost_model:cm ~home_of:(fun session -> session mod cluster_size)
    p ~sessions

(* Netrpc over the packet-granular (eRPC-style) transport: same
   machine split and per-domain binding fan-out as [netrpc_world], so
   the two curves differ only in the transport model. *)
let netrpc_erpc_world p ~sessions =
  let b = Driver.boot (config_of p) in
  let kernel = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain kernel ~machine:1 ~name:"ol-server" in
  let n_domains = min p.session_domains sessions in
  let per_domain = (sessions + n_domains - 1) / n_domains in
  let domains =
    Array.init n_domains (fun d ->
        Kernel.create_domain kernel ~name:(Printf.sprintf "ol-client%d" d))
  in
  let bindings =
    Array.map
      (fun client ->
        Lrpc_net.Erpc.import_remote ~window:per_domain rt ~client ~server
          Driver.bench_interface ~impls:Driver.mpass_bench_impls)
      domains
  in
  {
    w_engine = b.Driver.bt_engine;
    w_spawn =
      (fun ~session body ->
        ignore
          (Kernel.spawn kernel
             domains.(session mod n_domains)
             ~name:(Printf.sprintf "ol-session%d" session)
             body));
    w_call =
      (fun ~session ~lateness_us:_ ->
        ignore (Api.call rt bindings.(session mod n_domains) ~proc:"null" []);
        `Ok);
  }

let check_failures engine what =
  match Engine.failures engine with
  | [] -> ()
  | (th, exn) :: _ ->
      failwith
        (Printf.sprintf "%s %s died: %s" what (Engine.thread_name th)
           (Printexc.to_string exn))

(* The capacity anchor: the usual closed-loop tight-loop callers, on a
   fresh world from the same constructor, so the sweep's "fraction of
   capacity" axis is anchored to what this exact topology can do. *)
let capacity p make =
  let clients = p.capacity_clients in
  let w = make ~sessions:clients in
  let count = ref 0 in
  for i = 0 to clients - 1 do
    w.w_spawn ~session:i (fun () ->
        while true do
          match w.w_call ~session:i ~lateness_us:0.0 with
          | `Ok -> incr count
          | `Shed -> ()
        done)
  done;
  Engine.run ~until:p.capacity_horizon w.w_engine;
  check_failures w.w_engine "capacity caller";
  float_of_int !count /. Time.to_s p.capacity_horizon

let sweep_point p make ~process offered =
  let w = make ~sessions:p.sessions in
  let cfg =
    {
      Ol.ol_seed = p.seed;
      ol_sessions = p.sessions;
      ol_offered_cps = offered;
      ol_process = process;
      ol_horizon = p.horizon;
      ol_warmup = p.warmup;
    }
  in
  let r = Ol.run cfg ~engine:w.w_engine ~spawn:w.w_spawn ~call:w.w_call in
  {
    op_offered_cps = offered;
    op_achieved_cps = r.Ol.ol_achieved_cps;
    op_issued = r.Ol.ol_issued;
    op_completed = r.Ol.ol_completed;
    op_shed = r.Ol.ol_shed;
    op_measured = r.Ol.ol_measured;
    op_p50_us = Qsketch.p50 r.Ol.ol_sketch;
    op_p99_us = Qsketch.p99 r.Ol.ol_sketch;
    op_p999_us = Qsketch.p999 r.Ol.ol_sketch;
    op_mean_us = r.Ol.ol_mean_us;
  }

let knee points =
  match points with
  | [] -> None
  | first :: rest ->
      let base = max 1 first.op_p99_us in
      List.find_opt (fun pt -> pt.op_p99_us >= 2 * base) rest
      |> Option.map (fun pt -> pt.op_offered_cps)

(* The bursty source: 4x the mean rate for ~20 ms bursts separated by
   ~60 ms idle gaps — a pure on/off source (4 = cycle/burst), the
   worst case for queueing at a given mean load. *)
let bursty =
  Ol.Bursty
    { burst_mult = 4.0; mean_burst = Time.ms 20; mean_idle = Time.ms 60 }

let systems =
  [
    ("lrpc", (fun p -> lrpc_world p), Ol.Poisson);
    ("lrpc_bursty", (fun p -> lrpc_world p), bursty);
    ("lrpc_clustered", lrpc_clustered_world, Ol.Poisson);
    ("src_rpc", mpass_world, Ol.Poisson);
    ("netrpc", netrpc_world, Ol.Poisson);
    ("netrpc_erpc", netrpc_erpc_world, Ol.Poisson);
  ]

let run ?(seed = 1989L) ?(quick = false) () =
  let p = params ~seed ~quick in
  let curves =
    List.map
      (fun (name, make, process) ->
        let cap = capacity p (make p) in
        let points =
          List.map
            (fun frac -> sweep_point p (make p) ~process (frac *. cap))
            p.fractions
        in
        {
          oc_system = name;
          oc_capacity_cps = cap;
          oc_knee_cps = knee points;
          oc_points = points;
        })
      systems
  in
  {
    or_seed = seed;
    or_processors = p.processors;
    or_sessions = p.sessions;
    or_horizon = p.horizon;
    or_warmup = p.warmup;
    or_curves = curves;
  }

(* --- shedding ablation ---------------------------------------------------- *)

(* The overload control the ablation's "on" arm runs, on a world whose
   served procedure has a single A-stack (see [lrpc_world]). It is
   two-sided, and both sides are needed:

   Server side, [shed_policy]: an admitted call holds its binding's
   concurrency slot from the admission gate to landing, so a burst of
   concurrent callers on one binding is refused at the door — a
   rejected arrival costs one stub entry, no processor time. The
   queue-depth bound and the CoDel-style sojourn target are the
   checkout FIFO's backstops behind the gate.

   Client side, [shed_budget]: open-loop overload lives in the
   sessions' arrears, which no server-side gate can see — a backlogged
   session issues its calls serially, one at a time, so each one finds
   the binding idle and is (correctly) admitted; the engine then runs
   that session's whole backlog in one run-to-completion turn while
   every other woken session sits in the CPU run queue. The deadline
   budget breaks that spiral: a call starting more than [shed_budget]
   past its scheduled arrival is refused by the client stub at zero
   cost, so a session's arrears collapse instantly instead of being
   ground through, turns stay one call long, and an admitted call's
   measured latency is bounded by roughly the budget plus a service
   time. *)
let shed_policy =
  Lrpc_core.Rt.admission_policy ~max_inflight:2 ~max_queue:2
    ~target_sojourn:(Time.ms 10) ()

let shed_budget = Time.ms 5

(* Past-the-knee fractions only: the ablation is about behaviour past
   saturation, so the sweep starts near the knee (~0.85) and pushes to
   1.5x capacity, where the shed-off baseline has long collapsed. *)
let shed_fractions ~quick =
  if quick then [ 0.85; 1.25; 1.5 ] else [ 0.85; 1.05; 1.25; 1.5 ]

let run_shedding ?(seed = 1989L) ?(quick = false) () =
  let p = params ~seed ~quick in
  let p = { p with fractions = shed_fractions ~quick } in
  (* One capacity anchor for both arms (the shed-off world — admission
     has zero cost when nothing sheds, and the anchor must be common
     for the goodput comparison to mean anything). Both arms and the
     anchor run the single-A-stack server, so the only difference
     between the curves is the policy. *)
  let cap = capacity p (lrpc_world ~astacks:1 p) in
  let curve name make =
    let points =
      List.map
        (fun frac -> sweep_point p make ~process:Ol.Poisson (frac *. cap))
        p.fractions
    in
    {
      oc_system = name;
      oc_capacity_cps = cap;
      oc_knee_cps = knee points;
      oc_points = points;
    }
  in
  let curves =
    [
      curve "lrpc_shed_off" (lrpc_world ~astacks:1 p);
      curve "lrpc_shed_on"
        (lrpc_world ~admission:shed_policy ~lateness_budget:shed_budget
           ~astacks:1 p);
    ]
  in
  {
    or_seed = seed;
    or_processors = p.processors;
    or_sessions = p.sessions;
    or_horizon = p.horizon;
    or_warmup = p.warmup;
    or_curves = curves;
  }

let render r =
  let chart =
    Chart.create ~x_label:"offered load (fraction of closed-loop capacity)"
      ~y_label:"p99 latency (us)" ()
  in
  List.iter
    (fun c ->
      Chart.add_series chart ~name:c.oc_system
        (List.map
           (fun pt ->
             (pt.op_offered_cps /. c.oc_capacity_cps, float_of_int pt.op_p99_us))
           c.oc_points))
    r.or_curves;
  let t =
    Table.create
      ~columns:
        [
          ("system", Table.Left);
          ("offered/s", Table.Right);
          ("achieved/s", Table.Right);
          ("issued", Table.Right);
          ("done", Table.Right);
          ("shed", Table.Right);
          ("p50 us", Table.Right);
          ("p99 us", Table.Right);
          ("p999 us", Table.Right);
          ("mean us", Table.Right);
        ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun pt ->
          Table.add_row t
            [
              c.oc_system;
              Printf.sprintf "%.0f" pt.op_offered_cps;
              Printf.sprintf "%.0f" pt.op_achieved_cps;
              string_of_int pt.op_issued;
              string_of_int pt.op_completed;
              string_of_int pt.op_shed;
              string_of_int pt.op_p50_us;
              string_of_int pt.op_p99_us;
              string_of_int pt.op_p999_us;
              Printf.sprintf "%.0f" pt.op_mean_us;
            ])
        c.oc_points)
    r.or_curves;
  let knees =
    String.concat "\n"
      (List.map
         (fun c ->
           match c.oc_knee_cps with
           | Some k ->
               Printf.sprintf
                 "%-12s capacity %7.0f calls/s, saturation knee at %7.0f \
                  offered calls/s (%.0f%% of capacity)"
                 c.oc_system c.oc_capacity_cps k
                 (100.0 *. k /. c.oc_capacity_cps)
           | None ->
               Printf.sprintf "%-12s capacity %7.0f calls/s, no knee in sweep"
                 c.oc_system c.oc_capacity_cps)
         r.or_curves)
  in
  Printf.sprintf
    "Open-loop load study: latency vs offered load (%d sessions, %d \
     processors, %.0f ms horizon)\n\
     Latency is completion minus scheduled arrival — past saturation the \
     backlog, and with it the tail, diverges.\n\
     %s\n%s\n%s"
    r.or_sessions r.or_processors
    (Time.to_us r.or_horizon /. 1000.0)
    (Chart.to_string chart) (Table.to_string t) knees

let to_json ?(experiment = "openloop") r =
  let point pt =
    Printf.sprintf
      "{\"offered_cps\": %.1f, \"achieved_cps\": %.1f, \"issued\": %d, \
       \"completed\": %d, \"shed\": %d, \"measured\": %d, \"p50_us\": %d, \
       \"p99_us\": %d, \"p999_us\": %d, \"mean_us\": %.1f}"
      pt.op_offered_cps pt.op_achieved_cps pt.op_issued pt.op_completed
      pt.op_shed pt.op_measured pt.op_p50_us pt.op_p99_us pt.op_p999_us
      pt.op_mean_us
  in
  let curve c =
    Printf.sprintf
      "{\"system\": \"%s\", \"capacity_cps\": %.1f, \"knee_cps\": %s, \
       \"points\": [%s]}"
      c.oc_system c.oc_capacity_cps
      (match c.oc_knee_cps with
      | Some k -> Printf.sprintf "%.1f" k
      | None -> "null")
      (String.concat ", " (List.map point c.oc_points))
  in
  Printf.sprintf
    "{\"experiment\": \"%s\", \"seed\": %Ld, \"processors\": %d, \
     \"sessions\": %d, \"horizon_us\": %.0f, \"warmup_us\": %.0f, \
     \"systems\": [%s]}"
    experiment r.or_seed r.or_processors r.or_sessions
    (Time.to_us r.or_horizon)
    (Time.to_us r.or_warmup)
    (String.concat ", " (List.map curve r.or_curves))
