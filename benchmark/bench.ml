(* One repetition of a workload: build the world, attach the sampler,
   run to the horizon, and hash the simulated outcome. *)

module Driver = Lrpc_workload.Driver

type rep = {
  digest : string;
  c : Workloads.counters;
  setup_ns : int;  (** world build up to the first event, 0 unsampled *)
  phases_ns : int array;  (** boot, domains, bind, spawn *)
  summary : Sampler.summary option;  (** [None] for a set-up-only run *)
}

(* Sampler windows per horizon. With the horizons in [Workloads.all]
   a window holds about a thousand calls or more: enough to average
   over minor collections, short enough that contention from other
   tenants, which comes and goes over seconds, leaves some windows
   clean. *)
let windows ~quick = if quick then 20 else 100

(* [sampled = false] runs with no sampler at all (no timer is ever
   scheduled); the digest it returns is the reference the sampled runs
   must match. *)
let run ?(sampled = true) ?(setup_only = false) ?trace_capacity
    ?(on_tick = fun _ _ -> ()) ?windows:nw (w : Workloads.t) ~quick ~seed
    ~horizon =
  let c = { Workloads.attempted = 0; completed = 0; failed = 0; wrong = 0 } in
  let marks = Array.make 4 0 and nmarks = ref 0 in
  let sampler = ref None in
  let period = horizon / Option.value nw ~default:(windows ~quick) in
  let ctx =
    {
      Workloads.seed;
      horizon;
      trace_capacity;
      c;
      mark =
        (fun () ->
          marks.(!nmarks) <- Clock.now_ns ();
          incr nmarks);
      on_boot =
        (fun b ->
          if sampled then
            sampler :=
              Some
                (Sampler.attach ~setup_only ~on_tick:(on_tick b)
                   b.Driver.bt_engine ~period ~horizon
                   ~calls:(fun () -> c.Workloads.completed)));
    }
  in
  let digest =
    match w.Workloads.run ctx with
    | material ->
        Option.iter Sampler.finish !sampler;
        Digest.to_hex (Digest.string material)
    | exception Sampler.Setup_done -> ""
  in
  let setup_end =
    match !sampler with Some s -> Sampler.setup_end_ns s | None -> marks.(0)
  in
  {
    digest;
    c;
    setup_ns = setup_end - marks.(0);
    phases_ns =
      [|
        marks.(1) - marks.(0);
        marks.(2) - marks.(1);
        marks.(3) - marks.(2);
        setup_end - marks.(3);
      |];
    summary =
      (match !sampler with
      | Some s when not setup_only -> Some (Sampler.summary s)
      | _ -> None);
  }
