(* Print the scheduling timeline and cost breakdown of LRPC calls — a
   debugging lens on the simulator.

     lrpc_trace                       # one serial Null call on one C-VAX
     lrpc_trace --mp                  # with domain caching on two processors
     lrpc_trace --calls 3             # several calls (watch the steady state)
     lrpc_trace --chrome trace.json   # write a Chrome trace for Perfetto
     lrpc_trace --metrics             # dump the metrics registry snapshot
*)

module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Trace = Lrpc_sim.Trace
module Metrics = Lrpc_obs.Metrics
module Chrome_trace = Lrpc_obs.Chrome_trace
module Json = Lrpc_util.Json
module Kernel = Lrpc_kernel.Kernel
module Api = Lrpc_core.Api
module Driver = Lrpc_workload.Driver

let run mp calls chrome metrics =
  let w =
    Driver.make_lrpc
      ~config:
        {
          Driver.Config.default with
          Driver.Config.processors = (if mp then 2 else 1);
          domain_caching = mp;
        }
      ()
  in
  let tracer = Trace.create () in
  Engine.set_tracer w.Driver.lw_engine (Some tracer);
  let b =
    Api.import w.Driver.lw_rt ~domain:w.Driver.lw_client ~interface:"Bench"
  in
  ignore
    (Kernel.spawn w.Driver.lw_kernel w.Driver.lw_client ~name:"traced-client"
       (fun () ->
         for _ = 1 to calls do
           ignore (Api.call w.Driver.lw_rt b ~proc:"null" [])
         done));
  Engine.run w.Driver.lw_engine;
  Format.printf "=== scheduling timeline (%d events%s) ===@."
    (Trace.count tracer)
    (match Trace.dropped tracer with
    | 0 -> ""
    | n -> Printf.sprintf ", %d dropped" n);
  print_string (Trace.dump tracer);
  Format.printf "@.=== cost breakdown ===@.";
  List.iter
    (fun (cat, t) ->
      Format.printf "%-28s %10.1f us@."
        (Lrpc_sim.Category.to_string cat)
        (Time.to_us t))
    (Engine.breakdown w.Driver.lw_engine);
  Format.printf "total simulated time: %.1f us over %d call(s)%s@."
    (Time.to_us (Engine.now w.Driver.lw_engine))
    calls
    (if mp then " (domain caching on)" else "");
  if metrics then begin
    Format.printf "@.=== metrics registry ===@.";
    print_string
      (Metrics.render (Metrics.snapshot (Engine.metrics w.Driver.lw_engine)))
  end;
  match chrome with
  | None -> ()
  | Some path -> (
      try
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string (Chrome_trace.to_json tracer)));
        Format.printf "@.wrote Chrome trace to %s (open in Perfetto)@." path
      with Sys_error msg ->
        Format.eprintf "lrpc_trace: cannot write Chrome trace: %s@." msg;
        exit 1)

open Cmdliner

let mp_arg =
  Arg.(value & flag & info [ "mp" ] ~doc:"Two processors with domain caching.")

let calls_arg =
  Arg.(value & opt int 1 & info [ "calls" ] ~doc:"Number of Null calls.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"PATH"
        ~doc:"Write the trace as Chrome trace_event JSON to $(docv).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the engine's metrics registry snapshot.")

let cmd =
  Cmd.v
    (Cmd.info "lrpc_trace" ~version:"1.0"
       ~doc:"Trace the scheduling events of simulated LRPC calls.")
    Term.(const run $ mp_arg $ calls_arg $ chrome_arg $ metrics_arg)

let () = exit (Cmd.eval cmd)
