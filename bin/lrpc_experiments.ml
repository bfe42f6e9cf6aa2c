(* CLI for regenerating every table and figure of the paper, and the
   ablations. `lrpc_experiments all` prints the lot; `--jobs N` fans
   the artifacts across N domains (output is byte-identical to a
   serial run — each artifact owns its engine and PRNGs). *)

module Suite = Lrpc_experiments.Suite
module Parallel = Lrpc_harness.Parallel

let run names seed quick jobs json shedding =
  let names = if names = [] || names = [ "all" ] then Suite.names else names in
  (match List.filter (fun n -> not (Suite.mem n)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "lrpc_experiments: unknown experiment%s %s (try: %s, all)\n"
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
        (String.concat ", " Suite.names);
      exit 2);
  (if json then
     match List.filter (fun n -> not (List.mem n Suite.json_names)) names with
     | [] -> ()
     | no_json ->
         Printf.eprintf
           "lrpc_experiments: no JSON rendering for %s (--json supports: %s)\n"
           (String.concat ", " (List.map (Printf.sprintf "%S") no_json))
           (String.concat ", " Suite.json_names);
         exit 2);
  (if shedding then
     match List.filter (fun n -> n <> "openloop") names with
     | [] -> ()
     | others ->
         Printf.eprintf
           "lrpc_experiments: --shedding only applies to \"openloop\" (got %s)\n"
           (String.concat ", " (List.map (Printf.sprintf "%S") others));
         exit 2);
  let render = if json then Suite.json else Suite.run in
  let outputs =
    Parallel.map ~jobs (fun n -> render ~seed ~quick ~shedding n) names
  in
  List.iter
    (fun out ->
      print_endline out;
      if not json then print_newline ())
    outputs

open Cmdliner

let names_arg =
  let doc =
    "Experiments to run: t1 f1 t2 t3 t4 t5 f2 (paper tables/figures), a1-a6 \
     (ablations incl. a6 register passing), lat (supplementary latency), f2s \
     (multiprocessor scaling beyond Fig.2), openloop (open-loop \
     latency-vs-load curves), numa (placement quality on a clustered \
     topology), transport (LRPC vs classic Netrpc vs eRPC-style \
     packet-granular transport), or 'all'. Unknown names are an error \
     (exit code 2)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let seed_arg =
  let doc = "PRNG seed for the workload models." in
  Arg.(value & opt int64 1989L & info [ "seed" ] ~doc)

let quick_arg =
  let doc =
    "Smaller sample sizes / shorter horizons. Changes the numbers (fewer \
     samples), not the table shapes; use for smoke runs."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Regenerate artifacts across $(docv) domains (default: number of cores). \
     Each artifact owns its engine and PRNGs, so output is byte-identical to \
     --jobs 1 — only the wall clock changes."
  in
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shedding_arg =
  let doc =
    "Run the overload-control ablation of the open-loop study instead: \
     the LRPC world swept past saturation with and without the shedding \
     policy (admission control, queue-depth bound, sojourn target). Only \
     valid with the 'openloop' experiment; anything else is an error \
     (exit code 2)."
  in
  Arg.(value & flag & info [ "shedding" ] ~doc)

let json_arg =
  let doc =
    "Emit the machine-checkable JSON rendering instead of the text one. \
     Only some experiments have one (currently f2s, openloop, numa and \
     transport); anything else is an error (exit code 2)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let cmd =
  let doc =
    "Regenerate the tables and figures of 'Lightweight Remote Procedure \
     Call' (SOSP 1989) from the simulator."
  in
  Cmd.v
    (Cmd.info "lrpc_experiments" ~version:"1.0" ~doc)
    Term.(
      const run $ names_arg $ seed_arg $ quick_arg $ jobs_arg $ json_arg
      $ shedding_arg)

let () = exit (Cmd.eval cmd)
