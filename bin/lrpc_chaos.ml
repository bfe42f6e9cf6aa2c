(* Run the chaos soak: thousands of mixed local/remote/async LRPC calls
   under a seeded deterministic fault plan, then print the invariant
   report as JSON.

     lrpc_chaos                       # default plan, seed 0xC0FFEE
     lrpc_chaos --seed 42 --calls 5000
     lrpc_chaos --out report.json     # also write the report to a file
     lrpc_chaos --replay              # run twice, assert equal digests

   Exits 1 when any quiescence invariant is violated or the replay
   digests differ — the `make fault-smoke` gate — and 2 on CLI misuse
   (unknown flags, non-integer --seed). *)

module Plan = Lrpc_fault.Plan
module Soak = Lrpc_fault.Soak

let run seed calls clients out replay =
  let cfg =
    { Soak.default with Soak.seed = Int64.of_int seed; calls; clients }
  in
  let report = Soak.run cfg in
  let json = Soak.report_to_json report in
  print_endline json;
  (match out with
  | None -> ()
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc json;
        output_char oc '\n';
        close_out oc
      with Sys_error msg ->
        Format.eprintf "lrpc_chaos: cannot write report: %s@." msg;
        exit 1));
  let replay_ok =
    if not replay then true
    else begin
      let again = Soak.run cfg in
      let same = again.Soak.r_digest = report.Soak.r_digest in
      Format.printf "replay digest %s: %s@." again.Soak.r_digest
        (if same then "identical" else "DIVERGED");
      same
    end
  in
  if not (Soak.ok report) then begin
    Format.eprintf "lrpc_chaos: invariant violation (seed %Ld)@."
      cfg.Soak.seed;
    exit 1
  end;
  if not replay_ok then begin
    Format.eprintf "lrpc_chaos: same-seed replay diverged (seed %Ld)@."
      cfg.Soak.seed;
    exit 1
  end

open Cmdliner

let seed_arg =
  Arg.(
    value & opt int 0xC0FFEE
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault plan and the workload (one knob replays both).")

let calls_arg =
  Arg.(
    value
    & opt int Soak.default.Soak.calls
    & info [ "calls" ] ~doc:"Total number of calls across all clients.")

let clients_arg =
  Arg.(
    value
    & opt int Soak.default.Soak.clients
    & info [ "clients" ] ~doc:"Number of client threads.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"PATH" ~doc:"Also write the JSON report to $(docv).")

let replay_arg =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:"Run the soak twice and require bit-identical trace digests.")

let cmd =
  Cmd.v
    (Cmd.info "lrpc_chaos" ~version:"1.0"
       ~doc:"Chaos-soak the LRPC call path under a deterministic fault plan.")
    Term.(
      const run $ seed_arg $ calls_arg $ clients_arg $ out_arg $ replay_arg)

(* Exit 2 on CLI misuse (non-integer --seed, unknown flags) with
   cmdliner's usage line on stderr — distinct from exit 1, which means
   the soak itself failed an invariant. *)
let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error `Parse | Error `Term -> exit 2
  | Error `Exn -> exit 1
