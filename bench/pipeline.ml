(* Serial vs. pipelined LRPC throughput across 1-4 processors
   (Lrpc_experiments.Pipeline): prints the table and writes
   BENCH_pipeline.json (override with --out FILE); --smoke cuts the
   call count to the one test_experiments "pipeline bounds" pins. *)

module P = Lrpc_experiments.Pipeline

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out = ref "BENCH_pipeline.json" in
  Array.iteri
    (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  let calls = if smoke then 40 else 400 in
  let rows = P.rows ~calls in
  Printf.printf "%-11s %18s %18s %8s\n" "processors" "serial calls/ms"
    "pipelined calls/ms" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-11d %18.2f %18.2f %7.2fx\n" r.P.processors r.P.serial_cpms
        r.P.pipelined_cpms r.P.speedup)
    rows;
  let json =
    let open Lrpc_util.Json in
    let row r =
      Obj
        [
          ("processors", Int r.P.processors);
          ("serial_calls_per_ms", Fixed (4, r.P.serial_cpms));
          ("pipelined_calls_per_ms", Fixed (4, r.P.pipelined_cpms));
          ("speedup", Fixed (4, r.P.speedup));
        ]
    in
    Obj
      [
        ("bench", String "pipeline"); ("proc", String P.proc); ("calls", Int calls);
        ("window", Int P.window); ("results", List (List.map row rows));
      ]
  in
  Out_channel.with_open_text !out (fun oc ->
      output_string oc (Lrpc_util.Json.to_string json ^ "\n"));
  Printf.printf "\nwrote %s\n" !out
