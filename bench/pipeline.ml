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
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n  \"bench\": \"pipeline\",\n  \"proc\": \"%s\",\n  \"calls\": %d,\n\
    \  \"window\": %d,\n  \"results\": [\n" P.proc calls P.window;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"processors\": %d, \"serial_calls_per_ms\": %.4f, \
         \"pipelined_calls_per_ms\": %.4f, \"speedup\": %.4f }%s\n"
        r.P.processors r.P.serial_cpms r.P.pipelined_cpms r.P.speedup
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" !out
