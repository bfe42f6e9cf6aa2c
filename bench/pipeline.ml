(* Serial vs. pipelined LRPC throughput across 1-4 processors.

   Serial: one client thread performing synchronous calls back to back.
   Pipelined: the same thread keeps four calls in flight through
   Api.call_async / Api.await_all (the A-stack pool is sized 5, so a
   window of 4 never exhausts it). Throughput is simulated
   calls-per-millisecond; the interesting number is the speedup column,
   which the async-handle redesign is expected to push past 2x on a
   4-processor engine (carriers execute the kernel transfer and server
   work of up to [window] calls concurrently while the issuer keeps
   marshalling).

   Writes BENCH_pipeline.json (override with --out FILE); --smoke cuts
   the call count for CI. *)

open Lrpc
module V = Value
module I = Types

let window = 4

let iface =
  I.interface "Bench"
    [ I.proc ~result:I.Int32 "add" [ I.param "a" I.Int32; I.param "b" I.Int32 ] ]

let impls =
  [
    ( "add",
      fun ctx ->
        match Server_ctx.args ctx with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> invalid_arg "add: bad args" );
  ]

(* Throughput of [calls] calls in simulated calls per millisecond. *)
let throughput ~processors ~pipelined ~calls =
  let engine = Engine.create ~processors Cost_model.cvax_firefly in
  let kernel = Kernel.boot engine in
  let rt = Api.init kernel in
  let server = Kernel.create_domain kernel ~name:"bench-server" in
  let client = Kernel.create_domain kernel ~name:"bench-client" in
  ignore (Api.export rt ~domain:server iface ~impls);
  let result = ref 0.0 in
  ignore
    (Kernel.spawn kernel client ~name:"bench-client" (fun () ->
         let b = Api.import rt ~domain:client ~interface:"Bench" in
         let args = [ V.int 3; V.int 4 ] in
         for _ = 1 to window do
           ignore (Api.call rt b ~proc:"add" args)
         done;
         let t0 = Engine.now engine in
         if pipelined then
           for _ = 1 to calls / window do
             let hs =
               List.init window (fun _ -> Api.call_async rt b ~proc:"add" args)
             in
             ignore (Api.await_all rt hs)
           done
         else
           for _ = 1 to calls do
             ignore (Api.call rt b ~proc:"add" args)
           done;
         let ms = Time.to_us (Time.sub (Engine.now engine) t0) /. 1000.0 in
         result := float_of_int calls /. ms));
  Engine.run engine;
  Engine.check_failures ~what:"bench thread" engine;
  !result

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out = ref "BENCH_pipeline.json" in
  Array.iteri
    (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  let calls = if smoke then 40 else 400 in
  let rows =
    List.map
      (fun processors ->
        let serial = throughput ~processors ~pipelined:false ~calls in
        let piped = throughput ~processors ~pipelined:true ~calls in
        (processors, serial, piped, piped /. serial))
      [ 1; 2; 3; 4 ]
  in
  Printf.printf "%-11s %18s %18s %8s\n" "processors" "serial calls/ms"
    "pipelined calls/ms" "speedup";
  List.iter
    (fun (p, s, pi, sp) -> Printf.printf "%-11d %18.2f %18.2f %7.2fx\n" p s pi sp)
    rows;
  let oc = open_out !out in
  Printf.fprintf oc
    "{\n  \"bench\": \"pipeline\",\n  \"proc\": \"add\",\n  \"calls\": %d,\n\
    \  \"window\": %d,\n  \"results\": [\n" calls window;
  List.iteri
    (fun i (p, s, pi, sp) ->
      Printf.fprintf oc
        "    { \"processors\": %d, \"serial_calls_per_ms\": %.4f, \
         \"pipelined_calls_per_ms\": %.4f, \"speedup\": %.4f }%s\n"
        p s pi sp
        (if i = 3 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" !out
