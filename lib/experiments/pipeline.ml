(* Serial vs. pipelined LRPC throughput across 1-4 processors.

   Serial: one client thread performing synchronous calls back to back.
   Pipelined: the same thread keeps [window] calls in flight through
   Api.call_async / Api.await_all (the A-stack pool is sized 5, so a
   window of 4 never exhausts it). Throughput is simulated
   calls-per-millisecond; the interesting number is the speedup, which
   passes 2x on a 4-processor engine (carriers execute the kernel
   transfer and server work of up to [window] calls concurrently while
   the issuer keeps marshalling). *)

open Lrpc_sim
open Lrpc_kernel
open Lrpc_core
module Driver = Lrpc_workload.Driver
module V = Lrpc_idl.Value
module I = Lrpc_idl.Types

let window = 4
let proc = "add"

let iface =
  I.interface "Bench"
    [ I.proc ~result:I.Int32 proc [ I.param "a" I.Int32; I.param "b" I.Int32 ] ]

let impls =
  [
    ( proc,
      fun ctx ->
        match Server_ctx.args ctx with
        | [ V.Int a; V.Int b ] -> [ V.int (a + b) ]
        | _ -> invalid_arg "add: bad args" );
  ]

let throughput ~processors ~pipelined ~calls =
  let b = Driver.boot { Driver.Config.default with Driver.Config.processors } in
  let engine = b.Driver.bt_engine and kernel = b.Driver.bt_kernel in
  let rt = b.Driver.bt_rt in
  let server = Kernel.create_domain kernel ~name:"bench-server" in
  let client = Kernel.create_domain kernel ~name:"bench-client" in
  ignore (Api.export rt ~domain:server iface ~impls);
  let result = ref 0.0 in
  ignore
    (Kernel.spawn kernel client ~name:"bench-client" (fun () ->
         let b = Api.import rt ~domain:client ~interface:"Bench" in
         let args = [ V.int 3; V.int 4 ] in
         for _ = 1 to window do
           ignore (Api.call rt b ~proc args)
         done;
         let t0 = Engine.now engine in
         if pipelined then
           for _ = 1 to calls / window do
             let hs =
               List.init window (fun _ -> Api.call_async rt b ~proc args)
             in
             ignore (Api.await_all rt hs)
           done
         else
           for _ = 1 to calls do
             ignore (Api.call rt b ~proc args)
           done;
         let ms = Time.to_us (Time.sub (Engine.now engine) t0) /. 1000.0 in
         result := float_of_int calls /. ms));
  Engine.run engine;
  Engine.check_failures ~what:"bench thread" engine;
  !result

type row = {
  processors : int;
  serial_cpms : float;
  pipelined_cpms : float;
  speedup : float;
}

let rows ~calls =
  List.map
    (fun processors ->
      let serial_cpms = throughput ~processors ~pipelined:false ~calls in
      let pipelined_cpms = throughput ~processors ~pipelined:true ~calls in
      {
        processors;
        serial_cpms;
        pipelined_cpms;
        speedup = pipelined_cpms /. serial_cpms;
      })
    [ 1; 2; 3; 4 ]
