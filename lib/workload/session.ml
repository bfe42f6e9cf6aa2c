module Engine = Lrpc_sim.Engine
module Time = Lrpc_sim.Time
module Category = Lrpc_sim.Category
module Kernel = Lrpc_kernel.Kernel
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Api = Lrpc_core.Api
module Server_ctx = Lrpc_core.Server_ctx
module Netrpc = Lrpc_net.Netrpc
module Prng = Lrpc_util.Prng

type report = {
  model : Os_profiles.model;
  operations : int;
  local_calls : int;
  remote_calls : int;
  percent_remote_calls : float;
  elapsed : Time.t;
  network_time : Time.t;
  percent_time_remote : float;
}

(* Every service class exports the same tiny interface: a 16-byte
   request handle in, a 4-byte status out — the common case Figure 1
   documents. *)
let svc_iface name =
  I.interface name
    [ I.proc ~result:I.Int32 "op" [ I.param "req" (I.Fixed_bytes 16) ] ]

let run ?(seed = 1989L) ?(operations = 20_000) model =
  let rng = Prng.create ~seed in
  let b = Driver.boot Driver.Config.default in
  let engine = b.Driver.bt_engine and kernel = b.Driver.bt_kernel in
  let rt = b.Driver.bt_rt in
  let app = Kernel.create_domain kernel ~name:"application" in
  let sanitize n =
    String.map (fun c -> if c = ' ' || c = '/' then '_' else c) n
  in
  (* One local server domain per class, plus a remote twin on machine 1
     for classes whose traffic can leave the node. *)
  let services =
    List.mapi
      (fun i cls ->
        let name = Printf.sprintf "Svc%d_%s" i (sanitize cls.Os_profiles.class_name) in
        let domain =
          Kernel.create_domain kernel ~name:(String.lowercase_ascii name)
        in
        ignore
          (Api.export rt ~domain (svc_iface name)
             ~impls:
               [
                 ( "op",
                   fun ctx ->
                     match Server_ctx.arg ctx 0 with
                     | V.Bytes b -> [ V.int (Bytes.length b) ]
                     | _ -> [ V.int (-1) ] );
               ]);
        let local = Api.import rt ~domain:app ~interface:name in
        let remote =
          if cls.Os_profiles.remote_probability > 0.0 then begin
            let rdomain =
              Kernel.create_domain kernel ~machine:1
                ~name:("remote-" ^ String.lowercase_ascii name)
            in
            Some
              (Netrpc.import_remote rt ~client:app ~server:rdomain
                 (svc_iface name)
                 ~impls:
                   [
                     ( "op",
                       fun args ->
                         match args with
                         | [ V.Bytes b ] -> [ V.int (Bytes.length b) ]
                         | _ -> [ V.int (-1) ] );
                   ])
          end
          else None
        in
        (cls, local, remote))
      model.Os_profiles.classes
  in
  let weights = List.map (fun ((cls, _, _) as svc) -> (cls.Os_profiles.weight, svc)) services in
  let local_calls = ref 0 and remote_calls = ref 0 in
  let elapsed = ref Time.zero in
  let req = V.bytes (Bytes.make 16 'r') in
  Engine.reset_breakdown engine;
  ignore
    (Kernel.spawn kernel app ~name:"session-driver" (fun () ->
         let t0 = Engine.now engine in
         for _ = 1 to operations do
           let cls, local, remote = Prng.choose rng ~weights in
           let binding, counter =
             match remote with
             | Some r when Prng.bernoulli rng ~p:cls.Os_profiles.remote_probability
               ->
                 (r, remote_calls)
             | Some _ | None -> (local, local_calls)
           in
           match Api.call rt binding ~proc:"op" [ req ] with
           | [ V.Int 16 ] -> incr counter
           | _ -> failwith "session: unexpected reply"
         done;
         elapsed := Time.sub (Engine.now engine) t0));
  Engine.run engine;
  Engine.check_failures ~what:"session thread" engine;
  let network_time =
    List.assoc_opt Category.Network (Engine.breakdown engine)
    |> Option.value ~default:Time.zero
  in
  let total = !local_calls + !remote_calls in
  {
    model;
    operations = total;
    local_calls = !local_calls;
    remote_calls = !remote_calls;
    percent_remote_calls = 100.0 *. float_of_int !remote_calls /. float_of_int total;
    elapsed = !elapsed;
    network_time;
    percent_time_remote =
      (if !elapsed = Time.zero then 0.0
       else 100.0 *. Time.to_us network_time /. Time.to_us !elapsed);
  }

let render r =
  Printf.sprintf
    "%s session: %d operations in %.1f simulated ms\n\
    \  cross-domain calls: %d   cross-machine: %d (%.2f%% of calls, paper: \
     %.1f%%)\n\
    \  time on the network: %.1f ms = %.1f%% of the session\n\
    \  (the paper's point in one line: %.1f%% of the calls eat %.1f%% of the \
     time)\n"
    r.model.Os_profiles.os_name r.operations
    (Time.to_us r.elapsed /. 1000.0)
    r.local_calls r.remote_calls r.percent_remote_calls
    r.model.Os_profiles.paper_percent
    (Time.to_us r.network_time /. 1000.0)
    r.percent_time_remote r.percent_remote_calls r.percent_time_remote
