module Kernel = Lrpc_kernel.Kernel
module Vm = Lrpc_kernel.Vm
module I = Lrpc_idl.Types
module V = Lrpc_idl.Value
module Api = Lrpc_core.Api
module Server_ctx = Lrpc_core.Server_ctx
module Mpass = Lrpc_msgrpc.Mpass
module Profile = Lrpc_msgrpc.Profile
module Driver = Lrpc_workload.Driver
module Table = Lrpc_util.Table

type cell = { call_copies : string list; return_copies : string list }

type result = {
  lrpc_mutable : cell;
  lrpc_immutable : cell;
  message_passing : cell;
  restricted : cell;
}

let iface =
  I.interface "Probe" [ I.proc ~result:I.Int32 "echo" [ I.param "x" I.Int32 ] ]

(* Split the audited label sequence at the instant the server procedure
   began executing: everything before is the call path, after is the
   return path. *)
let split_cell audit split_point =
  let labels = List.rev audit.Vm.labels in
  let call = List.filteri (fun i _ -> i < split_point) labels in
  let ret = List.filteri (fun i _ -> i >= split_point) labels in
  { call_copies = call; return_copies = ret }

let lrpc_cell ~defensive =
  let b = Driver.boot Driver.Config.default in
  let kernel = b.Driver.bt_kernel and rt = b.Driver.bt_rt in
  let server = Kernel.create_domain kernel ~name:"server" in
  let client = Kernel.create_domain kernel ~name:"client" in
  let audit = Vm.audit_create () in
  let split = ref 0 in
  ignore
    (Api.export rt ~domain:server
       ~options:{ Api.Options.default with defensive_copies = defensive }
       iface
       ~impls:
         [
           ( "echo",
             fun ctx ->
               split := audit.Vm.copy_ops;
               match Server_ctx.arg ctx 0 with
               | V.Int x -> [ V.int x ]
               | _ -> invalid_arg "echo" );
         ]);
  ignore
    (Kernel.spawn kernel client (fun () ->
         let b = Api.import rt ~domain:client ~interface:"Probe" in
         ignore
           (Api.call
              ~options:{ Api.Options.default with audit = Some audit }
              rt b ~proc:"echo" [ V.int 7 ])));
  Driver.run_all b.Driver.bt_engine;
  split_cell audit !split

let mpass_cell profile =
  let b =
    Driver.boot
      { Driver.Config.default with Driver.Config.cost_model = profile.Profile.hw }
  in
  let kernel = b.Driver.bt_kernel in
  let sd = Kernel.create_domain kernel ~name:"server" in
  let client = Kernel.create_domain kernel ~name:"client" in
  let audit = Vm.audit_create () in
  let split = ref 0 in
  let server =
    Mpass.create_server kernel profile ~domain:sd iface
      ~impls:
        [
          ( "echo",
            fun args ->
              split := audit.Vm.copy_ops;
              match args with [ V.Int x ] -> [ V.int x ] | _ -> invalid_arg "echo" );
        ]
  in
  ignore
    (Kernel.spawn kernel client (fun () ->
         let conn = Mpass.connect server ~client in
         ignore (Mpass.call ~audit conn ~proc:"echo" [ V.int 7 ])));
  Driver.run_all b.Driver.bt_engine;
  split_cell audit !split

let run () =
  {
    lrpc_mutable = lrpc_cell ~defensive:false;
    lrpc_immutable = lrpc_cell ~defensive:true;
    message_passing = mpass_cell Profile.mach;
    restricted = mpass_cell Profile.dash;
  }

let total_when_immutable c =
  List.length c.call_copies + List.length c.return_copies

let letters l = if l = [] then "-" else String.concat "" l

let render r =
  let t =
    Table.create
      ~columns:
        [
          ("Operation", Table.Left);
          ("LRPC", Table.Left);
          ("Message Passing", Table.Left);
          ("Restricted Message Passing", Table.Left);
        ]
  in
  Table.add_row t
    [
      "call (mutable parameters)";
      letters r.lrpc_mutable.call_copies;
      letters r.message_passing.call_copies;
      letters r.restricted.call_copies;
    ];
  Table.add_row t
    [
      "call (immutable parameters)";
      letters r.lrpc_immutable.call_copies;
      letters r.message_passing.call_copies;
      letters r.restricted.call_copies;
    ];
  Table.add_row t
    [
      "return";
      letters r.lrpc_mutable.return_copies;
      letters r.message_passing.return_copies;
      letters r.restricted.return_copies;
    ];
  Table.add_separator t;
  Table.add_row t
    [
      "total (immutability preserved)";
      string_of_int (total_when_immutable r.lrpc_immutable);
      string_of_int (total_when_immutable r.message_passing);
      string_of_int (total_when_immutable r.restricted);
    ];
  "Table 3: Copy Operations for LRPC vs Message-Based RPC\n"
  ^ "(observed from one instrumented single-argument call; paper totals 3/7/5.\n"
  ^ " The paper prints the restricted return's kernel copy as B; the same\n"
  ^ " direct sender-to-receiver copy is labelled D here.)\n"
  ^ Table.to_string t
