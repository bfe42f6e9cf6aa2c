open Rt

type t = Rt.server_ctx

let nth_input ctx i =
  match List.nth_opt ctx.sc_plan.Layout.in_slots i with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Server_ctx.arg: no input %d" i)

(* Access-checked zero-cost read: the server decodes the A-stack slot in
   place; no copy happens. *)
let decode_slot ctx s =
  Vm.check ~by:ctx.sc_binding.b_server ctx.sc_region "peek";
  let off = s.Layout.offset in
  V.decode_value
    (Layout.slot_type s ~proc:ctx.sc_proc)
    (Vm.bytes ctx.sc_region) ~off
    ~stop:(off + s.Layout.size)

let arg ctx i = decode_slot ctx (nth_input ctx i)

let rec decode_slots ctx = function
  | [] -> []
  | s :: rest ->
      let v = decode_slot ctx s in
      v :: decode_slots ctx rest

let args ctx = decode_slots ctx ctx.sc_plan.Layout.in_slots

let raw_arg ctx i =
  let s = nth_input ctx i in
  Vm.peek ~by:ctx.sc_binding.b_server ctx.sc_region ~off:s.Layout.offset
    ~len:s.Layout.size

let work ctx d =
  Engine.delay ~category:Lrpc_sim.Category.Server_work (engine ctx.sc_rt) d

let client ctx = ctx.sc_binding.b_client
let server ctx = ctx.sc_binding.b_server
let proc_name ctx = ctx.sc_proc.I.proc_name

let alerted ctx = Rt.alerted ctx.sc_rt ctx.sc_thread
