type t = Rt.runtime

exception Not_in_thread of string

module Options = struct
  type t = {
    audit : Lrpc_kernel.Vm.audit option;
    defensive_copies : bool;
    wait : bool;
    deadline : Lrpc_sim.Time.t option;
  }

  let default =
    { audit = None; defensive_copies = false; wait = false; deadline = None }
end

type failure =
  | Failed of string
  | Aborted of string
  | Deadline of string
  | Rejected of string
  | Overloaded of { reason : string; retry_after_us : float }
  | Stub_raised of string

let failure_to_string = function
  | Failed m -> "failed: " ^ m
  | Aborted m -> "aborted: " ^ m
  | Deadline m -> "deadline: " ^ m
  | Rejected m -> "rejected: " ^ m
  | Overloaded { reason; retry_after_us } ->
      Printf.sprintf "overloaded: %s (retry after %.0f us)" reason
        retry_after_us
  | Stub_raised m -> "stub raised: " ^ m

let init ?config kernel =
  let rt = Rt.create ?config kernel in
  Termination.install rt;
  rt

let kernel (rt : t) = rt.Rt.kernel
let engine (rt : t) = Rt.engine rt

(* The call-path entry points only make sense on a simulated thread;
   anywhere else (setup code, a finished engine) the failure should name
   the culprit instead of surfacing as an engine internal. *)
let require_thread rt fn =
  match Lrpc_sim.Engine.self_opt (Rt.engine rt) with
  | Some _ -> ()
  | None -> raise (Not_in_thread fn)

let opt_audit options =
  match options with Some o -> o.Options.audit | None -> None

let opt_deadline options =
  match options with Some o -> o.Options.deadline | None -> None

let export rt ~domain ?options iface ~impls =
  let defensive_copies =
    match options with Some o -> o.Options.defensive_copies | None -> false
  in
  Binding.export rt ~domain ~defensive_copies iface ~impls

let import ?options rt ~domain ~interface =
  let wait =
    match options with Some o -> o.Options.wait | None -> false
  in
  Binding.import ~wait rt ~domain ~interface

let call ?options rt b ~proc args =
  require_thread rt "Api.call";
  Call.call ?audit:(opt_audit options) ?deadline:(opt_deadline options) rt b
    ~proc args

let call_async ?options rt b ~proc args =
  require_thread rt "Api.call_async";
  Call.call_async ?audit:(opt_audit options) ?deadline:(opt_deadline options)
    rt b ~proc args

let await ?timeout rt h =
  require_thread rt "Api.await";
  Call.await ?timeout rt h

let await_any rt hs =
  require_thread rt "Api.await_any";
  Call.await_any rt hs

let await_all ?timeout rt hs =
  require_thread rt "Api.await_all";
  Call.await_all ?timeout rt hs

let abort rt h ~reason = Call.abort rt h ~reason

let set_admission (rt : t) a = rt.Rt.admission <- a

(* Graceful degradation: the typed LRPC failures become a [result];
   caller bugs ([Not_in_thread], [Already_awaited], [Invalid_argument])
   and thread death still raise, and anything else that escaped the
   server procedure is reported as [Stub_raised]. *)
let classify_failure = function
  | Rt.Call_failed m -> Error (Failed m)
  | Rt.Call_aborted m -> Error (Aborted m)
  | Rt.Deadline_exceeded m -> Error (Deadline m)
  | Rt.Bad_binding m -> Error (Rejected m)
  | Rt.Not_exported m -> Error (Rejected ("not exported: " ^ m))
  | Rt.Overloaded { ov_reason; ov_backoff_us } ->
      Error (Overloaded { reason = ov_reason; retry_after_us = ov_backoff_us })
  | ( Lrpc_sim.Engine.Thread_killed | Rt.Already_awaited _ | Not_in_thread _
    | Invalid_argument _ | Rt.Unwind_termination ) as exn ->
      raise exn
  | exn -> Error (Stub_raised (Printexc.to_string exn))

let call_result ?options rt b ~proc args =
  match call ?options rt b ~proc args with
  | outputs -> Ok outputs
  | exception exn -> classify_failure exn

let await_result ?timeout rt h =
  match await ?timeout rt h with
  | outputs -> Ok outputs
  | exception exn -> classify_failure exn

let await_all_results ?timeout rt hs =
  List.map (fun h -> await_result ?timeout rt h) hs

let call1 ?options rt b ~proc args =
  match call ?options rt b ~proc args with
  | [ v ] -> v
  | outputs ->
      invalid_arg
        (Printf.sprintf "Api.call1 %s: %d outputs" proc (List.length outputs))

let terminate_domain rt d = Lrpc_kernel.Kernel.terminate_domain rt.Rt.kernel d

let release_captured = Termination.release_captured

let alert rt th = Rt.alert rt th

let calls_completed = Call.calls_completed
let calls_in_flight (rt : t) = rt.Rt.in_flight
