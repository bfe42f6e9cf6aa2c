open Rt

type t = Rt.call_handle

type state = [ `Issued | `In_flight | `Landed_ok | `Landed_error | `Consumed ]

let id h = h.ch_id
let proc h = h.ch_proc
let binding h = h.ch_binding
let issuer h = h.ch_issuer
let carrier h = h.ch_carrier

let state h : state =
  match h.ch_state with
  | Issued -> `Issued
  | In_flight -> `In_flight
  | Landed (Ok ()) -> `Landed_ok
  | Landed (Error _) -> `Landed_error
  | Consumed -> `Consumed

let is_consumed h =
  match h.ch_state with Consumed -> true | _ -> false

let is_remote h =
  match h.ch_kind with Ck_remote _ -> true | Ck_local _ -> false
