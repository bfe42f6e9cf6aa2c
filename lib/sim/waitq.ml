(* Each wait enqueues a cell that is deactivated when the wait exits by
   any path (signal, direct wake, or an interrupt/kill delivered while
   waiting). Signals skip deactivated cells, so a waiter that was removed
   by an interrupt can never swallow a signal meant for a live waiter. *)
type cell = { th : Engine.thread; mutable active : bool }

type t = { engine : Engine.t; waiters : cell Queue.t }

let create engine = { engine; waiters = Queue.create () }

let wait t =
  let cell = { th = Engine.self t.engine; active = true } in
  Queue.push cell t.waiters;
  Fun.protect
    ~finally:(fun () -> cell.active <- false)
    (fun () -> Engine.block t.engine)

let rec take_live t =
  match Queue.take_opt t.waiters with
  | Some cell ->
      if
        cell.active && Engine.alive cell.th
        && not (Engine.has_pending_interrupt cell.th)
      then Some cell.th
      else take_live t
  | None -> None

let signal t =
  match take_live t with
  | Some th ->
      Engine.wake t.engine th;
      true
  | None -> false

let broadcast t =
  let n = ref 0 in
  let rec drain () =
    match take_live t with
    | Some th ->
        Engine.wake t.engine th;
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  !n

let waiting t =
  Queue.fold (fun acc c -> if c.active then acc + 1 else acc) 0 t.waiters

let signal_handoff t =
  match take_live t with
  | Some th ->
      Engine.handoff t.engine ~to_:th;
      true
  | None -> false

let wait_handoff t ~to_ =
  let cell = { th = Engine.self t.engine; active = true } in
  Queue.push cell t.waiters;
  Fun.protect
    ~finally:(fun () -> cell.active <- false)
    (fun () -> Engine.handoff t.engine ~to_)
