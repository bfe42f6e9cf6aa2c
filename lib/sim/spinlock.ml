module Event = Lrpc_obs.Event
module Metrics = Lrpc_obs.Metrics

type t = {
  name : string;
  engine : Engine.t;
  mutable holder : Engine.thread option;
  waiters : Engine.thread Queue.t;
  c_contended : Metrics.counter;
  c_acquires : Metrics.counter;
}

let create ?(name = "lock") engine =
  let m = Engine.metrics engine in
  let labels = [ ("lock", name) ] in
  {
    name;
    engine;
    holder = None;
    waiters = Queue.create ();
    c_contended = Metrics.counter m ~labels "sim.lock_contended";
    c_acquires = Metrics.counter m ~labels "sim.lock_acquires";
  }

let acquire t =
  let me = Engine.self t.engine in
  Metrics.Counter.incr t.c_acquires;
  let traced = Engine.tracing t.engine in
  (match t.holder with
  | None ->
      (* [me]'s preallocated [Some]: an uncontended acquire allocates
         nothing. *)
      t.holder <- Engine.self_opt t.engine;
      if traced then Engine.emit t.engine (Event.Lock_acquire { lock = t.name })
  | Some _ ->
      Metrics.Counter.incr t.c_contended;
      if traced then Engine.emit t.engine (Event.Lock_contend { lock = t.name });
      Queue.push me t.waiters;
      (* Spin until a releaser hands us the lock: when [spin_suspend]
         returns, [release] has already made us the holder. *)
      Engine.spin_suspend t.engine;
      assert (match t.holder with Some th -> th == me | None -> false);
      if Engine.tracing t.engine then
        Engine.emit t.engine (Event.Lock_acquire { lock = t.name }))

let release t =
  (match t.holder with
  | Some th when th == Engine.self t.engine -> ()
  | _ -> invalid_arg (t.name ^ ": release by non-holder"));
  match Queue.take_opt t.waiters with
  | Some next ->
      t.holder <- Some next;
      Engine.wake t.engine next
  | None -> t.holder <- None

let with_lock t ~hold f =
  acquire t;
  if hold <> Time.zero then Engine.delay ~category:Category.Lock t.engine hold;
  Fun.protect ~finally:(fun () -> release t) f

let holder t = t.holder
let contended_acquires t = Metrics.Counter.value t.c_contended
