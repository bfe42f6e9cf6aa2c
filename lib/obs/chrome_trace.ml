module Json = Lrpc_util.Json

let ts_us (at : Time.t) = Json.Fixed (3, Time.to_us at)

(* One simulated machine per trace, drawn as one process. *)
let pid = Json.Int 0

(* Thread names are not carried on every event; recover them from the
   dispatch/finish events present in the ring. *)
let thread_names events =
  let names = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Event.Dispatch { thread; _ }
      | Event.Block { thread }
      | Event.Wake { thread }
      | Event.Finish { thread; _ } ->
          if not (Hashtbl.mem names e.Trace.tid) then
            Hashtbl.replace names e.Trace.tid thread
      | _ -> ())
    events;
  names

let event_json (e : Trace.event) =
  let open Json in
  let common = [ ("pid", pid); ("tid", Int e.Trace.tid); ("ts", ts_us e.Trace.at) ] in
  let args = ("args", Obj (("cpu", Int e.Trace.cpu) :: Event.args e.Trace.kind)) in
  match e.Trace.kind with
  | Event.Slice { category; dur } ->
      (* A charged delay renders as a complete ("X") duration slice. *)
      Obj
        ([
           ("name", String (Category.to_string category));
           ("cat", String (Category.slug category)); ("ph", String "X");
         ]
        @ common @ [ ("dur", ts_us dur); args ])
  | kind ->
      (* Everything else is an instant event on the thread's track. *)
      Obj
        ([
           ("name", String (Event.name kind)); ("cat", String "sched");
           ("ph", String "i"); ("s", String "t");
         ]
        @ common @ [ args ])

let to_json tr =
  let open Json in
  let events = Trace.events tr in
  let meta name ids label =
    Obj
      ([ ("name", String name); ("ph", String "M"); ("pid", pid) ]
      @ ids @ [ ("args", Obj [ ("name", String label) ]) ])
  in
  (* Consing reverses the name table's iteration order, which the bytes
     have always followed; List.rev restores it. *)
  let threads =
    Hashtbl.fold
      (fun tid name acc ->
        meta "thread_name" [ ("tid", Int tid) ] (Printf.sprintf "%s (t%d)" name tid)
        :: acc)
      (thread_names events) []
  in
  Obj
    [
      ("displayTimeUnit", String "ns");
      ( "traceEvents",
        List
          ((meta "process_name" [] "lrpc-sim" :: List.rev threads)
          @ List.map event_json events) );
      ("otherData", Obj [ ("droppedEvents", Int (Trace.dropped tr)) ]);
    ]
