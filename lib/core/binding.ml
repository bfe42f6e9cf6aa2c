open Rt

let note_bound rt b =
  let e = engine rt in
  Metrics.Counter.incr (Metrics.counter (Engine.metrics e) "lrpc.bindings");
  if Engine.tracing e then
    Engine.emit e
      (Event.Bound
         { interface = b.b_export.ex_iface.I.interface_name; binding = b.bid })

let export rt ~domain ?(defensive_copies = false) iface ~impls =
  (match I.validate iface with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Binding.export: " ^ msg));
  if not (Pdomain.active domain) then
    raise (Bad_binding ("export from terminating domain " ^ domain.Pdomain.name));
  if List.mem_assoc iface.I.interface_name rt.exports then
    invalid_arg
      ("Binding.export: interface already exported: " ^ iface.I.interface_name);
  List.iter
    (fun p ->
      if not (List.mem_assoc p.I.proc_name impls) then
        invalid_arg ("Binding.export: missing implementation for " ^ p.I.proc_name))
    iface.I.procs;
  let pdl =
    Kernel.alloc_region rt.kernel ~owner:domain
      ~name:(iface.I.interface_name ^ "-pdl") ~bytes:512 ~mapped:[ domain ]
  in
  let stubs =
    Kernel.alloc_region rt.kernel ~owner:domain
      ~name:(iface.I.interface_name ^ "-server-stubs") ~bytes:(2 * 512)
      ~mapped:[ domain ]
  in
  let ex =
    {
      ex_iface = iface;
      ex_server = domain;
      ex_defensive = defensive_copies;
      ex_impls = impls;
      ex_pdl_pages = pdl.Vm.pages;
      ex_stub_pages = stubs.Vm.pages;
      ex_revoked = false;
    }
  in
  rt.exports <- (iface.I.interface_name, ex) :: rt.exports;
  (* The clerk replies to any importers waiting in the kernel. *)
  (match Hashtbl.find_opt rt.pending_exports iface.I.interface_name with
  | Some q -> ignore (Waitq.broadcast q)
  | None -> ());
  ex

let build_binding rt ~client ex =
  let server = ex.ex_server in
  let page_size = (cost_model rt).Lrpc_sim.Cost_model.page_size in
  let layout_of p = Layout.of_proc ~default_size:rt.config.default_astack_size p in
  (* Under A-stack sharing (§3.1), procedures of similar size — same page
     count — draw from one pool whose A-stacks are sized for the largest
     of them and whose count is the largest simultaneous-call limit in
     the group (the shared total bounds everyone: a soft limit). *)
  let pool_for =
    if not rt.config.astack_sharing then fun (p : I.proc) ->
      let layout = layout_of p in
      Astack.make_pool rt ~client ~server ~proc:p
        ~size:layout.Layout.astack_size ~count:p.I.astacks
    else begin
      let shared : (int, astack_pool) Hashtbl.t = Hashtbl.create 8 in
      fun (p : I.proc) ->
        let layout = layout_of p in
        let pages = max 1 ((layout.Layout.astack_size + page_size - 1) / page_size) in
        match Hashtbl.find_opt shared pages with
        | Some pool -> pool
        | None ->
            let group =
              List.filter
                (fun (q : I.proc) ->
                  let ql = layout_of q in
                  max 1 ((ql.Layout.astack_size + page_size - 1) / page_size)
                  = pages)
                ex.ex_iface.I.procs
            in
            let size =
              List.fold_left
                (fun acc q -> max acc (layout_of q).Layout.astack_size)
                1 group
            in
            let count =
              List.fold_left (fun acc q -> max acc q.I.astacks) 1 group
            in
            let pool =
              Astack.make_pool rt ~client ~server ~proc:p ~size ~count
            in
            Hashtbl.replace shared pages pool;
            pool
    end
  in
  let procs =
    List.map
      (fun (p : I.proc) ->
        let layout = layout_of p in
        let pool = pool_for p in
        if rt.config.estack_policy = `Static then
          Estack.preallocate_all rt ~server pool.ap_all;
        let pb =
          {
            pb_spec = p;
            pb_layout = layout;
            pb_impl = List.assoc p.I.proc_name ex.ex_impls;
            pb_pool = pool;
          }
        in
        (p.I.proc_name, pb))
      ex.ex_iface.I.procs
  in
  let client_stubs =
    Kernel.alloc_region rt.kernel ~owner:client
      ~name:(ex.ex_iface.I.interface_name ^ "-client-stubs")
      ~bytes:(2 * 512) ~mapped:[ client ]
  in
  let b =
    {
      bid = rt.next_binding;
      b_client = client;
      b_server = server;
      b_export = ex;
      b_procs = procs;
      b_client_stub_pages = client_stubs.Vm.pages;
      b_return_pages = [];
      b_stats =
        make_call_stats rt ~bid:rt.next_binding ~client ~server;
      b_inflight = 0;
      b_srv_ewma_us = 0.0;
      b_revoked = false;
      b_remote = None;
    }
  in
  rt.next_binding <- rt.next_binding + 1;
  Hashtbl.replace rt.bindings b.bid b;
  note_bound rt b;
  b

let rec import ?(wait = false) rt ~domain ~interface =
  if not (Pdomain.active domain) then
    raise (Bad_binding ("import into terminating domain " ^ domain.Pdomain.name));
  match List.assoc_opt interface rt.exports with
  | Some ex when not ex.ex_revoked ->
      if not (Pdomain.active ex.ex_server) then
        raise (Bad_binding ("server domain terminating: " ^ interface))
      else build_binding rt ~client:domain ex
  | Some _ | None ->
      if wait then begin
        let q =
          match Hashtbl.find_opt rt.pending_exports interface with
          | Some q -> q
          | None ->
              let q = Waitq.create (engine rt) in
              Hashtbl.replace rt.pending_exports interface q;
              q
        in
        Waitq.wait q;
        import ~wait rt ~domain ~interface
      end
      else raise (Not_exported interface)

let make_remote_binding ?(window = 8) rt ~client ~server iface ~transport =
  let b =
    {
      bid = rt.next_binding;
      b_client = client;
      b_server = server;
      b_export =
        {
          ex_iface = iface;
          ex_server = server;
          ex_defensive = false;
          ex_impls = [];
          ex_pdl_pages = [];
          ex_stub_pages = [];
          ex_revoked = false;
        };
      b_procs = [];
      b_client_stub_pages = [];
      b_return_pages = [];
      b_stats =
        make_call_stats rt ~bid:rt.next_binding ~client ~server;
      b_inflight = 0;
      b_srv_ewma_us = 0.0;
      b_revoked = false;
      b_remote =
        Some
          {
            r_transport = transport;
            r_window = max 1 window;
            r_in_flight = 0;
            r_wait = Waitq.create (engine rt);
          };
    }
  in
  rt.next_binding <- rt.next_binding + 1;
  Hashtbl.replace rt.bindings b.bid b;
  note_bound rt b;
  b

let verify rt b ~caller ~proc =
  (match Hashtbl.find_opt rt.bindings b.bid with
  | Some issued when issued == b -> ()
  | Some _ | None -> raise (Bad_binding "forged Binding Object"));
  if b.b_revoked || b.b_export.ex_revoked then
    raise (Bad_binding "revoked Binding Object");
  if not (Pdomain.equal caller b.b_client) then
    raise (Bad_binding "Binding Object presented by foreign domain");
  match List.assoc_opt proc b.b_procs with
  | Some pb -> pb
  | None -> raise (Bad_binding ("no such procedure: " ^ proc))

let revoke rt b =
  if not b.b_revoked then begin
    b.b_revoked <- true;
    List.iter
      (fun (_, pb) ->
        List.iter
          (fun a ->
            if a.a_linkage.l_in_use then a.a_linkage.l_valid <- false)
          pb.pb_pool.ap_all;
        (* Callers queued on this pool must not be granted an A-stack of
           a dead binding: fail them out of the FIFO instead. Shared
           pools (§3.1) are visited once per procedure; later visits
           find no active waiters. *)
        Astack.fail_waiters rt pb.pb_pool
          (Call_failed
             (Printf.sprintf "binding #%d revoked while waiting for an A-stack"
                b.bid)))
      b.b_procs
  end
