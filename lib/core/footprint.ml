open Rt

let take n l = List.filteri (fun i _ -> i < n) l

let build_call_side rt b astack estack ~data_region =
  let server_pages = pages_of_domain rt b.b_server in
  rt.kernel_call_pages
  @ b.b_export.ex_stub_pages
  @ server_pages.dp_code
  @ take 4 estack.es_region.Vm.pages
  @ data_region.Vm.pages
  @ b.b_export.ex_pdl_pages
  @ astack.a_linkage.l_region.Vm.pages
  @ rt.binding_table_pages

(* Every input but the E-stack and the data region is fixed for an
   A-stack (its pool belongs to one binding). The A-stack keeps the list
   for the E-stack it was built with; an out-of-band segment is fresh
   each call, so that list is never kept. [pages_of_domain] allocates a
   domain's pages on first use, and building here, on the call path,
   keeps that at the server's first call. *)
let call_side rt b astack estack ~data_region =
  if data_region != astack.a_region then
    build_call_side rt b astack estack ~data_region
  else
    match astack.a_footprint with
    | Some (es, pages) when es == estack -> pages
    | Some _ | None ->
        let pages = build_call_side rt b astack estack ~data_region in
        astack.a_footprint <- Some (estack, pages);
        pages

(* Built at the binding's first return, not at bind time, so that
   [pages_of_domain] still allocates the client's code and stack pages
   at the client's first return. *)
let return_side rt b =
  match b.b_return_pages with
  | _ :: _ as pages -> pages
  | [] ->
      let client_pages = pages_of_domain rt b.b_client in
      let pages =
        rt.kernel_return_pages
        @ b.b_client_stub_pages
        @ client_pages.dp_code
        @ client_pages.dp_stack
      in
      b.b_return_pages <- pages;
      pages
