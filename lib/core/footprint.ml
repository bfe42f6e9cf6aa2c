open Rt

(* The E-stack's working set: the pages a Null call touches of it. *)
let estack_pages = 4

let estack_working_set estack =
  let p = estack.es_region.Vm.pages in
  Array.sub p 0 (min estack_pages (Array.length p))

let build_call_side rt b astack estack ~data_region =
  let server_pages = pages_of_domain rt b.b_server in
  Tlb.footprint
  @@ Array.concat
    [
      rt.kernel_call_pages;
      b.b_export.ex_stub_pages;
      server_pages.dp_code;
      estack_working_set estack;
      data_region.Vm.pages;
      b.b_export.ex_pdl_pages;
      astack.a_linkage.l_region.Vm.pages;
      rt.binding_table_pages;
    ]

(* Every input but the E-stack and the data region is fixed for an
   A-stack (its pool belongs to one binding). The A-stack keeps the
   footprint for its current E-stack ({!set_estack} patches it); an
   out-of-band segment is fresh each call, so that footprint is never
   kept.
   [pages_of_domain] allocates a domain's pages on first use, and
   building here, on the call path, keeps that in the server's first
   call. *)
let call_side rt b astack estack ~data_region =
  if data_region != astack.a_region then
    build_call_side rt b astack estack ~data_region
  else if Tlb.footprint_length astack.a_footprint > 0 then astack.a_footprint
  else begin
    let pages = build_call_side rt b astack estack ~data_region in
    astack.a_footprint <- pages;
    astack.a_footprint_estack <-
      Array.length rt.kernel_call_pages
      + Array.length b.b_export.ex_stub_pages
      + Array.length (pages_of_domain rt b.b_server).dp_code;
    pages
  end

(* A processor's TLB may still hold a refill of the old pages, so the
   write goes through the engine, which settles it first. *)
let set_estack rt astack estack =
  if Tlb.footprint_length astack.a_footprint > 0 then begin
    let p = estack.es_region.Vm.pages in
    Engine.patch_footprint (engine rt) astack.a_footprint
      ~pos:astack.a_footprint_estack ~src:p
      ~len:(min estack_pages (Array.length p))
  end

(* Built at the binding's first return, not at bind time, so that
   [pages_of_domain] still allocates the client's code and stack pages
   at the client's first return. *)
let return_side rt b =
  if Tlb.footprint_length b.b_return_pages > 0 then b.b_return_pages
  else begin
    let client_pages = pages_of_domain rt b.b_client in
    let pages =
      Tlb.footprint
      @@ Array.concat
        [
          rt.kernel_return_pages;
          b.b_client_stub_pages;
          client_pages.dp_code;
          client_pages.dp_stack;
        ]
    in
    b.b_return_pages <- pages;
    pages
  end
