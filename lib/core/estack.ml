open Rt

let now rt = Engine.now (engine rt)

let fresh_estack rt ~server pool =
  let region =
    Kernel.alloc_region rt.kernel ~owner:server ~name:pool.ep_name
      ~bytes:estack_bytes ~mapped:[ server ]
  in
  let rec es =
    { es_region = region; es_assoc = None; es_some = Some es; es_next_free = None }
  in
  es

(* The free list is linked through the E-stacks themselves, so pushing
   and popping allocate nothing. *)
let push_free pool es =
  es.es_next_free <- pool.ep_free;
  pool.ep_free <- es.es_some

let pop_free pool es =
  pool.ep_free <- es.es_next_free;
  es.es_next_free <- None

(* E-stacks whose A-stacks were last used at or before [keep_newer_than]
   and whose linkage is not in use: an A-stack with a call in the server
   still runs on its E-stack (paper §3.2 reclaims only E-stacks not in
   use). *)
let rec reclaim_from pool keep_newer_than n = function
  | [] -> n
  | es :: rest -> (
      match es.es_assoc with
      | Some a
        when (not a.a_linkage.l_in_use)
             && Time.compare a.a_last_used keep_newer_than <= 0 ->
          a.a_estack <- None;
          es.es_assoc <- None;
          push_free pool es;
          reclaim_from pool keep_newer_than (n + 1) rest
      | Some _ | None -> reclaim_from pool keep_newer_than n rest)

let reclaim rt ~server ~keep_newer_than =
  let pool = estack_pool rt server in
  reclaim_from pool keep_newer_than 0 pool.ep_all

let associate rt ~server astack =
  match astack.a_estack with
  | Some es -> es
  | None ->
      let pool = estack_pool rt server in
      let es =
        match pool.ep_free with
        | Some es ->
            pop_free pool es;
            es
        | None ->
            if Kernel.region_fits rt.kernel ~owner:server ~bytes:estack_bytes
            then begin
              let es = fresh_estack rt ~server pool in
              (* Only a genuinely fresh E-stack costs kernel allocation
                 time on the call path; recycled ones were paid for
                 already. *)
              pool.ep_all <- es :: pool.ep_all;
              Engine.delay ~category:Lrpc_sim.Category.Kernel_transfer
                (engine rt) estack_alloc_cost;
              es
            end
            else begin
              (* The server's address space is exhausted: reclaim every
                 association not in use and older than now, and take one
                 of them. *)
              if reclaim rt ~server ~keep_newer_than:(now rt) = 0 then
                raise Out_of_memory;
              match pool.ep_free with
              | Some es ->
                  pop_free pool es;
                  es
              | None -> raise Out_of_memory
            end
      in
      es.es_assoc <- astack.a_some;
      astack.a_estack <- es.es_some;
      Footprint.set_estack rt astack es;
      es

let preallocate_all rt ~server astacks =
  let pool = estack_pool rt server in
  List.iter
    (fun a ->
      match a.a_estack with
      | Some _ -> ()
      | None ->
          let es = fresh_estack rt ~server pool in
          pool.ep_all <- es :: pool.ep_all;
          es.es_assoc <- a.a_some;
          a.a_estack <- es.es_some)
    astacks

let rec free_length n = function
  | None -> n
  | Some es -> free_length (n + 1) es.es_next_free

let pool_stats rt ~server ~total ~free =
  let pool = estack_pool rt server in
  total := List.length pool.ep_all;
  free := free_length 0 pool.ep_free
