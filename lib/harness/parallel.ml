(* Domain-parallel map over independent work items.

   Items are claimed from a shared atomic cursor and evaluated in
   whichever domain reaches them first; each result lands in a slot
   indexed by the item's input position, so the returned list is in
   input order regardless of scheduling. Workers share nothing else:
   the simulator keeps all engine state per-instance, so fanning
   artifact regeneration across domains cannot change any simulated
   number — only the wall clock. *)

let default_jobs () = Domain.recommended_domain_count ()

type 'b slot = Empty | Value of 'b | Raised of exn * Printexc.raw_backtrace

let map ?jobs f items =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    (* Serial path: same code shape, no domains spawned. *)
    Array.to_list (Array.map f items)
  else begin
    let results = Array.make n Empty in
    let cursor = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            (match f items.(i) with
            | v -> Value v
            | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
      done
    in
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join others;
    (* Domain.join gives the happens-before edge that makes every slot
       written by a worker visible here. *)
    Array.to_list
      (Array.map
         (function
           | Value v -> v
           | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
           | Empty -> assert false)
         results)
  end
