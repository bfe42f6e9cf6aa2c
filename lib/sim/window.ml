(* Conservative time-window bounds over per-partition event heaps, for
   the isolated engine's parallel executor. *)

let min_time heaps =
  let best = ref max_int and found = ref false in
  Array.iter
    (fun h ->
      if not (Heap.is_empty h) then begin
        found := true;
        let tm = Heap.top_time h in
        if tm < !best then best := tm
      end)
    heaps;
  if !found then Some !best else None

let window_end ~start ~lookahead ~limit =
  (* Events strictly before the returned bound may execute; clamp so
     nothing past [limit] runs, and never produce an empty window even
     under a degenerate zero lookahead. *)
  let w = start + max lookahead 1 in
  if limit >= max_int - 1 then w else min w (limit + 1)
