(* lrpcbench: the host cost of producing the simulator's results.

     lrpcbench.exe [--workload NAME] [--seed N] [--seconds S]
                   [--trace 0|1] [--quick] [--no-pins] [--out FILE]

   With --trace 0, timed repetitions of one workload give the five
   end-to-end metrics; with --trace 1, a traced pass, an untraced pass
   and the per-layer primitives give the per-layer ones; with neither,
   both. Every metric is printed as `workload metric value unit`, and
   the last line is one JSON object {correct, attempted, failed,
   metrics}. Without --workload, each workload runs in turn in a child
   process and the last line gathers their objects.

   Simulated outputs are the correctness gate: every run's digest must
   match every other run's, the pinned digest at the default seed, and
   the chaos-soak and Table 4/5 pins (checked after the measurements,
   so their heap is not the workload's; --no-pins skips them). Exit
   code 0 only when every check holds; 2 on a usage error. *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool option;
  quick : bool;
  pins : bool;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: lrpcbench.exe [--workload NAME] [--seed N] [--seconds S] [--trace \
     0|1] [--quick] [--no-pins] [--out FILE]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: r -> go { a with workload = Some v } r
    | "--seed" :: v :: r -> (
        match int_of_string_opt v with
        | Some s -> go { a with seed = s } r
        | None -> usage ())
    | "--seconds" :: v :: r -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } r
        | _ -> usage ())
    | "--trace" :: "0" :: r -> go { a with trace = Some false } r
    | "--trace" :: "1" :: r -> go { a with trace = Some true } r
    | "--quick" :: r -> go { a with quick = true } r
    | "--no-pins" :: r -> go { a with pins = false } r
    | "--out" :: v :: r -> go { a with out = Some v } r
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = Workloads.default_seed;
      seconds = 20.0;
      trace = None;
      quick = false;
      pins = true;
      out = None;
    }
    (List.tl (Array.to_list argv))

(* A non-finite value fails a check; it is written as 0 to keep the
   line valid JSON. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit (a : args) obj =
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (obj ^ "\n")))
    a.out;
  print_endline obj

let run_one (a : args) (w : Workloads.t) =
  (* --quick: one repetition and the fewest set-up builds. *)
  let quick = a.quick and seed = a.seed in
  let seconds = if quick then 0.0 else a.seconds in
  (* In this order: [peak_heap_mb] is read at the end of [end_to_end],
     so nothing that runs before it may grow the heap — not the
     per-layer pass, and not the chaos soak and Table 4/5 suite that
     the paper pins run. *)
  let e2e =
    if a.trace <> Some true then [ Report.end_to_end w ~quick ~seed ~seconds ] else []
  in
  let layer =
    if a.trace <> Some false then
      [ Report.per_layer ~prims:(Report.measure_prims ~seconds) w ~quick ~seed ~seconds ]
    else []
  in
  let outcomes = e2e @ layer in
  let pins = if a.pins then Report.paper_pins () else [] in
  let metrics = List.concat_map (fun (o : Report.outcome) -> o.metrics) outcomes in
  let checks =
    pins
    @ List.concat_map (fun (o : Report.outcome) -> o.checks) outcomes
    @ [
        ( "every metric is a finite number",
          List.for_all (fun (m : Report.metric) -> Float.is_finite m.value) metrics );
      ]
  in
  List.iter
    (fun (what, ok) -> if not ok then Printf.printf "%s CHECK FAILED: %s\n" w.name what)
    checks;
  let correct = List.for_all snd checks in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let attempted = sum (fun o -> o.Report.attempted) in
  (* A failed check invalidates every call, not only those that
     returned errors. *)
  let failed = if correct then sum (fun o -> o.Report.failed) else attempted in
  emit a
    (Printf.sprintf
       "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
       correct attempted failed
       (String.concat ", "
          (List.map
             (fun (m : Report.metric) ->
               Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
                 (json_number m.value) m.unit)
             metrics)));
  exit (if correct then 0 else 1)

(* Each workload in a fresh child process (its own heap, so
   [peak_heap_mb] is the workload's), one after another. Only the
   parent writes --out. *)
let run_all (a : args) =
  let rec strip = function
    | "--out" :: _ :: r -> strip r
    | x :: r -> x :: strip r
    | [] -> []
  in
  let argv = Array.of_list (strip (Array.to_list Sys.argv)) in
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let ic =
          Unix.open_process_args_in Sys.executable_name
            (Array.append argv [| "--workload"; w.name |])
        in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        (w.name, Unix.close_process_in ic = Unix.WEXITED 0, !last))
      Workloads.all
  in
  emit a
    (Printf.sprintf "{\"workloads\": {%s}}"
       (String.concat ", "
          (List.map (fun (n, _, l) -> Printf.sprintf "\"%s\": %s" n l) results)));
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

let () =
  let a = parse Sys.argv in
  match a.workload with
  | None -> run_all a
  | Some name -> (
      match Workloads.find name with
      | Some w -> run_one a w
      | None ->
          Printf.eprintf "lrpcbench: unknown workload %S (try: %s)\n" name
            (String.concat ", "
               (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
          exit 2)
