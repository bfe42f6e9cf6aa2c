(* The benchmark's own tests, run by `dune runtest` with the paths of
   BENCHMARK.json and lrpcbench.exe:

   - The sampler does not perturb the simulation: each workload's quick
     digest is the same with no sampler at all and with the sampler at
     two different periods, and equals its pin.
   - A --quick run of each workload reports every metric BENCHMARK.json
     declares, as a finite number with a unit, with every correctness
     check passing and no failed call.
   - The paper pins do not reach [peak_heap_mb]: lrpcbench reports the
     same peak heap for a workload with and without them. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("test_lrpcbench: " ^ s);
      exit 1)
    fmt

(* The "name" values of one top-level array of BENCHMARK.json. The file
   is written by hand in a fixed shape: each array is a list of flat
   objects, so the first "]" after the key closes it. *)
let names_in json key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "%S:" key) with
  | None -> fail "BENCHMARK.json has no %S" key
  | Some start ->
      let stop = Option.get (find_from start "]") in
      let rec collect i acc =
        match find_from i "\"name\": \"" with
        | Some j when j < stop ->
            let v = j + 9 in
            let e = String.index_from json v '"' in
            collect e (String.sub json v (e - v) :: acc)
        | _ -> List.rev acc
      in
      collect start []

(* The value of metric [name] in the JSON object lrpcbench prints last. *)
let metric_value line name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let n = String.length key and len = String.length line in
  let rec find i =
    if i + n > len then fail "no %s in %s" name line
    else if String.sub line i n = key then i + n
    else find (i + 1)
  in
  let v = find 0 in
  let e = String.index_from line v ',' in
  float_of_string (String.sub line v (e - v))

(* [peak_heap_mb] of a --quick, end-to-end-only child run of [w]. *)
let child_peak_heap exe w extra =
  let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
  let ic =
    Unix.open_process_args_in exe
      (Array.of_list
         ([ exe; "--workload"; w; "--quick"; "--trace"; "0" ] @ extra))
  in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  if Unix.close_process_in ic <> Unix.WEXITED 0 then
    fail "%s %s exited non-zero" w (String.concat " " extra);
  metric_value !last "peak_heap_mb"

let () =
  let json = In_channel.with_open_text Sys.argv.(1) In_channel.input_all in
  let declared = names_in json "workloads" in
  let defined = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  if declared <> defined then
    fail "BENCHMARK.json workloads [%s] differ from [%s]"
      (String.concat " " declared) (String.concat " " defined);
  let quick = true and seed = Workloads.default_seed in
  List.iter
    (fun (w : Workloads.t) ->
      let horizon = Workloads.horizon w ~quick in
      let digest ?sampled ?windows () =
        (Bench.run ?sampled ?windows w ~quick ~seed ~horizon).Bench.digest
      in
      let off = digest ~sampled:false () in
      let on = digest () and other = digest ~windows:37 () in
      if on <> off || other <> off then
        fail "%s: sampler perturbs the digest (off %s, on %s, other period %s)"
          w.name off on other;
      if off <> Workloads.pinned w ~quick then
        fail "%s: quick digest %s, pinned %s" w.name off (Workloads.pinned w ~quick))
    Workloads.all;
  List.iter
    (fun (what, ok) -> if not ok then fail "paper pin: %s" what)
    (Report.paper_pins ());
  let with_pins = child_peak_heap Sys.argv.(2) "lrpc_serial" []
  and without = child_peak_heap Sys.argv.(2) "lrpc_serial" [ "--no-pins" ] in
  (* Within 0.1%: the argument vector, one string longer with
     --no-pins, is itself live. *)
  if Float.abs (with_pins -. without) > 1e-3 *. without then
    fail "lrpc_serial peak_heap_mb is %g MB with the paper pins, %g MB without"
      with_pins without;
  let prims = Report.measure_prims ~seconds:0.0 in
  let expect =
    [ ("end_to_end", names_in json "end_to_end"); ("per_layer", names_in json "per_layer") ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      let outcomes =
        [
          ("end_to_end", Report.end_to_end w ~quick ~seed ~seconds:0.0);
          ("per_layer", Report.per_layer ~prims w ~quick ~seed ~seconds:0.0);
        ]
      in
      List.iter
        (fun (kind, (o : Report.outcome)) ->
          List.iter (fun (what, ok) -> if not ok then fail "%s: %s" w.name what) o.checks;
          if o.failed <> 0 || o.attempted <= 0 then
            fail "%s %s: %d of %d calls failed" w.name kind o.failed o.attempted;
          let got = List.map (fun (m : Report.metric) -> m.name) o.metrics in
          if got <> List.assoc kind expect then
            fail "%s %s: metrics [%s], BENCHMARK.json declares [%s]" w.name kind
              (String.concat " " got)
              (String.concat " " (List.assoc kind expect));
          List.iter
            (fun (m : Report.metric) ->
              if not (Float.is_finite m.value) || m.unit = "" then
                fail "%s %s = %g %S" w.name m.name m.value m.unit)
            o.metrics)
        outcomes)
    Workloads.all
