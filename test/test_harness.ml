(* The Domain-parallel harness must be a pure wall-clock optimisation:
   fanning work across domains may never change a byte of output. The
   determinism suite regenerates the heaviest artifacts (t5, fig2) and
   the chaos soak serially and with 4 domains and compares digests. *)

module Parallel = Lrpc_harness.Parallel
module Suite = Lrpc_experiments.Suite
module Soak = Lrpc_fault.Soak

let test_map_preserves_order () =
  let out = Parallel.map ~jobs:4 (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int)) "input order" [ 1; 4; 9; 16; 25; 36; 49 ] out

let test_map_serial_matches_parallel () =
  let f x = Printf.sprintf "%d:%d" x (x * 31) in
  let items = List.init 23 Fun.id in
  Alcotest.(check (list string))
    "jobs:1 = jobs:4"
    (Parallel.map ~jobs:1 f items)
    (Parallel.map ~jobs:4 f items)

exception Boom of int

let test_map_reraises () =
  Alcotest.check_raises "exception propagates" (Boom 3) (fun () ->
      ignore
        (Parallel.map ~jobs:2
           (fun x -> if x = 3 then raise (Boom x) else x)
           [ 1; 2; 3; 4 ]))

let test_map_clamps_jobs () =
  (* More jobs than items, zero and negative jobs are all legal. *)
  Alcotest.(check (list int)) "jobs > items" [ 2; 4 ]
    (Parallel.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "jobs:0" [ 2; 4 ]
    (Parallel.map ~jobs:0 (fun x -> 2 * x) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty" []
    (Parallel.map ~jobs:4 (fun x -> x) ([] : int list))

(* --- serial vs parallel artifact digests -------------------------------- *)

let digest_of_run jobs =
  let artifacts = [ "t5"; "f2" ] in
  let outputs =
    Parallel.map ~jobs (fun n -> Suite.run ~quick:true n) artifacts
  in
  Digest.to_hex (Digest.string (String.concat "\x00" outputs))

let test_artifacts_serial_vs_jobs4 () =
  Alcotest.(check string)
    "t5+fig2 digests byte-identical" (digest_of_run 1) (digest_of_run 4)

let soak_digests jobs =
  (* Four independent soaks with distinct seeds, fanned across [jobs]
     domains; each report's trace digest must not care where it ran. *)
  let seeds = [ 0xC0FFEEL; 1L; 2L; 3L ] in
  Parallel.map ~jobs
    (fun seed ->
      let r = Soak.run { Soak.default with Soak.seed; calls = 800 } in
      r.Soak.r_digest)
    seeds

let test_soak_serial_vs_jobs4 () =
  Alcotest.(check (list string))
    "soak trace digests byte-identical" (soak_digests 1) (soak_digests 4)

let () =
  Alcotest.run "lrpc_harness"
    [
      ( "parallel map",
        [
          Alcotest.test_case "preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "serial = parallel" `Quick
            test_map_serial_matches_parallel;
          Alcotest.test_case "re-raises" `Quick test_map_reraises;
          Alcotest.test_case "clamps jobs" `Quick test_map_clamps_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "artifacts serial vs --jobs 4" `Slow
            test_artifacts_serial_vs_jobs4;
          Alcotest.test_case "chaos soak serial vs --jobs 4" `Slow
            test_soak_serial_vs_jobs4;
        ] );
    ]
