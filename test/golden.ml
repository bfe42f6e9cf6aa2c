(* The manifest of every simulated output: one line per output, the md5
   of what it printed and the command that printed it.

   Run as [golden.exe EXPERIMENTS TRACE EXAMPLE...] with the paths of
   the lrpc_experiments and lrpc_trace executables and of each example.
   It runs every artifact's --quick text rendering, every --quick JSON
   rendering (and openloop's --shedding one), two lrpc_trace runs and
   every example, and prints the manifest on stdout. test/dune diffs it
   against golden.txt, so a moved output fails `dune runtest` with the
   line of each entry that moved; `dune promote` rewrites golden.txt.

   Run as [golden.exe --full EXPERIMENTS], it prints the manifest of the
   full-horizon renderings instead: every artifact's text rendering
   without --quick, every JSON rendering and openloop's --shedding one.
   They take a few seconds each, so test/dune diffs them against
   golden_full.txt under the alias golden-full (`make golden-full`),
   not under runtest.

   A command that exits non-zero fails the run, naming the command. *)

module Suite = Lrpc_experiments.Suite

let output_of prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Printf.eprintf "golden: %s exited with status %d\n"
        (String.concat " " (Filename.basename prog :: args)) n;
      exit 1

let entry name prog args =
  Printf.printf "%s  %s\n"
    (Digest.to_hex (Digest.string (output_of prog args)))
    name

let rendering experiments args =
  entry
    ("lrpc_experiments " ^ String.concat " " args)
    experiments (args @ [ "--jobs"; "1" ])

let () =
  match Array.to_list Sys.argv with
  | [ _; "--full"; experiments ] ->
      let run = rendering experiments in
      List.iter (fun n -> run [ n ]) Suite.names;
      List.iter (fun n -> run [ n; "--json" ]) Suite.json_names;
      run [ "openloop"; "--json"; "--shedding" ]
  | _ :: experiments :: trace :: examples ->
      let run = rendering experiments in
      List.iter (fun n -> run [ n; "--quick" ]) Suite.names;
      List.iter (fun n -> run [ n; "--quick"; "--json" ]) Suite.json_names;
      run [ "openloop"; "--quick"; "--json"; "--shedding" ];
      List.iter
        (fun args ->
          entry ("lrpc_trace " ^ String.concat " " args) trace args)
        [ [ "--calls"; "10"; "--metrics" ]; [ "--mp"; "--calls"; "20"; "--metrics" ] ];
      List.iter
        (fun ex ->
          entry ("example " ^ Filename.(remove_extension (basename ex))) ex [])
        examples
  | _ ->
      prerr_endline
        "usage: golden.exe EXPERIMENTS TRACE EXAMPLE...\n\
        \       golden.exe --full EXPERIMENTS";
      exit 2
