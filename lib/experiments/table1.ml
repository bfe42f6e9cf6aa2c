module Prng = Lrpc_util.Prng
module Table = Lrpc_util.Table
module Os = Lrpc_workload.Os_profiles

type row = {
  os : string;
  operations : int;
  cross_machine : int;
  measured_percent : float;
  paper_percent : float;
}

type result = {
  rows : row list;
  sessions : Lrpc_workload.Session.report list;
  seed : int64;
}

let run ?(seed = 1989L) ?(operations = 1_000_000) () =
  let rng = Prng.create ~seed in
  let rows =
    List.map
      (fun model ->
        let r = Os.run (Prng.split rng) model ~operations in
        {
          os = model.Os.os_name;
          operations = r.Os.operations;
          cross_machine = r.Os.cross_machine;
          measured_percent = r.Os.percent_cross_machine;
          paper_percent = model.Os.paper_percent;
        })
      Os.all
  in
  let sessions =
    List.map
      (fun model ->
        Lrpc_workload.Session.run ~seed model)
      Os.all
  in
  { rows; sessions; seed }

let render r =
  let t =
    Table.create
      ~columns:
        [
          ("Operating System", Table.Left);
          ("Operations", Table.Right);
          ("Cross-Machine", Table.Right);
          ("Measured %", Table.Right);
          ("Paper %", Table.Right);
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t
        [
          row.os;
          string_of_int row.operations;
          string_of_int row.cross_machine;
          Printf.sprintf "%.1f" row.measured_percent;
          Printf.sprintf "%.1f" row.paper_percent;
        ])
    r.rows;
  "Table 1: Frequency of Remote Activity\n"
  ^ "(percentage of operations that cross machine boundaries)\n"
  ^ Table.to_string t
  ^ "\nLive sessions (every operation actually performed through LRPC or the\n\
     network path on a simulated workstation):\n"
  ^ String.concat "\n" (List.map Lrpc_workload.Session.render r.sessions)
