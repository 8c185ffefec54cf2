(* opera generate — write a synthetic power-grid netlist. *)

let run argv =
  let nodes = ref 2000 in
  let out = ref "grid.sp" in
  let args =
    [
      Cli_common.nodes_arg nodes;
      Util.Args.string [ "--out"; "-o" ] ~docv:"FILE" ~doc:"Output netlist file." out;
    ]
  in
  Cli_common.dispatch ~prog:"opera generate" ~summary:"Generate a synthetic power-grid netlist."
    ~args ~argv
  @@ fun _ ->
  Cli_common.check_output "--out" (Some !out);
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default !nodes in
  let circuit = Powergrid.Grid_gen.generate spec in
  Cli_common.writing "--out" (fun () ->
      Powergrid.Netlist.write_file !out ~title:(Powergrid.Grid_spec.describe spec) circuit);
  Printf.printf "wrote %s: %s\n" !out (Powergrid.Circuit.stats circuit);
  0
