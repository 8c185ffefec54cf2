(* opera walk — localized single-node DC estimate by random walks. *)

let run argv =
  let netlist = ref None and nodes = ref 2000 and walks = ref 5000 and seed = ref 7 in
  let args =
    [
      Cli_common.netlist_arg netlist;
      Cli_common.nodes_arg nodes;
      Cli_common.positive_int [ "--walks" ] ~doc:"Number of random walks." walks;
      Cli_common.seed_arg seed;
    ]
  in
  Cli_common.dispatch ~prog:"opera walk"
    ~summary:"Localized single-node DC estimate by random walks." ~args ~argv
  @@ fun _ ->
  let circuit, _, spec = Cli_common.load_circuit !netlist !nodes in
  let a = Powergrid.Mna.assemble circuit in
  let time = 0.3e-9 in
  let node =
    match spec with
    | Some s -> Powergrid.Grid_gen.center_node s
    | None -> Powergrid.Circuit.node_count circuit / 2
  in
  let walks = !walks in
  let w = Powergrid.Random_walk.prepare a ~time in
  let rng = Prob.Rng.create ~seed:(Int64.of_int !seed) () in
  let (est, se), t = Util.Timer.time (fun () -> Powergrid.Random_walk.estimate w rng ~node ~walks) in
  Printf.printf "node %d at t = %.3g ns: %.6f V +- %.2e (%d walks, %.3f s)\n" node (time *. 1e9)
    est se walks t;
  let exact = Powergrid.Dc.solve_at a time in
  Printf.printf "direct solve reference: %.6f V (error %.2e)\n" exact.(node)
    (Float.abs (est -. exact.(node)));
  0
