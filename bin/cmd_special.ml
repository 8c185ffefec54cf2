(* opera special — Sec. 5.1 special case: leakage-only variation. *)

let run argv =
  let nodes = ref 2000
  and order = ref 2
  and steps = ref 24
  and step_ps = ref 125.0
  and regions = ref 4
  and lambda = ref 0.5
  and samples = ref 300
  and domains = ref 0
  and metrics_out = ref None
  and log_level = ref Util.Log.Warn in
  let args =
    [
      Cli_common.nodes_arg nodes;
      Cli_common.order_arg order;
      Cli_common.steps_arg steps;
      Cli_common.step_ps_arg step_ps;
      Cli_common.positive_int [ "--regions" ] ~doc:"Number of chip regions for Vth variation."
        regions;
      Util.Args.float [ "--lambda" ] ~doc:"Lognormal leakage shape parameter." lambda;
      Cli_common.samples_arg samples;
      Cli_common.domains_arg domains;
      Cli_common.metrics_out_arg metrics_out;
      Cli_common.log_level_arg log_level;
    ]
  in
  Cli_common.dispatch ~prog:"opera special"
    ~summary:"Sec. 5.1 special case: leakage-only variation." ~args ~argv
  @@ fun _ ->
  (* The batch engine's split and rule: a count the near-square tiling
     cannot honor is a usage error, never a silently different run. *)
  let regions =
    match Scenario.Job.check_regions !regions with
    | Ok r -> r
    | Error why -> raise (Cli_common.Bad_input ("--regions " ^ why))
  in
  Cli_common.with_health ~log_level:!log_level ~metrics_out:!metrics_out @@ fun () ->
  let rx, ry = Scenario.Job.region_split regions in
  let spec =
    { (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default !nodes) with
      Powergrid.Grid_spec.regions_x = rx; regions_y = ry }
  in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let circuit = Powergrid.Grid_gen.generate spec in
  let leaks =
    Array.init
      (spec.Powergrid.Grid_spec.rows * spec.Powergrid.Grid_spec.cols)
      (fun node -> (node, Powergrid.Grid_gen.region_of_node spec node, 5e-6))
  in
  let order = !order and steps = !steps and samples = !samples in
  let sc = Opera.Special_case.make ~order ~regions ~lambda:!lambda ~leaks ~vdd circuit in
  let h = !step_ps *. 1e-12 in
  let probe = Powergrid.Grid_gen.center_node spec in
  let resp, secs = Opera.Special_case.solve ~domains:!domains sc ~h ~steps ~probes:[| probe |] in
  let size = Polychaos.Basis.size sc.Opera.Special_case.basis in
  Printf.printf "decoupled OPERA: %d regions, order %d (N+1 = %d), %.2f s\n" regions order size secs;
  let mc = Opera.Special_case.monte_carlo sc ~samples ~seed:7L ~h ~steps ~probes:[| probe |] in
  Printf.printf "MC %d samples: %.2f s (speedup %.0fx)\n" samples
    mc.Opera.Monte_carlo.elapsed_seconds
    (mc.Opera.Monte_carlo.elapsed_seconds /. secs);
  let pce = Opera.Response.pce_at resp ~node:probe ~step:steps in
  Printf.printf "probe node %d: mean %.6f V (MC %.6f), sigma %.3e (MC %.3e), skew %+.3f\n" probe
    (Polychaos.Pce.mean pce)
    (Opera.Monte_carlo.mean_at mc ~step:steps ~node:probe)
    (Polychaos.Pce.std pce)
    (Opera.Monte_carlo.std_at mc ~step:steps ~node:probe)
    (Polychaos.Pce.skewness pce)
