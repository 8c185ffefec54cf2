(* opera analyze — stochastic (OPERA) analysis of one grid.

   The single-run path is a one-job batch: the job goes through
   Scenario.Engine (so --cache-dir warms and reuses the same artifact
   store as [opera batch]) and the rich report — worst-node table, Sobol
   variance decomposition, yield bound, CSV / SVG exports — is printed
   from the returned stochastic response. *)

let run argv =
  let netlist = ref None
  and nodes = ref 2000
  and order = ref 2
  and steps = ref 24
  and step_ps = ref 125.0
  and solver = ref (Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 })
  and st_candidates = ref 0
  and st_seed = ref 1
  and domains = ref 0
  and policy = ref Opera.Galerkin.Warn
  and precond = ref Linalg.Precond.Cholesky
  and warm_start = ref true
  and metrics_out = ref None
  and log_level = ref Util.Log.Warn
  and cache_dir = ref None
  and csv = ref None
  and svg = ref None
  and budget = ref None in
  let args =
    [
      Cli_common.netlist_arg netlist;
      Cli_common.nodes_arg nodes;
      Cli_common.order_arg order;
      Cli_common.steps_arg steps;
      Cli_common.step_ps_arg step_ps;
      Cli_common.solver_arg solver;
      Cli_common.st_candidates_arg st_candidates;
      Cli_common.st_seed_arg st_seed;
      Cli_common.domains_arg domains;
      Cli_common.policy_arg policy;
      Cli_common.precond_arg precond;
      Cli_common.warm_start_arg warm_start;
      Cli_common.cache_dir_arg cache_dir;
      Cli_common.metrics_out_arg metrics_out;
      Cli_common.log_level_arg log_level;
      Util.Args.string_opt [ "--csv" ] ~docv:"FILE" ~doc:"Export probe trajectories as CSV." csv;
      Util.Args.string_opt [ "--svg" ] ~docv:"FILE" ~doc:"Export drop/sigma heat maps as SVG." svg;
      Util.Args.value [ "--budget" ] ~docv:"PCT"
        ~doc:"Drop budget as a percentage of VDD for yield reporting."
        (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some v ->
              budget := Some v;
              Ok ()
          | None -> Error (Printf.sprintf "expected a number, got %S" s));
    ]
  in
  Cli_common.dispatch ~prog:"opera analyze" ~summary:"Stochastic (OPERA) analysis of a grid." ~args
    ~argv
  @@ fun _ ->
  Cli_common.check_output "--csv" !csv;
  Cli_common.check_output "--svg" !svg;
  let solver =
    Cli_common.apply_st_knobs !solver ~order:!order ~candidates:!st_candidates ~seed:!st_seed
  in
  Cli_common.with_health ~log_level:!log_level ~metrics_out:!metrics_out @@ fun () ->
  let circuit, vdd, spec = Cli_common.load_circuit !netlist !nodes in
  Printf.printf "circuit: %s\n" (Powergrid.Circuit.stats circuit);
  Printf.printf "variations: %s\n%!" (Opera.Varmodel.describe Opera.Varmodel.paper_default);
  let job =
    {
      Scenario.Job.name = "analyze";
      source =
        (match !netlist with
        | Some path -> Scenario.Job.Netlist path
        | None -> Scenario.Job.Generated { nodes = !nodes });
      analysis = Scenario.Job.Transient;
      order = !order;
      h = !step_ps *. 1e-12;
      steps = !steps;
      solver;
      policy = !policy;
      sigma_scale = 1.0;
      drain_scale = 1.0;
      leak_scale = 1.0;
      probe = None;
    }
  in
  let config =
    {
      Scenario.Engine.default_config with
      cache_dir = !cache_dir;
      domains = !domains;
      warm_start = !warm_start;
      precond = !precond;
    }
  in
  let results, summary = Scenario.Engine.run ~config [| job |] in
  let response =
    match results.(0).Scenario.Engine.response with
    | Some r -> r
    | None -> assert false (* Transient jobs always carry a response *)
  in
  let steps = !steps and step_ps = !step_ps in
  Printf.printf "\nsolved: %s\n" (Scenario.Engine.summary_line summary);
  let probe =
    match spec with
    | Some s -> Powergrid.Grid_gen.center_node s
    | None -> Powergrid.Circuit.node_count circuit / 2
  in
  (* Worst nodes by mu + 3 sigma drop over time. *)
  let n = response.Opera.Response.n in
  let guarded = Array.make n 0.0 in
  let nominal = Array.make n 0.0 in
  for step = 1 to steps do
    for node = 0 to n - 1 do
      let mu = Opera.Response.mean_at response ~step ~node in
      let sd = Opera.Response.std_at response ~step ~node in
      nominal.(node) <- Float.max nominal.(node) (vdd -. mu);
      guarded.(node) <- Float.max guarded.(node) (vdd -. mu +. (3.0 *. sd))
    done
  done;
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare guarded.(b) guarded.(a)) idx;
  let table =
    Util.Table.create
      [
        ("node", Util.Table.Right); ("mu drop (mV)", Util.Table.Right);
        ("+3sigma (mV)", Util.Table.Right); ("mu+3sigma (%VDD)", Util.Table.Right);
      ]
  in
  for r = 0 to Int.min 9 (n - 1) do
    let v = idx.(r) in
    Util.Table.add_row table
      [
        string_of_int v;
        Printf.sprintf "%.2f" (1e3 *. nominal.(v));
        Printf.sprintf "%.2f" (1e3 *. (guarded.(v) -. nominal.(v)));
        Printf.sprintf "%.2f" (100.0 *. guarded.(v) /. vdd);
      ]
  done;
  print_newline ();
  print_string (Util.Table.render table);
  (* Which process parameter drives the probe's variability?  The
     explicit expansion answers directly (Sobol decomposition). *)
  let best_step = ref 1 in
  for step = 2 to steps do
    if
      Opera.Response.variance_at response ~step ~node:probe
      > Opera.Response.variance_at response ~step:!best_step ~node:probe
    then best_step := step
  done;
  let pce = Opera.Response.pce_at response ~node:probe ~step:!best_step in
  if Polychaos.Pce.variance pce > 0.0 then begin
    let vm = Opera.Varmodel.paper_default in
    let names =
      match vm.Opera.Varmodel.mode with
      | Opera.Varmodel.Combined -> [| "xiG"; "xiL" |]
      | Opera.Varmodel.Separate -> [| "xiW"; "xiT"; "xiL" |]
      | Opera.Varmodel.Grouped_wires k ->
          Array.init (k + 1) (fun d -> if d = k then "xiL" else Printf.sprintf "xiG_%d" d)
    in
    Printf.printf "\nvariance decomposition at probe node %d (t = %g ps):\n%s" probe
      (float_of_int !best_step *. step_ps)
      (Polychaos.Sobol.report ~names pce)
  end;
  (* Yield against a drop budget (Gaussian union bound per step). *)
  (match !budget with
  | None -> ()
  | Some pct ->
      let budget = pct /. 100.0 *. vdd in
      let worst_p = ref 0.0 and worst_step = ref 1 and worst_node = ref 0 in
      for step = 1 to steps do
        let p, node = Opera.Yield.grid_failure_probability_gaussian response ~step ~budget in
        if p > !worst_p then begin
          worst_p := p;
          worst_step := step;
          worst_node := node
        end
      done;
      Printf.printf
        "\nyield vs %.1f%%-VDD drop budget: worst-step failure probability %.2e\n\
         (union bound; step %d, dominated by node %d)\n"
        pct !worst_p !worst_step !worst_node);
  (match !csv with
  | None -> ()
  | Some path ->
      Cli_common.writing "--csv" (fun () -> Opera.Response.export_csv response path);
      Printf.printf "\nwrote probe trajectories to %s\n" path);
  match (!svg, spec) with
  | Some _, None -> prerr_endline "note: --svg needs a generated grid (geometry unknown for netlists)"
  | Some path, Some spec ->
      (* worst-over-time drop and sigma maps of the bottom layer *)
      let drops = Array.make n 0.0 and sigmas = Array.make n 0.0 in
      for step = 1 to steps do
        for node = 0 to n - 1 do
          drops.(node) <-
            Float.max drops.(node) (vdd -. Opera.Response.mean_at response ~step ~node);
          sigmas.(node) <- Float.max sigmas.(node) (Opera.Response.std_at response ~step ~node)
        done
      done;
      let sigma_path = Filename.remove_extension path ^ "_sigma" ^ Filename.extension path in
      Cli_common.writing "--svg" (fun () ->
          Powergrid.Svg_map.save path spec
            ~values:(Array.map (fun d -> 1e3 *. d) drops)
            ~title:"worst mean IR drop" ~unit_label:"mV" ();
          Powergrid.Svg_map.save sigma_path spec
            ~values:(Array.map (fun s -> 1e3 *. s) sigmas)
            ~title:"worst sigma of the voltage" ~unit_label:"mV" ());
      Printf.printf "wrote %s and %s\n" path sigma_path
  | None, _ -> ()
