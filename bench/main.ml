(* Benchmark harness: regenerates every table and figure of
   "Stochastic Power Grid Analysis Considering Process Variations"
   (Ghanta et al., DATE 2005), plus the ablations called out in DESIGN.md.

   Subcommands (default: run everything at the default scale):

     table1            Table 1 — OPERA vs Monte Carlo on 7 grids
     figures           Figures 1 & 2 — voltage-drop histograms, MC vs OPERA
     special           Sec. 5.1 special case — leakage-only variation
     order-sweep       ablation: expansion order p = 1..4
     nvars-sweep       ablation: number of random variables r = 2..5
     solver-ablation   ablation: direct augmented factor vs mean-block PCG
     linear-solvers    extension: Cholesky vs CG vs IC0 vs AMG
     random-walk       extension: localized single-node estimates (ref. [6])
     qmc               extension: pseudo vs Halton Monte Carlo convergence
     spatial           extension: intra-die Karhunen-Loeve variation
     micro             bechamel microbenchmarks of the numeric kernels

   Flags: --quick (small grids / few samples), --paper-mc (1000 MC samples
   everywhere, as in the paper). *)

let quick = ref false

let paper_mc = ref false

let steps = 24

let h = 0.125e-9

let section title = Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1_sizes () =
  if !quick then [ 1_000; 2_500; 5_000 ]
  else [ 1_000; 2_500; 5_000; 10_000; 16_000; 25_000; 40_000 ]

let mc_samples_for size =
  if !paper_mc then 1000
  else if size <= 2_500 then 300
  else if size <= 10_000 then 200
  else if size <= 25_000 then 120
  else 80

let run_table1 () =
  section "Table 1: transient analysis, OPERA vs Monte Carlo (order-2 expansion)";
  Printf.printf "variation model: %s\n" (Opera.Varmodel.describe Opera.Varmodel.paper_default);
  Printf.printf "time step %.3g ns x %d steps\n%!" (h *. 1e9) steps;
  let table = Util.Table.create (Opera.Compare.header @ [ ("MC samples", Util.Table.Right) ]) in
  List.iter
    (fun target ->
      let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
      let samples = mc_samples_for target in
      let config =
        { Opera.Driver.default_config with Opera.Driver.mc_samples = samples; steps; h }
      in
      let outcome = Opera.Driver.run_grid config spec Opera.Varmodel.paper_default in
      Util.Table.add_row table
        (Opera.Compare.row_strings outcome.Opera.Driver.label outcome.Opera.Driver.report
        @ [ string_of_int samples ]);
      Printf.printf "  done: %s\n%!" outcome.Opera.Driver.label)
    (table1_sizes ());
  print_string (Util.Table.render table);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 1 & 2                                                       *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  section "Figures 1 & 2: voltage distribution at selected nodes, MC vs OPERA";
  let target = if !quick then 1_000 else 5_000 in
  let samples = if !paper_mc then 1000 else if !quick then 300 else 600 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  (* Two probe nodes, as the paper shows two figures: the node with the
     worst nominal drop and the grid center. *)
  let center = Powergrid.Grid_gen.center_node spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let worst_node =
    let a = Powergrid.Mna.assemble circuit in
    let cfg = Powergrid.Transient.default_config ~h ~steps in
    let worst = ref center and worst_v = ref infinity in
    Powergrid.Transient.run_circuit cfg a ~on_step:(fun _ _ x ->
        Array.iteri
          (fun node v ->
            if v < !worst_v then begin
              worst_v := v;
              worst := node
            end)
          x);
    !worst
  in
  let probes = if worst_node = center then [| worst_node |] else [| worst_node; center |] in
  let config =
    { Opera.Driver.default_config with Opera.Driver.mc_samples = samples; steps; h; probes }
  in
  let outcome = Opera.Driver.run_grid ~label:"figures" config spec Opera.Varmodel.paper_default in
  let response = outcome.Opera.Driver.response in
  let mc = outcome.Opera.Driver.mc in
  let rng = Prob.Rng.create ~seed:2025L () in
  Array.iteri
    (fun p node ->
      (* Use the step where the probe's mean drop peaks. *)
      let step =
        let best = ref 1 and best_drop = ref neg_infinity in
        for s = 1 to response.Opera.Response.steps do
          let d = vdd -. Opera.Response.mean_at response ~step:s ~node in
          if d > !best_drop then begin
            best_drop := d;
            best := s
          end
        done;
        !best
      in
      let to_drop_pct v = 100.0 *. (vdd -. v) /. vdd in
      let mc_drops = Array.map to_drop_pct mc.Opera.Monte_carlo.probe_values.(p).(step) in
      let opera_drops =
        Array.init 8000 (fun _ ->
            to_drop_pct (Opera.Response.sample_voltage response ~node ~step rng))
      in
      let lo = Float.min (Linalg.Vec.min mc_drops) (Linalg.Vec.min opera_drops) in
      let hi = Float.max (Linalg.Vec.max mc_drops) (Linalg.Vec.max opera_drops) +. 1e-9 in
      let build xs =
        let hgm = Prob.Histogram.create ~lo ~hi ~bins:16 in
        Prob.Histogram.add_all hgm xs;
        hgm
      in
      let h_mc = build mc_drops and h_op = build opera_drops in
      Printf.printf "\nFigure %d: node %d, t = %.3g ns (drop as %% of VDD)\n" (p + 1) node
        (float_of_int step *. h *. 1e9);
      print_string (Prob.Histogram.render_pair ~a:h_mc ~b:h_op ~a_label:"MC" ~b_label:"OPERA" ());
      Printf.printf "max per-bin gap: %.2f%%   KS p-value: %.4f\n%!"
        (Prob.Histogram.max_percentage_gap h_mc h_op)
        (Prob.Ks.p_value mc_drops opera_drops))
    probes;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sec. 5.1 special case                                               *)
(* ------------------------------------------------------------------ *)

let run_special () =
  section "Sec. 5.1 special case: leakage-only variation (single factorization)";
  let target = if !quick then 1_000 else 5_000 in
  let samples = if !paper_mc then 1000 else 500 in
  let spec =
    { (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target) with
      Powergrid.Grid_spec.regions_x = 2; regions_y = 2 }
  in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let circuit = Powergrid.Grid_gen.generate spec in
  (* Lognormal leakage at every bottom-layer node; lambda is the lognormal
     shape from the threshold-voltage spread. *)
  let rows = spec.Powergrid.Grid_spec.rows and cols = spec.Powergrid.Grid_spec.cols in
  let leaks =
    Array.init (rows * cols) (fun node ->
        (node, Powergrid.Grid_gen.region_of_node spec node, 5e-6))
  in
  let lambda = 0.5 in
  let sc = Opera.Special_case.make ~order:3 ~regions:4 ~lambda ~leaks ~vdd circuit in
  let probes = [| Powergrid.Grid_gen.center_node spec |] in
  let resp, opera_s = Opera.Special_case.solve sc ~h ~steps ~probes in
  let mc = Opera.Special_case.monte_carlo sc ~samples ~seed:7L ~h ~steps ~probes in
  let _, coupled_s = Opera.Special_case.solve_coupled sc ~h ~steps ~probes in
  (* Error metrics at the final step across all nodes. *)
  let n = mc.Opera.Monte_carlo.n in
  let max_mu_err = ref 0.0 and max_sd_err = ref 0.0 in
  for node = 0 to n - 1 do
    let mu_o = Opera.Response.mean_at resp ~step:steps ~node in
    let mu_m = Opera.Monte_carlo.mean_at mc ~step:steps ~node in
    let sd_o = Opera.Response.std_at resp ~step:steps ~node in
    let sd_m = Opera.Monte_carlo.std_at mc ~step:steps ~node in
    max_mu_err := Float.max !max_mu_err (100.0 *. Float.abs (mu_o -. mu_m) /. mu_m);
    if sd_m > 1e-7 *. vdd then
      max_sd_err := Float.max !max_sd_err (100.0 *. Float.abs (sd_o -. sd_m) /. sd_m)
  done;
  let size = Polychaos.Basis.size sc.Opera.Special_case.basis in
  Printf.printf "grid %d nodes, 4 regions, order-3 basis (N+1 = %d), lambda = %.2f\n" n size lambda;
  Printf.printf "OPERA (decoupled, 1 factorization + %d x %d solves): %.2f s\n" size steps opera_s;
  Printf.printf "coupled Galerkin reference:                          %.2f s\n" coupled_s;
  Printf.printf "Monte Carlo (%d samples, factorization hoisted):     %.2f s  -> speedup %.0fx\n"
    samples mc.Opera.Monte_carlo.elapsed_seconds
    (mc.Opera.Monte_carlo.elapsed_seconds /. opera_s);
  Printf.printf "max %% error vs MC at final step: mu %.4f%%  sigma %.2f%%\n%!" !max_mu_err
    !max_sd_err;
  (* Moments beyond the variance (the paper's point vs bound-based methods):
     skewness/kurtosis of the probe voltage from the explicit expansion. *)
  let pce = Opera.Response.pce_at resp ~node:probes.(0) ~step:steps in
  Printf.printf "probe node %d: mean %.6f V  sigma %.3e V  skewness %+.3f  ex-kurtosis %+.3f\n%!"
    probes.(0) (Polychaos.Pce.mean pce) (Polychaos.Pce.std pce) (Polychaos.Pce.skewness pce)
    (Polychaos.Pce.kurtosis_excess pce)

(* ------------------------------------------------------------------ *)
(* Ablation: expansion order                                           *)
(* ------------------------------------------------------------------ *)

let run_order_sweep () =
  section "Ablation: expansion order p (paper claims p = 2-3 suffices)";
  let target = if !quick then 1_000 else 2_500 in
  let samples = if !paper_mc then 1000 else 400 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let vm = Opera.Varmodel.paper_default in
  let circuit = Powergrid.Grid_gen.generate spec in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  (* One MC reference reused across orders. *)
  let ref_model = Opera.Stochastic_model.build ~order:2 vm ~vdd circuit in
  let mc_config =
    { (Opera.Monte_carlo.default_config ~h ~steps) with Opera.Monte_carlo.samples }
  in
  let mc = Opera.Monte_carlo.run ref_model mc_config in
  let nominal = Opera.Driver.nominal_transient ref_model ~h ~steps in
  let table =
    Util.Table.create
      [
        ("p", Util.Table.Right); ("N+1", Util.Table.Right); ("aug dim", Util.Table.Right);
        ("avg%err mu", Util.Table.Right); ("avg%err sigma", Util.Table.Right);
        ("max%err sigma", Util.Table.Right); ("OPERA (s)", Util.Table.Right);
      ]
  in
  List.iter
    (fun order ->
      let model = Opera.Stochastic_model.build ~order vm ~vdd circuit in
      let config = { Opera.Driver.default_config with Opera.Driver.order; h; steps } in
      let response, stats, seconds = Opera.Driver.solve_opera config model in
      let report = Opera.Compare.compare ~response ~mc ~nominal ~vdd ~opera_seconds:seconds in
      Util.Table.add_row table
        [
          string_of_int order;
          string_of_int (Polychaos.Basis.size model.Opera.Stochastic_model.basis);
          string_of_int stats.Opera.Galerkin.aug_dim;
          Printf.sprintf "%.4f" report.Opera.Compare.avg_err_mean_pct;
          Printf.sprintf "%.2f" report.Opera.Compare.avg_err_std_pct;
          Printf.sprintf "%.2f" report.Opera.Compare.max_err_std_pct;
          Printf.sprintf "%.2f" seconds;
        ])
    [ 1; 2; 3; 4 ];
  print_string (Util.Table.render table);
  Printf.printf "(MC reference: %d samples, %.2f s)\n%!" samples
    mc.Opera.Monte_carlo.elapsed_seconds

(* ------------------------------------------------------------------ *)
(* Ablation: number of random variables                                *)
(* ------------------------------------------------------------------ *)

let run_nvars_sweep () =
  section "Ablation: number of RVs r (augmented-system sparsity; paper Sec. 5.2)";
  let target = if !quick then 1_000 else 2_500 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let circuit = Powergrid.Grid_gen.generate spec in
  let table =
    Util.Table.create
      [
        ("r", Util.Table.Right); ("N+1", Util.Table.Right); ("aug dim", Util.Table.Right);
        ("nnz(Gt)", Util.Table.Right); ("density x1e6", Util.Table.Right);
        ("mean-pcg (s)", Util.Table.Right); ("pcg iters", Util.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let mode =
        if r = 2 then Opera.Varmodel.Combined
        else if r = 3 then Opera.Varmodel.Separate
        else Opera.Varmodel.Grouped_wires (r - 1)
      in
      let vm = { Opera.Varmodel.paper_default with Opera.Varmodel.mode } in
      let model = Opera.Stochastic_model.build ~order:2 vm ~vdd circuit in
      let gt = Opera.Galerkin.assemble_g model in
      let dim, _ = Linalg.Sparse.dims gt in
      let nnz = Linalg.Sparse.nnz gt in
      let density = 1e6 *. float_of_int nnz /. (float_of_int dim *. float_of_int dim) in
      let config = { Opera.Driver.default_config with Opera.Driver.h; steps } in
      let _, stats, seconds = Opera.Driver.solve_opera config model in
      Util.Table.add_row table
        [
          string_of_int r;
          string_of_int (Polychaos.Basis.size model.Opera.Stochastic_model.basis);
          string_of_int dim;
          string_of_int nnz;
          Printf.sprintf "%.1f" density;
          Printf.sprintf "%.2f" seconds;
          string_of_int stats.Opera.Galerkin.pcg_iterations;
        ])
    [ 2; 3; 4; 5 ];
  print_string (Util.Table.render table);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation: solver                                                    *)
(* ------------------------------------------------------------------ *)

let run_solver_ablation () =
  section "Ablation: direct augmented Cholesky vs mean-block PCG";
  let sizes = if !quick then [ 1_000 ] else [ 1_000; 2_500; 5_000 ] in
  let table =
    Util.Table.create
      [
        ("nodes", Util.Table.Right); ("direct (s)", Util.Table.Right);
        ("nnz_L(aug)", Util.Table.Right); ("mean-pcg (s)", Util.Table.Right);
        ("pcg iters", Util.Table.Right); ("max |dmu| (V)", Util.Table.Right);
        ("max |dsigma| (V)", Util.Table.Right);
      ]
  in
  List.iter
    (fun target ->
      let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
      let vdd = spec.Powergrid.Grid_spec.vdd in
      let circuit = Powergrid.Grid_gen.generate spec in
      let model =
        Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd circuit
      in
      let solve solver =
        let config = { Opera.Driver.default_config with Opera.Driver.solver; h; steps } in
        Opera.Driver.solve_opera config model
      in
      let r_direct, st_direct, t_direct = solve Opera.Galerkin.Direct in
      let r_pcg, st_pcg, t_pcg =
        solve (Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 })
      in
      let n = model.Opera.Stochastic_model.n in
      let dmu = ref 0.0 and dsd = ref 0.0 in
      for node = 0 to n - 1 do
        dmu :=
          Float.max !dmu
            (Float.abs
               (Opera.Response.mean_at r_direct ~step:steps ~node
               -. Opera.Response.mean_at r_pcg ~step:steps ~node));
        dsd :=
          Float.max !dsd
            (Float.abs
               (Opera.Response.std_at r_direct ~step:steps ~node
               -. Opera.Response.std_at r_pcg ~step:steps ~node))
      done;
      Util.Table.add_row table
        [
          string_of_int (Powergrid.Grid_spec.node_count spec);
          Printf.sprintf "%.2f" t_direct;
          string_of_int st_direct.Opera.Galerkin.nnz_factor;
          Printf.sprintf "%.2f" t_pcg;
          string_of_int st_pcg.Opera.Galerkin.pcg_iterations;
          Printf.sprintf "%.2e" !dmu;
          Printf.sprintf "%.2e" !dsd;
        ])
    sizes;
  print_string (Util.Table.render table);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Extension: linear-solver shoot-out (direct / CG / IC0-CG / AMG-CG)  *)
(* ------------------------------------------------------------------ *)

let run_linear_solvers () =
  section "Extension: nominal-grid linear solvers (one DC solve)";
  let target = if !quick then 2_500 else 10_000 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  let g = Powergrid.Mna.g_total a in
  let b = Powergrid.Mna.inject a 0.3e-9 in
  let reference = ref [||] in
  let table =
    Util.Table.create
      [
        ("solver", Util.Table.Left); ("setup (s)", Util.Table.Right);
        ("solve (s)", Util.Table.Right); ("iters", Util.Table.Right);
        ("rel err", Util.Table.Right);
      ]
  in
  let add name setup_s solve_s iters x =
    let err =
      if Array.length !reference = 0 then begin
        reference := x;
        0.0
      end
      else Linalg.Vec.rel_error x ~reference:!reference
    in
    Util.Table.add_row table
      [ name; Printf.sprintf "%.3f" setup_s; Printf.sprintf "%.3f" solve_s;
        (if iters < 0 then "-" else string_of_int iters); Printf.sprintf "%.1e" err ]
  in
  let f, t_setup = Util.Timer.time (fun () -> Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection g) in
  let x, t_solve = Util.Timer.time (fun () -> Linalg.Sparse_cholesky.solve f b) in
  add "cholesky (ND)" t_setup t_solve (-1) x;
  let (x, st), t = Util.Timer.time (fun () -> Linalg.Cg.solve_sparse ~tol:1e-10 g b) in
  add "cg (plain)" 0.0 t st.Linalg.Cg.iterations x;
  let pre, t_setup = Util.Timer.time (fun () -> Linalg.Cg.ic0 g) in
  let (x, st), t = Util.Timer.time (fun () -> Linalg.Cg.solve_sparse ~precond:pre ~tol:1e-10 g b) in
  add "cg + ic0" t_setup t st.Linalg.Cg.iterations x;
  let amg, t_setup = Util.Timer.time (fun () -> Linalg.Amg.build g) in
  let (x, st), t = Util.Timer.time (fun () -> Linalg.Amg.solve ~tol:1e-10 amg g b) in
  add "cg + amg" t_setup t st.Linalg.Cg.iterations x;
  print_string (Util.Table.render table);
  Printf.printf "(amg hierarchy: %s)\n%!"
    (String.concat " > " (List.map string_of_int (Linalg.Amg.level_dims amg)))

(* ------------------------------------------------------------------ *)
(* Extension: random-walk localized solver                             *)
(* ------------------------------------------------------------------ *)

let run_random_walk () =
  section "Extension: random-walk localized DC estimate (paper ref. [6])";
  let target = if !quick then 2_500 else 10_000 in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  let time = 0.3e-9 in
  let exact, t_direct = Util.Timer.time (fun () -> Powergrid.Dc.solve_at a time) in
  let walk, t_prep = Util.Timer.time (fun () -> Powergrid.Random_walk.prepare a ~time) in
  let rng = Prob.Rng.create ~seed:11L () in
  let node = Powergrid.Grid_gen.center_node spec in
  let table =
    Util.Table.create
      [ ("walks", Util.Table.Right); ("estimate (V)", Util.Table.Right);
        ("stderr (V)", Util.Table.Right); ("error (V)", Util.Table.Right);
        ("time (s)", Util.Table.Right) ]
  in
  List.iter
    (fun walks ->
      let (est, se), t = Util.Timer.time (fun () -> Powergrid.Random_walk.estimate walk rng ~node ~walks) in
      Util.Table.add_row table
        [ string_of_int walks; Printf.sprintf "%.6f" est; Printf.sprintf "%.1e" se;
          Printf.sprintf "%.1e" (Float.abs (est -. exact.(node))); Printf.sprintf "%.3f" t ])
    [ 100; 1000; 10_000 ];
  print_string (Util.Table.render table);
  Printf.printf "(exact v = %.6f V; full direct solve %.3f s, walk prep %.3f s)\n%!" exact.(node)
    t_direct t_prep

(* ------------------------------------------------------------------ *)
(* Extension: pseudo vs quasi Monte Carlo convergence                  *)
(* ------------------------------------------------------------------ *)

let run_qmc () =
  section "Extension: Monte Carlo vs quasi-Monte Carlo convergence (mean drop at probe)";
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 1_000 in
  let vdd = spec.Powergrid.Grid_spec.vdd in
  let circuit = Powergrid.Grid_gen.generate spec in
  let model = Opera.Stochastic_model.build ~order:3 Opera.Varmodel.paper_default ~vdd circuit in
  let probe = Powergrid.Grid_gen.center_node spec in
  (* High-order Galerkin as ground truth for the mean. *)
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] } in
  let response, _ = Opera.Galerkin.solve_transient ~options model ~h ~steps:4 in
  let truth = Opera.Response.mean_at response ~step:2 ~node:probe in
  let table =
    Util.Table.create
      [ ("samples", Util.Table.Right); ("|MC err| (uV)", Util.Table.Right);
        ("|QMC err| (uV)", Util.Table.Right) ]
  in
  List.iter
    (fun samples ->
      let run sampler seed =
        let cfg =
          { (Opera.Monte_carlo.default_config ~h ~steps:4) with
            Opera.Monte_carlo.samples; probes = [| probe |]; sampler; seed }
        in
        let mc = Opera.Monte_carlo.run model cfg in
        Float.abs (Opera.Monte_carlo.mean_at mc ~step:2 ~node:probe -. truth)
      in
      Util.Table.add_row table
        [
          string_of_int samples;
          Printf.sprintf "%.3f" (1e6 *. run Opera.Monte_carlo.Pseudo 7L);
          Printf.sprintf "%.3f" (1e6 *. run Opera.Monte_carlo.Quasi_halton 7L);
        ])
    (if !quick then [ 32; 128 ] else [ 32; 128; 512 ]);
  print_string (Util.Table.render table);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Extension: intra-die spatial correlation (KL modes)                 *)
(* ------------------------------------------------------------------ *)

let run_spatial () =
  section "Extension: intra-die spatial variation via Karhunen-Loeve modes";
  let target = if !quick then 1_000 else 2_500 in
  let spec =
    { (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default target) with
      Powergrid.Grid_spec.regions_x = 4; regions_y = 4 }
  in
  let circuit = Powergrid.Grid_gen.generate spec in
  let centers = Opera.Spatial.region_centers spec in
  let table =
    Util.Table.create
      [ ("corr len", Util.Table.Right); ("modes (99%)", Util.Table.Right);
        ("N+1", Util.Table.Right); ("OPERA (s)", Util.Table.Right);
        ("sigma@center (uV)", Util.Table.Right) ]
  in
  List.iter
    (fun corr_length ->
      let kl =
        Opera.Spatial.karhunen_loeve ~sigma:(0.25 /. 3.0) ~corr_length ~centers ~energy:0.99
      in
      let model =
        Opera.Spatial.build_model ~order:2 kl ~base:Opera.Varmodel.paper_default ~spec circuit
      in
      let probe = Powergrid.Grid_gen.center_node spec in
      let options =
        { Opera.Galerkin.default_options with
          Opera.Galerkin.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 };
          probes = [| probe |] }
      in
      let (response, _), seconds =
        Util.Timer.time (fun () -> Opera.Galerkin.solve_transient ~options model ~h ~steps:8)
      in
      (* max sigma over time at the probe *)
      let sd = ref 0.0 in
      for st = 1 to 8 do
        sd := Float.max !sd (Opera.Response.std_at response ~step:st ~node:probe)
      done;
      Util.Table.add_row table
        [
          Printf.sprintf "%.2f" corr_length;
          string_of_int (Opera.Spatial.modes kl);
          string_of_int (Polychaos.Basis.size model.Opera.Stochastic_model.basis);
          Printf.sprintf "%.2f" seconds;
          Printf.sprintf "%.1f" (1e6 *. !sd);
        ])
    [ 2.0; 0.7; 0.3 ];
  print_string (Util.Table.render table);
  Printf.printf
    "(short correlation lengths need more KL modes; the inter-die limit is one mode)\n%!"

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  section "Microbenchmarks (bechamel; time per run)";
  let open Bechamel in
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 2_500 in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  let g = Powergrid.Mna.g_total a in
  let n, _ = Linalg.Sparse.dims g in
  let x = Array.init n (fun i -> float_of_int (i mod 17) /. 17.0) in
  let y = Array.make n 0.0 in
  let perm = Linalg.Ordering.compute Linalg.Ordering.Nested_dissection g in
  let factor = Linalg.Sparse_cholesky.factor ~perm g in
  let work = Array.make n 0.0 in
  let rng = Prob.Rng.create () in
  let basis3 = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:3 ~order:3 in
  let model =
    Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default
      ~vdd:spec.Powergrid.Grid_spec.vdd circuit
  in
  let tests =
    [
      Test.make ~name:"spmv-2.5k" (Staged.stage (fun () -> Linalg.Sparse.mul_vec_into g x y));
      Test.make ~name:"chol-factor-2.5k"
        (Staged.stage (fun () -> ignore (Linalg.Sparse_cholesky.factor ~perm g)));
      Test.make ~name:"chol-solve-2.5k"
        (Staged.stage (fun () -> Linalg.Sparse_cholesky.solve_in_place_ws factor ~work y));
      Test.make ~name:"nd-ordering-2.5k"
        (Staged.stage (fun () ->
             ignore (Linalg.Ordering.compute Linalg.Ordering.Nested_dissection g)));
      Test.make ~name:"rng-gaussian" (Staged.stage (fun () -> ignore (Prob.Rng.gaussian rng)));
      Test.make ~name:"hermite-eval-all-10"
        (Staged.stage (fun () ->
             ignore (Polychaos.Family.eval_all Polychaos.Family.hermite 10 0.7)));
      Test.make ~name:"triple-product-3v-o3"
        (Staged.stage (fun () -> ignore (Polychaos.Triple_product.create basis3)));
      Test.make ~name:"galerkin-assemble-2.5k"
        (Staged.stage (fun () -> ignore (Opera.Galerkin.assemble_g model)));
    ]
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" [ test ]) in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] ->
              let unit_, value =
                if t > 1e9 then ("s ", t /. 1e9)
                else if t > 1e6 then ("ms", t /. 1e6)
                else if t > 1e3 then ("us", t /. 1e3)
                else ("ns", t)
              in
              Printf.printf "  %-30s %10.2f %s/run\n%!" name value unit_
          | _ -> Printf.printf "  %-30s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  quick := List.mem "--quick" args;
  paper_mc := List.mem "--paper-mc" args;
  let commands =
    List.filter (fun a -> not (String.length a > 2 && String.sub a 0 2 = "--")) args
  in
  let dispatch = function
    | "table1" -> run_table1 ()
    | "figures" -> run_figures ()
    | "special" -> run_special ()
    | "order-sweep" -> run_order_sweep ()
    | "nvars-sweep" -> run_nvars_sweep ()
    | "solver-ablation" -> run_solver_ablation ()
    | "linear-solvers" -> run_linear_solvers ()
    | "random-walk" -> run_random_walk ()
    | "qmc" -> run_qmc ()
    | "spatial" -> run_spatial ()
    | "micro" -> run_micro ()
    | other ->
        Printf.eprintf "unknown bench %S\n" other;
        exit 1
  in
  match commands with
  | [] ->
      run_table1 ();
      run_figures ();
      run_special ();
      run_order_sweep ();
      run_nvars_sweep ();
      run_solver_ablation ();
      run_linear_solvers ();
      run_random_walk ();
      run_qmc ();
      run_spatial ();
      run_micro ()
  | cmds -> List.iter dispatch cmds
