(* Extensions beyond the paper's core experiment: Sobol indices, Halton
   QMC, random-walk solver, AMG, spatial KL variation, RLC, non-Gaussian
   chaos. *)

let vdd = 1.2

(* ---- Sobol indices --------------------------------------------------- *)

let test_sobol_linear_mix () =
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2 in
  (* x = 3 xi0 + 4 xi1 + 2 xi0 xi1 : variances 9 + 16 + 4 = 29 *)
  let coefs = Array.make 6 0.0 in
  coefs.(1) <- 3.0;
  coefs.(2) <- 4.0;
  coefs.(4) <- 2.0;
  let x = Polychaos.Pce.create basis coefs in
  Helpers.check_float ~eps:1e-12 "main 0" (9.0 /. 29.0) (Polychaos.Sobol.main_effect x 0);
  Helpers.check_float ~eps:1e-12 "main 1" (16.0 /. 29.0) (Polychaos.Sobol.main_effect x 1);
  Helpers.check_float ~eps:1e-12 "total 0" (13.0 /. 29.0) (Polychaos.Sobol.total_effect x 0);
  Helpers.check_float ~eps:1e-12 "total 1" (20.0 /. 29.0) (Polychaos.Sobol.total_effect x 1);
  Helpers.check_float ~eps:1e-12 "interaction" (4.0 /. 29.0) (Polychaos.Sobol.interaction_share x);
  (* mains + interactions = 1 for 2 variables *)
  Helpers.check_float ~eps:1e-12 "partition of unity" 1.0
    (Polychaos.Sobol.main_effect x 0 +. Polychaos.Sobol.main_effect x 1
    +. Polychaos.Sobol.interaction_share x)

let test_sobol_on_grid_response () =
  (* On the paper's model, xiG (conductance) should dominate the voltage
     variance against xiL: conductance shifts move IR drops directly. *)
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let m = Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd circuit in
  let probe = Powergrid.Grid_gen.center_node spec in
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] } in
  let response, _ = Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps:6 in
  let pce = Opera.Response.pce_at response ~node:probe ~step:4 in
  let tg = Polychaos.Sobol.total_effect pce 0 and tl = Polychaos.Sobol.total_effect pce 1 in
  Alcotest.(check bool)
    (Printf.sprintf "indices sum to ~1 (%.3f)" (tg +. tl))
    true
    (tg +. tl > 0.95 && tg +. tl < 1.05);
  Alcotest.(check bool) "report renders" true
    (String.length (Polychaos.Sobol.report ~names:[| "xiG"; "xiL" |] pce) > 0)

(* ---- Halton ---------------------------------------------------------- *)

let test_halton_first_points () =
  let h = Prob.Halton.create ~skip:0 ~dim:2 () in
  let p1 = Prob.Halton.next h in
  Helpers.check_float ~eps:1e-15 "base2 of 1" 0.5 p1.(0);
  Helpers.check_float ~eps:1e-15 "base3 of 1" (1.0 /. 3.0) p1.(1);
  let p2 = Prob.Halton.next h in
  Helpers.check_float ~eps:1e-15 "base2 of 2" 0.25 p2.(0);
  Helpers.check_float ~eps:1e-15 "base3 of 2" (2.0 /. 3.0) p2.(1)

let test_halton_uniformity () =
  let h = Prob.Halton.create ~dim:3 () in
  let n = 4000 in
  let acc = Array.init 3 (fun _ -> Prob.Stats.Online.create ()) in
  for _ = 1 to n do
    let p = Prob.Halton.next h in
    Array.iteri (fun d v -> Prob.Stats.Online.add acc.(d) v) p
  done;
  Array.iteri
    (fun d a ->
      Helpers.check_float ~eps:0.005 (Printf.sprintf "dim %d mean" d) 0.5
        (Prob.Stats.Online.mean a);
      Helpers.check_float ~eps:0.01 (Printf.sprintf "dim %d var" d) (1.0 /. 12.0)
        (Prob.Stats.Online.variance a))
    acc

let test_halton_gaussian () =
  let h = Prob.Halton.create ~dim:2 () in
  let acc = Prob.Stats.Online.create () in
  for _ = 1 to 4000 do
    let p = Prob.Halton.next_gaussian h in
    Prob.Stats.Online.add acc p.(0)
  done;
  Helpers.check_float ~eps:0.02 "gaussian mean" 0.0 (Prob.Stats.Online.mean acc);
  Helpers.check_float ~eps:0.05 "gaussian var" 1.0 (Prob.Stats.Online.variance acc)

(* ---- Random walk ----------------------------------------------------- *)

let walk_circuit () =
  (* Small grid with a DC drain so the walk has motel costs. *)
  let r n1 n2 =
    { Powergrid.Circuit.rnode1 = n1; rnode2 = n2; ohms = 1.0; rkind = Powergrid.Circuit.Metal }
  in
  Powergrid.Circuit.make ~num_nodes:4
    ~resistors:[ r 0 1; r 1 2; r 2 3; r 3 0; r 0 2 ]
    ~capacitors:[]
    ~isources:[ { Powergrid.Circuit.inode = 2; wave = Powergrid.Waveform.Dc 0.05; region = 0 } ]
    ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = vdd; series_ohms = 0.5 } ]
    ()

let test_random_walk_matches_direct () =
  let a = Powergrid.Mna.assemble (walk_circuit ()) in
  let exact = Powergrid.Dc.solve a in
  let walk = Powergrid.Random_walk.prepare a ~time:0.0 in
  let rng = Prob.Rng.create ~seed:5L () in
  for node = 0 to 3 do
    let est, stderr = Powergrid.Random_walk.estimate walk rng ~node ~walks:20000 in
    Alcotest.(check bool)
      (Printf.sprintf "node %d: |%.5f - %.5f| within 5 stderr (%.2g)" node est exact.(node) stderr)
      true
      (Float.abs (est -. exact.(node)) < Float.max (5.0 *. stderr) 1e-4)
  done

let test_random_walk_on_grid () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let a = Powergrid.Mna.assemble circuit in
  (* time chosen inside an activity pulse so drains are nonzero *)
  let time = 0.3e-9 in
  let exact = Powergrid.Dc.solve_at a time in
  let walk = Powergrid.Random_walk.prepare a ~time in
  let rng = Prob.Rng.create ~seed:6L () in
  let node = Powergrid.Grid_gen.center_node spec in
  let est, stderr = Powergrid.Random_walk.estimate walk rng ~node ~walks:4000 in
  Alcotest.(check bool)
    (Printf.sprintf "grid node: est %.5f exact %.5f (se %.2g)" est exact.(node) stderr)
    true
    (Float.abs (est -. exact.(node)) < Float.max (5.0 *. stderr) 2e-4)

let test_random_walk_unreachable () =
  (* A floating island must be rejected. *)
  let r n1 n2 =
    { Powergrid.Circuit.rnode1 = n1; rnode2 = n2; ohms = 1.0; rkind = Powergrid.Circuit.Metal }
  in
  let c =
    Powergrid.Circuit.make ~num_nodes:4
      ~resistors:[ r 0 1; r 2 3 ]
      ~capacitors:[]
      ~isources:[]
      ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = vdd; series_ohms = 0.5 } ]
      ()
  in
  (* Give the island a ground path so MNA assembles, but no pad. *)
  let a =
    try Some (Powergrid.Mna.assemble c) with Invalid_argument _ -> None
  in
  match a with
  | None -> ()
  | Some a ->
      Alcotest.(check bool) "island rejected" true
        (try
           ignore (Powergrid.Random_walk.prepare a ~time:0.0);
           false
         with Invalid_argument _ | Linalg.Sparse_cholesky.Not_positive_definite _ -> true)

(* ---- AMG ------------------------------------------------------------- *)

let mesh_matrix k =
  let n = k * k in
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let here = (r * k) + c in
      Linalg.Sparse_builder.add b here here 0.02;
      if c + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + 1)) 1.0;
      if r + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + k)) 1.0
    done
  done;
  Linalg.Sparse_builder.to_csc b

let test_amg_solves () =
  let a = mesh_matrix 24 in
  let rng = Helpers.rng () in
  let x_true = Helpers.random_vec rng (24 * 24) in
  let b = Linalg.Sparse.mul_vec a x_true in
  let amg = Linalg.Amg.build a in
  Alcotest.(check bool) "multiple levels" true (Linalg.Amg.levels amg > 1);
  let x, stats = Linalg.Amg.solve ~tol:1e-11 amg a b in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  Alcotest.(check bool) "accurate" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-8)

let test_amg_beats_plain_cg () =
  let a = mesh_matrix 32 in
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng (32 * 32) in
  let _, plain = Linalg.Cg.solve_sparse ~tol:1e-10 a b in
  let amg = Linalg.Amg.build a in
  let _, with_amg = Linalg.Amg.solve ~tol:1e-10 amg a b in
  Alcotest.(check bool)
    (Printf.sprintf "amg %d iters < plain %d" with_amg.Linalg.Cg.iterations
       plain.Linalg.Cg.iterations)
    true
    (with_amg.Linalg.Cg.iterations < plain.Linalg.Cg.iterations)

let test_amg_level_dims_decrease () =
  let a = mesh_matrix 20 in
  let amg = Linalg.Amg.build a in
  let dims = Linalg.Amg.level_dims amg in
  let rec strictly_decreasing = function
    | a :: b :: rest -> a > b && strictly_decreasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool)
    ("levels " ^ String.concat ">" (List.map string_of_int dims))
    true (strictly_decreasing dims)

(* ---- Spatial KL ------------------------------------------------------ *)

let test_kl_energy_capture () =
  let spec =
    { Helpers.small_grid_spec with Powergrid.Grid_spec.regions_x = 3; regions_y = 3 }
  in
  let centers = Opera.Spatial.region_centers spec in
  Alcotest.(check int) "9 region centers" 9 (Array.length centers);
  let full = Opera.Spatial.karhunen_loeve ~sigma:0.08 ~corr_length:0.5 ~centers ~energy:1.0 in
  Alcotest.(check bool) "full keeps all variance" true (full.Opera.Spatial.captured > 0.999);
  (* With energy = 1 the truncated field variance is sigma^2 everywhere. *)
  for r = 0 to 8 do
    Helpers.check_close ~rtol:1e-6
      (Printf.sprintf "field variance region %d" r)
      (0.08 *. 0.08)
      (Opera.Spatial.field_variance full r)
  done;
  let truncated =
    Opera.Spatial.karhunen_loeve ~sigma:0.08 ~corr_length:0.5 ~centers ~energy:0.9
  in
  Alcotest.(check bool) "fewer modes than regions" true
    (Opera.Spatial.modes truncated < 9);
  Alcotest.(check bool) "captured >= requested" true
    (truncated.Opera.Spatial.captured >= 0.9 -. 1e-9)

let test_kl_sampled_field_statistics () =
  let spec =
    { Helpers.small_grid_spec with Powergrid.Grid_spec.regions_x = 2; regions_y = 2 }
  in
  let centers = Opera.Spatial.region_centers spec in
  let kl = Opera.Spatial.karhunen_loeve ~sigma:0.1 ~corr_length:0.4 ~centers ~energy:1.0 in
  let rng = Prob.Rng.create ~seed:17L () in
  let n = 20000 in
  let acc = Array.init 4 (fun _ -> Prob.Stats.Online.create ()) in
  let pair01 = ref 0.0 in
  for _ = 1 to n do
    let f = Opera.Spatial.sample_field kl rng in
    Array.iteri (fun r v -> Prob.Stats.Online.add acc.(r) v) f;
    pair01 := !pair01 +. (f.(0) *. f.(1) /. float_of_int n)
  done;
  for r = 0 to 3 do
    Helpers.check_float ~eps:0.003 (Printf.sprintf "mean region %d" r) 0.0
      (Prob.Stats.Online.mean acc.(r));
    Helpers.check_float ~eps:0.001 (Printf.sprintf "var region %d" r) 0.01
      (Prob.Stats.Online.variance acc.(r))
  done;
  (* Covariance between adjacent regions matches the kernel. *)
  let x0, y0 = centers.(0) and x1, y1 = centers.(1) in
  let expected = 0.01 *. exp (-.Float.hypot (x0 -. x1) (y0 -. y1) /. 0.4) in
  Helpers.check_float ~eps:0.001 "pair covariance" expected !pair01

let test_spatial_model_vs_mc () =
  let spec =
    { Helpers.small_grid_spec with Powergrid.Grid_spec.regions_x = 2; regions_y = 2 }
  in
  let circuit = Powergrid.Grid_gen.generate spec in
  let centers = Opera.Spatial.region_centers spec in
  let kl = Opera.Spatial.karhunen_loeve ~sigma:(0.25 /. 3.0) ~corr_length:0.6 ~centers ~energy:0.99 in
  let model =
    Opera.Spatial.build_model ~order:2 kl ~base:Opera.Varmodel.paper_default ~spec circuit
  in
  let probe = Powergrid.Grid_gen.center_node spec in
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] } in
  let response, _ = Opera.Galerkin.solve_transient ~options model ~h:0.25e-9 ~steps:6 in
  let mc_cfg =
    { (Opera.Monte_carlo.default_config ~h:0.25e-9 ~steps:6) with
      Opera.Monte_carlo.samples = 400; probes = [| probe |] }
  in
  let mc = Opera.Monte_carlo.run model mc_cfg in
  (* Compare at the (step, node) where MC resolves the largest sigma. *)
  let step = ref 1 and node = ref 0 in
  for st = 1 to 6 do
    for v = 0 to model.Opera.Stochastic_model.n - 1 do
      if Opera.Monte_carlo.std_at mc ~step:st ~node:v
         > Opera.Monte_carlo.std_at mc ~step:!step ~node:!node
      then begin step := st; node := v end
    done
  done;
  let step = !step and node = !node in
  let mu_o = Opera.Response.mean_at response ~step ~node in
  let mu_m = Opera.Monte_carlo.mean_at mc ~step ~node in
  let sd_o = Opera.Response.std_at response ~step ~node in
  let sd_m = Opera.Monte_carlo.std_at mc ~step ~node in
  Helpers.check_float ~eps:(2e-4 *. vdd) "spatial mean" mu_m mu_o;
  Alcotest.(check bool)
    (Printf.sprintf "spatial sigma %.3e vs MC %.3e" sd_o sd_m)
    true
    (Float.abs (sd_o -. sd_m) /. sd_m < 0.25)

(* ---- RLC ------------------------------------------------------------- *)

let test_inductor_transient_analytic () =
  (* Pad (1 V, Rs = 1) -- node0 -- L to ground.  After a 0.5 A drain step
     at node0, v(t) = -0.5 exp(-t / tau), tau = L / R. *)
  let l = 1e-9 and rs = 1.0 in
  let tau = l /. rs in
  let step_wave = Powergrid.Waveform.Pwl [| (0.0, 0.0); (1e-15, 0.5) |] in
  let c =
    Powergrid.Circuit.make
      ~inductors:[ { Powergrid.Circuit.lnode1 = 0; lnode2 = Powergrid.Circuit.ground; henries = l } ]
      ~num_nodes:1 ~resistors:[] ~capacitors:[]
      ~isources:[ { Powergrid.Circuit.inode = 0; wave = step_wave; region = 0 } ]
      ~vsources:[ { Powergrid.Circuit.vnode = 0; volts = 1.0; series_ohms = rs } ]
      ()
  in
  Alcotest.(check bool) "nodal path rejects inductors" true
    (try
       ignore (Powergrid.Mna.assemble c);
       false
     with Invalid_argument _ -> true);
  let sys = Powergrid.Mna.Full.assemble c in
  let h = tau /. 400.0 in
  let steps = 800 in
  let results = Array.make (steps + 1) 0.0 in
  let cfg = Powergrid.Transient.default_config ~h ~steps in
  Powergrid.Transient.run_full cfg sys ~on_step:(fun k _ x -> results.(k) <- x.(0));
  List.iter
    (fun frac ->
      let k = int_of_float (frac *. float_of_int steps) in
      let t = float_of_int k *. h in
      let expected = -0.5 *. exp (-.t /. tau) in
      Helpers.check_float ~eps:0.005
        (Printf.sprintf "v at t = %.2f tau" (t /. tau))
        expected results.(k))
    [ 0.25; 0.5; 0.75; 1.0 ]

let test_inductor_netlist_roundtrip () =
  let text = "V1 a 0 1.2 RS=0.5\nL1 a b 2n\nR1 b 0 3\n.end\n" in
  let parsed = Powergrid.Netlist.parse_string text in
  let c = parsed.Powergrid.Netlist.circuit in
  Alcotest.(check int) "one inductor" 1 (Array.length c.Powergrid.Circuit.inductors);
  Helpers.check_float "henries" 2e-9 (c.Powergrid.Circuit.inductors.(0)).Powergrid.Circuit.henries;
  let round = Powergrid.Netlist.parse_string (Powergrid.Netlist.to_string c) in
  Alcotest.(check string) "roundtrip" (Powergrid.Circuit.stats c)
    (Powergrid.Circuit.stats round.Powergrid.Netlist.circuit)

let test_inductor_dc_is_short () =
  (* At DC an inductor is a short: node b sits at the divider voltage. *)
  let text = "V1 a 0 1.0 RS=1\nL1 a b 5n\nR1 b 0 1\n.end\n" in
  let c = (Powergrid.Netlist.parse_string text).Powergrid.Netlist.circuit in
  let v = Powergrid.Dc.solve_full (Powergrid.Mna.Full.assemble c) in
  (* divider: 1 V over Rs = 1 + R = 1 -> v_b = 0.5, v_a = 0.5 *)
  Helpers.check_float ~eps:1e-10 "v_a" 0.5 v.(0);
  Helpers.check_float ~eps:1e-10 "v_b" 0.5 v.(1)

(* ---- non-Gaussian (uniform/Legendre) chaos --------------------------- *)

let test_uniform_family_vs_mc () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let vm =
    { Opera.Varmodel.paper_default with
      Opera.Varmodel.mode = Opera.Varmodel.Separate; family = Opera.Varmodel.Uniform }
  in
  let m = Opera.Stochastic_model.build ~order:2 vm ~vdd circuit in
  Alcotest.(check string) "legendre basis" "legendre"
    ((Polychaos.Basis.families m.Opera.Stochastic_model.basis).(0)).Polychaos.Family.name;
  let probe = Powergrid.Grid_gen.center_node spec in
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] } in
  let response, _ = Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps:6 in
  let mc_cfg =
    { (Opera.Monte_carlo.default_config ~h:0.25e-9 ~steps:6) with
      Opera.Monte_carlo.samples = 500; probes = [| probe |] }
  in
  let mc = Opera.Monte_carlo.run m mc_cfg in
  (* Compare at the (step, node) where MC resolves the largest sigma. *)
  let step = ref 1 and node = ref 0 in
  for st = 1 to 6 do
    for v = 0 to m.Opera.Stochastic_model.n - 1 do
      if Opera.Monte_carlo.std_at mc ~step:st ~node:v
         > Opera.Monte_carlo.std_at mc ~step:!step ~node:!node
      then begin step := st; node := v end
    done
  done;
  let step = !step and node = !node in
  let mu_o = Opera.Response.mean_at response ~step ~node in
  let mu_m = Opera.Monte_carlo.mean_at mc ~step ~node in
  let sd_o = Opera.Response.std_at response ~step ~node in
  let sd_m = Opera.Monte_carlo.std_at mc ~step ~node in
  Helpers.check_float ~eps:(2e-4 *. vdd) "uniform mean" mu_m mu_o;
  Alcotest.(check bool)
    (Printf.sprintf "uniform sigma %.3e vs MC %.3e" sd_o sd_m)
    true
    (Float.abs (sd_o -. sd_m) /. sd_m < 0.25)

let test_uniform_rejects_combined () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let vm = { Opera.Varmodel.paper_default with Opera.Varmodel.family = Opera.Varmodel.Uniform } in
  Alcotest.(check bool) "combined + uniform rejected" true
    (try
       ignore (Opera.Stochastic_model.build ~order:2 vm ~vdd circuit);
       false
     with Invalid_argument _ -> true)

let test_uniform_parameter_sigma_preserved () =
  (* The degree-1 coefficient rescaling must give the parameter the same
     standard deviation regardless of the family. *)
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let make family =
    let vm =
      { Opera.Varmodel.paper_default with
        Opera.Varmodel.mode = Opera.Varmodel.Separate; family }
    in
    Opera.Stochastic_model.build ~order:2 vm ~vdd circuit
  in
  let sigma_of m =
    (* std of G(xi)'s (0,0) entry under sampling *)
    let rng = Prob.Rng.create ~seed:3L () in
    let acc = Prob.Stats.Online.create () in
    for _ = 1 to 8000 do
      let xi = Polychaos.Basis.sample_point m.Opera.Stochastic_model.basis rng in
      let g = Opera.Stochastic_model.g_of_sample m xi in
      Prob.Stats.Online.add acc (Linalg.Sparse.get g 0 0)
    done;
    Prob.Stats.Online.std acc
  in
  let s_gauss = sigma_of (make Opera.Varmodel.Gaussian) in
  let s_unif = sigma_of (make Opera.Varmodel.Uniform) in
  Helpers.check_close ~rtol:0.05 "same parameter sigma" s_gauss s_unif

(* ---- quasi-Monte Carlo ----------------------------------------------- *)

let test_qmc_matches_galerkin () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let m = Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd circuit in
  let probe = Powergrid.Grid_gen.center_node spec in
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] } in
  let response, _ = Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps:6 in
  let mc_cfg =
    { (Opera.Monte_carlo.default_config ~h:0.25e-9 ~steps:6) with
      Opera.Monte_carlo.samples = 300; probes = [| probe |];
      sampler = Opera.Monte_carlo.Quasi_halton }
  in
  let qmc = Opera.Monte_carlo.run m mc_cfg in
  let step = 4 in
  Helpers.check_float
    ~eps:(1e-4 *. vdd)
    "qmc mean matches galerkin"
    (Opera.Response.mean_at response ~step ~node:probe)
    (Opera.Monte_carlo.mean_at qmc ~step ~node:probe)

let suite =
  [
    Alcotest.test_case "sobol linear mix" `Quick test_sobol_linear_mix;
    Alcotest.test_case "sobol on grid response" `Quick test_sobol_on_grid_response;
    Alcotest.test_case "halton first points" `Quick test_halton_first_points;
    Alcotest.test_case "halton uniformity" `Quick test_halton_uniformity;
    Alcotest.test_case "halton gaussian" `Quick test_halton_gaussian;
    Alcotest.test_case "random walk vs direct" `Slow test_random_walk_matches_direct;
    Alcotest.test_case "random walk on grid" `Slow test_random_walk_on_grid;
    Alcotest.test_case "random walk unreachable" `Quick test_random_walk_unreachable;
    Alcotest.test_case "amg solves" `Quick test_amg_solves;
    Alcotest.test_case "amg beats plain cg" `Quick test_amg_beats_plain_cg;
    Alcotest.test_case "amg levels decrease" `Quick test_amg_level_dims_decrease;
    Alcotest.test_case "kl energy capture" `Quick test_kl_energy_capture;
    Alcotest.test_case "kl sampled field stats" `Slow test_kl_sampled_field_statistics;
    Alcotest.test_case "spatial model vs mc" `Slow test_spatial_model_vs_mc;
    Alcotest.test_case "inductor transient analytic" `Quick test_inductor_transient_analytic;
    Alcotest.test_case "inductor netlist roundtrip" `Quick test_inductor_netlist_roundtrip;
    Alcotest.test_case "inductor dc short" `Quick test_inductor_dc_is_short;
    Alcotest.test_case "uniform family vs mc" `Slow test_uniform_family_vs_mc;
    Alcotest.test_case "uniform rejects combined" `Quick test_uniform_rejects_combined;
    Alcotest.test_case "uniform preserves sigma" `Slow test_uniform_parameter_sigma_preserved;
    Alcotest.test_case "qmc matches galerkin" `Slow test_qmc_matches_galerkin;
  ]
