(* The stochastic-testing collocation backend.

   The contract under test:
     - point selection is a pure function of (basis, candidates, seed) —
       repeated selection is bitwise identical, and the recovered
       transform is well conditioned enough to invert;
     - ST moments agree with the coupled Galerkin solution to chaos
       truncation accuracy, on generated grids and on parsed netlists;
     - the parallel point fan-out is bitwise deterministic in the domain
       count;
     - a per-point stepping factor survives a codec roundtrip and solves
       bitwise identically — the property the engine's artifact cache
       leans on;
     - on a decoupled (deterministic-matrix) model, ST reproduces the
       Sec. 5.1 special-case solution exactly: the solution is linear in
       the truncated excitation, hence inside the basis span;
     - the batch engine runs warm ST jobs with zero factorizations and
       byte-identical records. *)

module St = Opera.St_solver
module Job = Scenario.Job
module Engine = Scenario.Engine

let vdd = 1.2

let model ?(order = 2) () =
  let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
  Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default ~vdd circuit

let dense_equal_exact a b =
  let n, m = Linalg.Dense.dims a in
  Linalg.Dense.dims b = (n, m)
  &&
  try
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        if not (Util.Floats.equal_exact (Linalg.Dense.get a i j) (Linalg.Dense.get b i j)) then
          raise Exit
      done
    done;
    true
  with Exit -> false

(* --- point selection -------------------------------------------------- *)

let test_selection_deterministic () =
  let m = model () in
  let basis = m.Opera.Stochastic_model.basis in
  let size = Polychaos.Basis.size basis in
  let p1 = St.select_points basis in
  let p2 = St.select_points basis in
  Alcotest.(check int) "N+1 points" size (Array.length p1.St.pts);
  Alcotest.(check bool) "points bitwise stable" true (p1.St.pts = p2.St.pts);
  Alcotest.(check bool) "transform bitwise stable" true (dense_equal_exact p1.St.inv p2.St.inv);
  (* A topped-up pool draws extra candidates from the seeded rng; the
     same (candidates, seed) must reproduce the same selection... *)
  let candidates = (3 * size) + 7 in
  let t1 = St.select_points ~candidates ~seed:42L basis in
  let t2 = St.select_points ~candidates ~seed:42L basis in
  Alcotest.(check bool) "top-up bitwise stable" true
    (t1.St.pts = t2.St.pts && dense_equal_exact t1.St.inv t2.St.inv);
  (* ...and an under-sized bound still yields a full, invertible set. *)
  let clamped = St.select_points ~candidates:1 basis in
  Alcotest.(check int) "pool never shrinks below N+1" size (Array.length clamped.St.pts)

let test_vandermonde_consistent () =
  (* V really tabulates the basis at the selected points, and inv
     inverts it: V * inv = I to roundoff. *)
  let m = model () in
  let basis = m.Opera.Stochastic_model.basis in
  let p = St.select_points basis in
  let size = Polychaos.Basis.size basis in
  Array.iteri
    (fun i pt ->
      let psi = Polychaos.Basis.eval_all basis pt in
      for k = 0 to size - 1 do
        Helpers.check_float ~eps:0.0 "V.(i).(k) = psi_k(pt_i)" psi.(k) (Linalg.Dense.get p.St.vand i k)
      done)
    p.St.pts;
  let prod = Linalg.Dense.matmul p.St.vand p.St.inv in
  for i = 0 to size - 1 do
    for k = 0 to size - 1 do
      Helpers.check_float ~eps:1e-8 "V inv = I" (if i = k then 1.0 else 0.0)
        (Linalg.Dense.get prod i k)
    done
  done

(* --- moment agreement with Galerkin ----------------------------------- *)

let check_moments_close ~what ~steps ~n galerkin st =
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:1e-6
        (what ^ " means agree")
        (Opera.Response.mean_at galerkin ~step ~node)
        (Opera.Response.mean_at st ~step ~node);
      Helpers.check_float
        ~eps:(1e-7 +. (0.05 *. Opera.Response.std_at galerkin ~step ~node))
        (what ^ " stds agree")
        (Opera.Response.std_at galerkin ~step ~node)
        (Opera.Response.std_at st ~step ~node)
    done
  done

let st_options m =
  ignore m;
  { St.default_options with St.domains = 1 }

let test_transient_matches_galerkin () =
  List.iter
    (fun order ->
      let m = model ~order () in
      let h = 0.25e-9 and steps = 6 in
      let galerkin, _ = Opera.Galerkin.solve_transient m ~h ~steps in
      let st, stats = St.solve_transient ~options:(st_options m) m ~h ~steps in
      let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
      Alcotest.(check int) "mean factor + one stepping factor per point" (size + 1)
        stats.St.factorizations;
      Alcotest.(check bool) "healthy refinement" true
        (Linalg.Solve_report.agg_healthy stats.St.health);
      check_moments_close
        ~what:(Printf.sprintf "order %d" order)
        ~steps ~n:m.Opera.Stochastic_model.n galerkin st)
    [ 2; 3 ]

let test_transient_matches_on_netlist () =
  let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
  let path = Filename.temp_file "opera_st_netlist" ".sp" in
  let oc = open_out_bin path in
  output_string oc (Powergrid.Netlist.to_string circuit);
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let parsed = Powergrid.Netlist.parse_file path in
      let m =
        Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd
          parsed.Powergrid.Netlist.circuit
      in
      let h = 0.25e-9 and steps = 4 in
      let galerkin, _ = Opera.Galerkin.solve_transient m ~h ~steps in
      let st, _ = St.solve_transient ~options:(st_options m) m ~h ~steps in
      check_moments_close ~what:"netlist" ~steps ~n:m.Opera.Stochastic_model.n galerkin st)

let test_nonexact_precond_matches_exact () =
  (* The AMG mean-solver backend drops the N+1 per-point stepping
     factors; every point is still solved to the same residual target,
     so the recovered moments must agree with the exact route to
     solver accuracy. *)
  let m = model () in
  let h = 0.25e-9 and steps = 4 in
  let exact, exact_stats = St.solve_transient ~options:(st_options m) m ~h ~steps in
  let amg, stats =
    St.solve_transient
      ~options:{ (st_options m) with St.precond = Linalg.Precond.Amg }
      m ~h ~steps
  in
  Alcotest.(check bool) "fewer factorizations than the per-point route" true
    (stats.St.factorizations < exact_stats.St.factorizations);
  Alcotest.(check bool) "healthy refinement" true
    (Linalg.Solve_report.agg_healthy stats.St.health);
  check_moments_close ~what:"amg mean-solver backend" ~steps ~n:m.Opera.Stochastic_model.n
    exact amg;
  (* A 1,000-node generated grid at the job-default step: against an
     approximate mean solver every testing point converges by PCG, so
     neither backend factors a single point. *)
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 1_000 in
  let m =
    Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd
      (Powergrid.Grid_gen.generate spec)
  in
  let h = 125e-12 and steps = 2 in
  let exact, _ = St.solve_transient ~options:(st_options m) m ~h ~steps in
  List.iter
    (fun precond ->
      let what = Linalg.Precond.to_string precond ^ " on 1k nodes" in
      let got, stats =
        St.solve_transient ~options:{ (st_options m) with St.precond } m ~h ~steps
      in
      Alcotest.(check int) (what ^ ": no factorization") 0 stats.St.factorizations;
      Alcotest.(check int) (what ^ ": no fallback") 0
        stats.St.health.Linalg.Solve_report.fallbacks;
      check_moments_close ~what ~steps ~n:m.Opera.Stochastic_model.n exact got)
    [ Linalg.Precond.Amg; Linalg.Precond.Ic0 ]

let test_dc_matches_galerkin () =
  let m = model () in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let direct = Opera.Galerkin.solve_dc m in
  let st, stats = St.solve_dc ~options:(st_options m) m in
  Alcotest.(check int) "one shared mean factorization" 1 stats.St.factorizations;
  Alcotest.(check int) "N+1 points solved" size stats.St.points;
  for node = 0 to n - 1 do
    Helpers.check_float ~eps:1e-8 "DC means agree" direct.(node) st.(node)
  done;
  (* Higher blocks carry the variance; compare per-node sigma. *)
  let sigma coefs node =
    let acc = ref 0.0 in
    for k = 1 to size - 1 do
      let a = coefs.((k * n) + node) in
      acc := !acc +. (a *. a *. Polychaos.Basis.norm_sq m.Opera.Stochastic_model.basis k)
    done;
    sqrt !acc
  in
  for node = 0 to n - 1 do
    Helpers.check_float
      ~eps:(1e-9 +. (0.05 *. sigma direct node))
      "DC sigmas agree" (sigma direct node) (sigma st node)
  done

(* --- the st route through Galerkin.solve_transient --------------------- *)

let test_galerkin_dispatch () =
  let m = model () in
  let h = 0.25e-9 and steps = 3 in
  let options = { Opera.Galerkin.default_options with Opera.Galerkin.solver = Opera.Galerkin.default_st; domains = 1 } in
  let via_galerkin, stats = Opera.Galerkin.solve_transient ~options m ~h ~steps in
  let direct_st, _ = St.solve_transient ~options:(st_options m) m ~h ~steps in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:0.0 "dispatcher is the backend, bitwise"
        (Opera.Response.mean_at direct_st ~step ~node)
        (Opera.Response.mean_at via_galerkin ~step ~node)
    done
  done;
  (* stats map onto the backend-agnostic health record *)
  Alcotest.(check bool) "aug_dim reported" true (stats.Opera.Galerkin.aug_dim > 0);
  Alcotest.(check bool) "healthy" true (Linalg.Solve_report.agg_healthy stats.Opera.Galerkin.health);
  match
    Opera.Galerkin.solve_transient
      ~options:{ options with Opera.Galerkin.scheme = Powergrid.Transient.Trapezoidal }
      m ~h ~steps
  with
  | _ -> Alcotest.fail "st must reject non-backward-Euler schemes"
  | exception Invalid_argument _ -> ()

(* --- determinism across domains ---------------------------------------- *)

let test_domain_count_bitwise () =
  (* Both point-solve routes: stationary refinement on the exact factor,
     PCG against the shared AMG hierarchy. *)
  let m = model () in
  let h = 0.25e-9 and steps = 4 in
  List.iter
    (fun precond ->
      let solve domains =
        St.solve_transient ~options:{ St.default_options with St.domains; precond } m ~h ~steps
      in
      let r1, _ = solve 1 in
      let r4, _ = solve 4 in
      let n = m.Opera.Stochastic_model.n in
      for step = 0 to steps do
        for node = 0 to n - 1 do
          Helpers.check_float ~eps:0.0 "means bitwise equal across domains"
            (Opera.Response.mean_at r1 ~step ~node)
            (Opera.Response.mean_at r4 ~step ~node);
          Helpers.check_float ~eps:0.0 "stds bitwise equal across domains"
            (Opera.Response.std_at r1 ~step ~node)
            (Opera.Response.std_at r4 ~step ~node)
        done
      done)
    [ Linalg.Precond.Cholesky; Linalg.Precond.Amg ]

(* --- codec roundtrip of a per-point factor ------------------------------ *)

let test_point_factor_codec_roundtrip () =
  let m = model () in
  let basis = m.Opera.Stochastic_model.basis in
  let p = St.select_points basis in
  let n = m.Opera.Stochastic_model.n in
  let mt = St.step_matrix m p 1 ~h:0.25e-9 in
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection mt in
  let e = Util.Codec.encoder () in
  Linalg.Sparse_cholesky.encode f e;
  let f' = Linalg.Sparse_cholesky.decode (Util.Codec.decoder_of_string (Util.Codec.contents e)) in
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng n in
  let x = Array.copy b and x' = Array.copy b in
  let work = Array.make n 0.0 in
  Linalg.Sparse_cholesky.solve_in_place_ws f ~work x;
  Linalg.Sparse_cholesky.solve_in_place_ws f' ~work x';
  Alcotest.(check bool) "decoded factor solves bitwise identically" true (x = x')

(* --- decoupled special case -------------------------------------------- *)

let test_special_case_equivalence () =
  (* Deterministic matrices, stochastic (truncated-lognormal) excitation:
     the solution is linear in the truncated excitation, hence exactly in
     the basis span — ST interpolation loses nothing. *)
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let n = Powergrid.Circuit.node_count circuit in
  let leaks = Array.init n (fun node -> (node, (node * 2) / n, 4e-6)) in
  let sc = Opera.Special_case.make ~order:2 ~regions:2 ~lambda:0.35 ~leaks ~vdd circuit in
  let probes = [| n / 2 |] in
  let decoupled, _ = Opera.Special_case.solve sc ~h:0.25e-9 ~steps:6 ~probes in
  let st, _ =
    Opera.Special_case.solve_coupled ~solver:Opera.Galerkin.default_st sc ~h:0.25e-9 ~steps:6
      ~probes
  in
  for step = 0 to 6 do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:1e-8 "special-case means"
        (Opera.Response.mean_at decoupled ~step ~node)
        (Opera.Response.mean_at st ~step ~node);
      Helpers.check_float ~eps:1e-8 "special-case stds"
        (Opera.Response.std_at decoupled ~step ~node)
        (Opera.Response.std_at st ~step ~node)
    done
  done

(* --- job parsing and signatures ----------------------------------------- *)

let parse text =
  match Util.Json.parse text with
  | Ok json -> Job.of_json json
  | Error e -> Alcotest.failf "test JSON does not parse: %s" e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_job_parsing () =
  (match parse {|{"solver": "st", "st_candidates": 12, "st_seed": 9}|} with
  | Ok job -> (
      Alcotest.(check string) "solver name" "st" (Job.solver_name job.Job.solver);
      match job.Job.solver with
      | Opera.Galerkin.St { candidates; seed; _ } ->
          Alcotest.(check int) "candidates parsed" 12 candidates;
          Alcotest.(check int64) "seed parsed" 9L seed
      | _ -> Alcotest.fail "expected the St payload")
  | Error e -> Alcotest.failf "st job must parse: %s" e);
  (match parse {|{"solver": "qr"}|} with
  | Ok _ -> Alcotest.fail "unknown solver must be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the vocabulary" true
        (contains e "st" && contains e "matrix-free"));
  match parse {|{"solver": "st", "st_candidates": -3}|} with
  | Ok _ -> Alcotest.fail "negative st_candidates must be rejected"
  | Error e -> Alcotest.(check bool) "error names the field" true (contains e "st_candidates")

let st_job name =
  {
    Job.name;
    source = Job.Generated { nodes = 160 };
    analysis = Job.Transient;
    order = 2;
    h = 125e-12;
    steps = 4;
    solver = Opera.Galerkin.default_st;
    policy = Opera.Galerkin.Warn;
    sigma_scale = 1.0;
    drain_scale = 1.0;
    leak_scale = 1.0;
    probe = None;
  }

let with_st f job =
  match job.Job.solver with
  | Opera.Galerkin.St { tol; max_refine; candidates; seed } ->
      let tol, max_refine, candidates, seed = f (tol, max_refine, candidates, seed) in
      { job with Job.solver = Opera.Galerkin.St { tol; max_refine; candidates; seed } }
  | _ -> assert false

let test_signature_tracks_point_knobs () =
  let a = st_job "a" in
  Alcotest.(check bool)
    "candidates change the operator" true
    (Job.signature a
    <> Job.signature (with_st (fun (tol, mr, _, seed) -> (tol, mr, 64, seed)) a));
  Alcotest.(check bool)
    "seed changes the operator" true
    (Job.signature a <> Job.signature (with_st (fun (tol, mr, c, _) -> (tol, mr, c, 7L)) a));
  Alcotest.(check string)
    "convergence knobs do not" (Job.signature a)
    (Job.signature (with_st (fun (_, _, c, seed) -> (1e-6, 3, c, seed)) a));
  Alcotest.(check bool)
    "st and direct are distinct operators" true
    (Job.signature a <> Job.signature { a with Job.solver = Opera.Galerkin.Direct })

(* --- engine integration -------------------------------------------------- *)

let fresh_dir () =
  let marker = Filename.temp_file "opera_st_engine" "" in
  Sys.remove marker;
  marker ^ ".d"

let records_of results =
  Array.to_list (Array.map (fun r -> Util.Json.render r.Engine.record) results)

let test_engine_warm_runs_cold_factors () =
  let jobs = [| st_job "t"; { (st_job "d") with Job.analysis = Job.Dc } |] in
  let cache_dir = fresh_dir () in
  let run () =
    let config =
      { Engine.default_config with Engine.cache_dir = Some cache_dir; metrics = Util.Metrics.create () }
    in
    Engine.run ~config jobs
  in
  let cold_results, cold = run () in
  (* order 2, dim 2 ⇒ basis size 6: one mean factor + 6 stepping factors *)
  Alcotest.(check int) "cold run: g0 + one factor per point" 7 cold.Engine.factorizations;
  let warm_results, warm = run () in
  Alcotest.(check int) "warm run: zero factorizations" 0 warm.Engine.factorizations;
  Alcotest.(check (list string))
    "warm records byte-identical" (records_of cold_results) (records_of warm_results)

let suite =
  [
    Alcotest.test_case "point selection deterministic" `Quick test_selection_deterministic;
    Alcotest.test_case "vandermonde consistent" `Quick test_vandermonde_consistent;
    Alcotest.test_case "transient st = galerkin" `Quick test_transient_matches_galerkin;
    Alcotest.test_case "netlist st = galerkin" `Quick test_transient_matches_on_netlist;
    Alcotest.test_case "dc st = galerkin" `Quick test_dc_matches_galerkin;
    Alcotest.test_case "non-exact precond = exact" `Quick test_nonexact_precond_matches_exact;
    Alcotest.test_case "galerkin dispatch" `Quick test_galerkin_dispatch;
    Alcotest.test_case "domain-count bitwise" `Quick test_domain_count_bitwise;
    Alcotest.test_case "point factor codec roundtrip" `Quick test_point_factor_codec_roundtrip;
    Alcotest.test_case "special case equivalence" `Quick test_special_case_equivalence;
    Alcotest.test_case "job parsing" `Quick test_job_parsing;
    Alcotest.test_case "signature tracks point knobs" `Quick test_signature_tracks_point_knobs;
    Alcotest.test_case "engine warm st runs" `Quick test_engine_warm_runs_cold_factors;
  ]
