(* Matrix-free stochastic Galerkin operator (Galerkin_op): equivalence
   with the assembled Kronecker sum, Matrix_free_pcg solver agreement
   with Direct, bitwise domain determinism, and the no-kron guarantee. *)

let vdd = 1.2

let small_model ?(order = 2) () =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default ~vdd circuit

(* --- apply == assembled ------------------------------------------------ *)

(* Random per-rank matrices against the explicit Kronecker sum
   [sum_r T_r (x) A_r]. *)
let test_apply_matches_kron_sum =
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2 in
  let tp = Polychaos.Triple_product.create basis in
  let n = 5 in
  let size = Polychaos.Basis.size basis in
  let dim = size * n in
  let arb = QCheck.(array_of_size (Gen.return dim) (float_range (-2.) 2.)) in
  Helpers.qcheck_case ~count:40 "apply = Kronecker sum (random terms)" arb (fun x ->
      let rng = Helpers.rng () in
      let terms =
        List.map
          (fun r -> (r, Helpers.random_sparse_spd rng n ~extra_edges:4))
          [ 0; 1; 2 ]
      in
      let assembled =
        List.fold_left
          (fun acc (r, a) ->
            Linalg.Sparse.add acc
              (Linalg.Sparse.kron (Polychaos.Triple_product.coupling_matrix tp r) a))
          (Linalg.Sparse.zero ~nrows:dim ~ncols:dim)
          terms
      in
      let op = Opera.Galerkin_op.of_terms ~tp ~n terms in
      let y_ref = Linalg.Sparse.mul_vec assembled x in
      let y_op = Opera.Galerkin_op.apply op x in
      Linalg.Vec.approx_equal ~tol:1e-10 y_ref y_op)

(* Model-derived operators Gt, Ct and the stepping combination. *)
let test_model_operators_match_assembled =
  let m = small_model () in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let dim = size * n in
  let gt = Opera.Galerkin.assemble_g m in
  let ct = Opera.Galerkin.assemble_c m in
  let h = 0.25e-9 in
  let mt = Linalg.Sparse.axpy ~alpha:(1.0 /. h) ct gt in
  let op_g = Opera.Galerkin_op.gt m in
  let op_c = Opera.Galerkin_op.ct m in
  let op_m = Opera.Galerkin_op.gt_plus_ct ~ct_scale:(1.0 /. h) m in
  let arb = QCheck.(array_of_size (Gen.return dim) (float_range (-1.) 1.)) in
  Helpers.qcheck_case ~count:20 "Gt/Ct/(Gt+Ct/h) match assembled" arb (fun x ->
      Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec gt x)
        (Opera.Galerkin_op.apply op_g x)
      && Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec ct x)
           (Opera.Galerkin_op.apply op_c x)
      && Linalg.Vec.approx_equal ~tol:1e-10 (Linalg.Sparse.mul_vec mt x)
           (Opera.Galerkin_op.apply op_m x))

let test_shapes_and_nnz () =
  let m = small_model () in
  let n = m.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size m.Opera.Stochastic_model.basis in
  let op = Opera.Galerkin_op.gt m in
  Alcotest.(check int) "dim" (size * n) (Opera.Galerkin_op.dim op);
  Alcotest.(check int) "block_dim" n (Opera.Galerkin_op.block_dim op);
  Alcotest.(check int) "blocks" size (Opera.Galerkin_op.blocks op);
  let term_nnz =
    List.fold_left
      (fun acc (_, a) -> acc + Linalg.Sparse.nnz a)
      0 m.Opera.Stochastic_model.g_terms
  in
  Alcotest.(check int) "nnz = terms + coupling"
    (term_nnz + Opera.Galerkin_op.coupling_nnz op)
    (Opera.Galerkin_op.nnz op);
  let assembled = Opera.Galerkin.assemble_g m in
  Alcotest.(check bool) "matrix-free storage below assembled" true
    (Opera.Galerkin_op.nnz op < Linalg.Sparse.nnz assembled)

(* --- Matrix_free_pcg == Direct ---------------------------------------- *)

let solver_options ?(domains = 1) solver =
  { Opera.Galerkin.default_options with Opera.Galerkin.solver; domains }

let test_matrix_free_dc_matches_direct () =
  let m = small_model () in
  let a_direct = Opera.Galerkin.solve_dc ~options:(solver_options Opera.Galerkin.Direct) m in
  let a_mf =
    Opera.Galerkin.solve_dc
      ~options:
        (solver_options (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 }))
      m
  in
  Helpers.check_vec ~eps:1e-6 "stochastic DC coefficients" a_direct a_mf

let test_matrix_free_transient_matches_direct () =
  let m = small_model () in
  let steps = 8 in
  let solve solver =
    fst (Opera.Galerkin.solve_transient ~options:(solver_options solver) m ~h:0.25e-9 ~steps)
  in
  let r1 = solve Opera.Galerkin.Direct in
  let r2 = solve (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 }) in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:1e-6 "means agree"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r2 ~step ~node);
      Helpers.check_float ~eps:1e-6 "variances agree"
        (Opera.Response.variance_at r1 ~step ~node)
        (Opera.Response.variance_at r2 ~step ~node)
    done
  done

let test_matrix_free_trapezoidal () =
  let m = small_model () in
  let steps = 6 in
  let solve solver =
    let options =
      { (solver_options solver) with
        Opera.Galerkin.scheme = Powergrid.Transient.Trapezoidal }
    in
    fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
  in
  let r1 = solve Opera.Galerkin.Direct in
  let r2 = solve (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 }) in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:1e-6 "trapezoidal means agree"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r2 ~step ~node)
    done
  done

(* --- domain determinism ------------------------------------------------ *)

let test_apply_bitwise_across_domains () =
  let m = small_model ~order:3 () in
  let op1 = Opera.Galerkin_op.gt ~domains:1 m in
  let dim = Opera.Galerkin_op.dim op1 in
  let rng = Helpers.rng () in
  let x = Helpers.random_vec rng dim in
  let y1 = Opera.Galerkin_op.apply op1 x in
  List.iter
    (fun d ->
      let opd = Opera.Galerkin_op.with_domains op1 d in
      Alcotest.(check int) "resolved domains" d (Opera.Galerkin_op.domains opd);
      let yd = Opera.Galerkin_op.apply opd x in
      Array.iteri
        (fun i v ->
          if v <> y1.(i) then
            Alcotest.failf "apply differs at %d with %d domains: %.17g vs %.17g" i d v
              y1.(i))
        yd)
    [ 2; 3; 4 ]

(* Both stepping routes: the matrix-free operator fans its chaos blocks
   out over domains, while the assembled direct factor steps through one
   sequential triangular sweep whatever the domain count. *)
let test_solve_bitwise_across_domains () =
  let m = small_model () in
  let steps = 6 in
  List.iter
    (fun (route, solver) ->
      let solve domains =
        let options = solver_options ~domains solver in
        fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
      in
      let r1 = solve 1 and r3 = solve 3 in
      let n = m.Opera.Stochastic_model.n in
      for step = 0 to steps do
        for node = 0 to n - 1 do
          Helpers.check_float ~eps:0.0
            (route ^ ": sequential mean = 3 domains (bitwise)")
            (Opera.Response.mean_at r1 ~step ~node)
            (Opera.Response.mean_at r3 ~step ~node);
          Helpers.check_float ~eps:0.0
            (route ^ ": sequential variance = 3 domains (bitwise)")
            (Opera.Response.variance_at r1 ~step ~node)
            (Opera.Response.variance_at r3 ~step ~node)
        done
      done)
    [
      ("matrix-free", Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 });
      ("direct", Opera.Galerkin.Direct);
    ]

(* --- AMG mean-block preconditioner ------------------------------------- *)

let test_amg_precond_matches_direct () =
  let m = small_model () in
  let a_direct = Opera.Galerkin.solve_dc ~options:(solver_options Opera.Galerkin.Direct) m in
  let a_amg =
    Opera.Galerkin.solve_dc
      ~options:
        {
          (solver_options (Opera.Galerkin.Mean_pcg { tol = 1e-12; max_iter = 2000 })) with
          Opera.Galerkin.precond = Linalg.Precond.Amg;
        }
      m
  in
  Helpers.check_vec ~eps:1e-6 "AMG-preconditioned DC coefficients" a_direct a_amg

let test_amg_precond_bitwise_across_domains () =
  (* One AMG application is a purely sequential pass, so swapping the
     chaos-block fan-out width must not move a single bit. *)
  let m = small_model () in
  let steps = 4 in
  let solve domains =
    let options =
      {
        (solver_options ~domains (Opera.Galerkin.Matrix_free_pcg { tol = 1e-12; max_iter = 1000 })) with
        Opera.Galerkin.precond = Linalg.Precond.Amg;
      }
    in
    fst (Opera.Galerkin.solve_transient ~options m ~h:0.25e-9 ~steps)
  in
  let r1 = solve 1 and r3 = solve 3 in
  let n = m.Opera.Stochastic_model.n in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      Helpers.check_float ~eps:0.0 "AMG precond: sequential = 3 domains (bitwise)"
        (Opera.Response.mean_at r1 ~step ~node)
        (Opera.Response.mean_at r3 ~step ~node)
    done
  done

(* --- never assembles the Kronecker product ----------------------------- *)

let test_matrix_free_never_calls_kron () =
  let m = small_model () in
  let before = Linalg.Sparse.kron_count () in
  let _ =
    Opera.Galerkin.solve_transient
      ~options:(solver_options (Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 }))
      m ~h:0.25e-9 ~steps:4
  in
  Alcotest.(check int) "no Sparse.kron in matrix-free solve" before
    (Linalg.Sparse.kron_count ());
  (* sanity: the assembled route does call kron, so the counter works *)
  let _ =
    Opera.Galerkin.solve_transient ~options:(solver_options Opera.Galerkin.Direct) m
      ~h:0.25e-9 ~steps:1
  in
  Alcotest.(check bool) "Direct route does assemble" true
    (Linalg.Sparse.kron_count () > before)

(* --- argument validation ----------------------------------------------- *)

let test_apply_into_rejects_aliasing () =
  let m = small_model () in
  let op = Opera.Galerkin_op.gt m in
  let x = Array.make (Opera.Galerkin_op.dim op) 1.0 in
  Alcotest.check_raises "x == y rejected" (Invalid_argument "Galerkin_op.apply_into: x and y must be distinct")
    (fun () -> Opera.Galerkin_op.apply_into op x x);
  let short = Array.make 3 0.0 in
  (try
     Opera.Galerkin_op.apply_into op short (Array.make (Opera.Galerkin_op.dim op) 0.0);
     Alcotest.fail "short x accepted"
   with Invalid_argument _ -> ())

let suite =
  [
    test_apply_matches_kron_sum;
    test_model_operators_match_assembled;
    Alcotest.test_case "shapes and nnz" `Quick test_shapes_and_nnz;
    Alcotest.test_case "matrix-free DC = direct" `Quick test_matrix_free_dc_matches_direct;
    Alcotest.test_case "matrix-free transient = direct" `Quick
      test_matrix_free_transient_matches_direct;
    Alcotest.test_case "matrix-free trapezoidal = direct" `Quick test_matrix_free_trapezoidal;
    Alcotest.test_case "apply bitwise across domains" `Quick test_apply_bitwise_across_domains;
    Alcotest.test_case "solve bitwise across domains" `Quick test_solve_bitwise_across_domains;
    Alcotest.test_case "AMG precond DC = direct" `Quick test_amg_precond_matches_direct;
    Alcotest.test_case "AMG precond bitwise across domains" `Quick
      test_amg_precond_bitwise_across_domains;
    Alcotest.test_case "never calls kron" `Quick test_matrix_free_never_calls_kron;
    Alcotest.test_case "apply_into validation" `Quick test_apply_into_rejects_aliasing;
  ]
