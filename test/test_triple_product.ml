(* Triple-product tensors and PCE arithmetic — including the paper's
   explicit Eq. (20)/(21) matrices. *)

let test_hermite_closed_form_vs_quadrature () =
  let f = Polychaos.Family.hermite in
  for i = 0 to 4 do
    for j = 0 to 4 do
      for k = 0 to 4 do
        let closed = Polychaos.Triple_product.hermite_univariate i j k in
        let quad = Polychaos.Quadrature.expectation_of_product f [ i; j; k ] in
        Helpers.check_float
          ~eps:(1e-8 *. (1.0 +. Float.abs closed))
          (Printf.sprintf "E[He_%d He_%d He_%d]" i j k)
          closed quad
      done
    done
  done

let test_known_hermite_triples () =
  (* E[He_1 He_1 He_2] = E[x x (x^2-1)] = 3 - 1 = 2. *)
  Helpers.check_float "111 -> odd" 0.0 (Polychaos.Triple_product.hermite_univariate 1 1 1);
  Helpers.check_float "112" 2.0 (Polychaos.Triple_product.hermite_univariate 1 1 2);
  Helpers.check_float "011" 1.0 (Polychaos.Triple_product.hermite_univariate 0 1 1);
  Helpers.check_float "022" 2.0 (Polychaos.Triple_product.hermite_univariate 0 2 2);
  Helpers.check_float "123" 6.0 (Polychaos.Triple_product.hermite_univariate 1 2 3);
  Helpers.check_float "triangle violation" 0.0 (Polychaos.Triple_product.hermite_univariate 0 1 3)

let basis2 = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:2 ~order:2

let tp2 = Polychaos.Triple_product.create basis2

let test_value_symmetry () =
  for i = 0 to 5 do
    for j = 0 to 5 do
      for k = 0 to 5 do
        let v = Polychaos.Triple_product.value tp2 i j k in
        Helpers.check_float "sym jk" v (Polychaos.Triple_product.value tp2 i k j);
        Helpers.check_float "sym ij" v (Polychaos.Triple_product.value tp2 j i k)
      done
    done
  done

let test_coupling_zero_is_norm_diagonal () =
  let t0 = Polychaos.Triple_product.coupling_matrix tp2 0 in
  let expected =
    Linalg.Dense.init 6 6 (fun j k ->
        if j = k then Polychaos.Basis.norm_sq basis2 j else 0.0)
  in
  Helpers.check_dense "T_0 = diag(norms)" expected t0

(* The paper's Eq. (20): G(xi) = Ga + Gg xiG over basis
   (1, xiG, xiL, xiG^2-1, xiG xiL, xiL^2-1). Using scalar Ga, Gg the
   augmented matrix is sum_i T_i * coefficient. *)
let paper_gt ga gg =
  Linalg.Dense.of_arrays
    [|
      [| ga; gg; 0.; 0.; 0.; 0. |];
      [| gg; ga; 0.; 2. *. gg; 0.; 0. |];
      [| 0.; 0.; ga; 0.; gg; 0. |];
      [| 0.; 2. *. gg; 0.; 2. *. ga; 0.; 0. |];
      [| 0.; 0.; gg; 0.; ga; 0. |];
      [| 0.; 0.; 0.; 0.; 0.; 2. *. ga |];
    |]

(* Eq. (21) with the paper's "2Cb" typo corrected to 0 (Cb is never
   defined; E[xiL psi_1 psi_3] = 0). *)
let paper_ct ca cc =
  Linalg.Dense.of_arrays
    [|
      [| ca; 0.; cc; 0.; 0.; 0. |];
      [| 0.; ca; 0.; 0.; cc; 0. |];
      [| cc; 0.; ca; 0.; 0.; 2. *. cc |];
      [| 0.; 0.; 0.; 2. *. ca; 0.; 0. |];
      [| 0.; cc; 0.; 0.; ca; 0. |];
      [| 0.; 0.; 2. *. cc; 0.; 0.; 2. *. ca |];
    |]

let scalar v = Linalg.Sparse.of_triplets ~nrows:1 ~ncols:1 [ (0, 0, v) ]

let galerkin_matrix terms =
  (* sum_i kron(T_i, [a_i]) for scalar terms -> 6x6 dense *)
  List.fold_left
    (fun acc (rank, v) ->
      Linalg.Dense.add acc
        (Linalg.Sparse.to_dense (Linalg.Sparse.kron (Polychaos.Triple_product.coupling_matrix tp2 rank) (scalar v))))
    (Linalg.Dense.create 6 6) terms

let test_paper_eq20 () =
  let ga = 3.7 and gg = 0.31 in
  (* xiG is dimension 0 -> rank 1. *)
  let gt = galerkin_matrix [ (0, ga); (1, gg) ] in
  Helpers.check_dense ~eps:1e-12 "Eq. (20) reproduced" (paper_gt ga gg) gt

let test_paper_eq21 () =
  let ca = 1.9 and cc = 0.23 in
  (* xiL is dimension 1 -> rank 2. *)
  let ct = galerkin_matrix [ (0, ca); (2, cc) ] in
  Helpers.check_dense ~eps:1e-12 "Eq. (21) reproduced (typo corrected)" (paper_ct ca cc) ct

let test_pce_mean_var () =
  let coefs = [| 1.5; 0.2; -0.3; 0.05; 0.1; -0.07 |] in
  let x = Polychaos.Pce.create basis2 coefs in
  Helpers.check_float "mean = a0" 1.5 (Polychaos.Pce.mean x);
  (* Eq. (23): Var = a1^2 + a2^2 + 2 a3^2 + a4^2 + 2 a5^2 *)
  let expected_var =
    (0.2 ** 2.) +. (0.3 ** 2.) +. (2. *. (0.05 ** 2.)) +. (0.1 ** 2.) +. (2. *. (0.07 ** 2.))
  in
  Helpers.check_float ~eps:1e-12 "variance via Eq. (23)" expected_var (Polychaos.Pce.variance x)

let test_pce_sampled_moments () =
  let coefs = [| 1.0; 0.3; 0.1; 0.02; 0.0; 0.05 |] in
  let x = Polychaos.Pce.create basis2 coefs in
  let rng = Prob.Rng.create ~seed:77L () in
  let acc = Prob.Stats.Online.create () in
  for _ = 1 to 100_000 do
    Prob.Stats.Online.add acc (Polychaos.Pce.sample x rng)
  done;
  Helpers.check_float ~eps:0.01 "sampled mean" (Polychaos.Pce.mean x) (Prob.Stats.Online.mean acc);
  Helpers.check_float
    ~eps:(0.05 *. Polychaos.Pce.variance x)
    "sampled variance" (Polychaos.Pce.variance x) (Prob.Stats.Online.variance acc)

let test_pce_variable_and_arithmetic () =
  let xg = Polychaos.Pce.variable basis2 0 in
  Helpers.check_float "E[xi] = 0" 0.0 (Polychaos.Pce.mean xg);
  Helpers.check_float "Var[xi] = 1" 1.0 (Polychaos.Pce.variance xg);
  let c = Polychaos.Pce.constant basis2 2.0 in
  let y = Polychaos.Pce.add (Polychaos.Pce.scale 3.0 xg) c in
  (* y = 3 xi + 2 *)
  Helpers.check_float "mean 3xi+2" 2.0 (Polychaos.Pce.mean y);
  Helpers.check_float "var 3xi+2" 9.0 (Polychaos.Pce.variance y);
  Helpers.check_float ~eps:1e-12 "eval" ((3.0 *. 0.7) +. 2.0)
    (Polychaos.Pce.eval y [| 0.7; -0.2 |])

let test_pce_mul () =
  (* xi * xi = xi^2 = (xi^2 - 1) + 1: coefficients 1 on psi_0 and psi_3. *)
  let xg = Polychaos.Pce.variable basis2 0 in
  let sq = Polychaos.Pce.mul tp2 xg xg in
  Helpers.check_float ~eps:1e-12 "E[xi^2]" 1.0 (Polychaos.Pce.mean sq);
  Helpers.check_float ~eps:1e-12 "coef on psi_3" 1.0 sq.Polychaos.Pce.coefs.(3);
  Helpers.check_float ~eps:1e-12 "Var[xi^2] = 2" 2.0 (Polychaos.Pce.variance sq);
  (* Product of the two distinct variables: xiG * xiL = psi_4. *)
  let xl = Polychaos.Pce.variable basis2 1 in
  let prod = Polychaos.Pce.mul tp2 xg xl in
  Helpers.check_float ~eps:1e-12 "coef on psi_4" 1.0 prod.Polychaos.Pce.coefs.(4);
  Helpers.check_float ~eps:1e-12 "mean xiG xiL" 0.0 (Polychaos.Pce.mean prod)

let test_pce_central_moments () =
  (* X = mu + s xi is Gaussian: m3 = 0, m4 = 3 s^4. *)
  let x = Polychaos.Pce.add (Polychaos.Pce.constant basis2 2.0)
      (Polychaos.Pce.scale 0.5 (Polychaos.Pce.variable basis2 0))
  in
  Helpers.check_float ~eps:1e-10 "m2" 0.25 (Polychaos.Pce.central_moment x 2);
  Helpers.check_float ~eps:1e-10 "m3" 0.0 (Polychaos.Pce.central_moment x 3);
  Helpers.check_float ~eps:1e-9 "m4" (3.0 *. (0.5 ** 4.0)) (Polychaos.Pce.central_moment x 4);
  Helpers.check_float ~eps:1e-8 "skewness" 0.0 (Polychaos.Pce.skewness x);
  Helpers.check_float ~eps:1e-7 "kurtosis" 0.0 (Polychaos.Pce.kurtosis_excess x)

let prop_pce_eval_linear =
  Helpers.qcheck_case ~count:50 "pce add/scale evaluate pointwise"
    QCheck.(pair (float_range (-2.) 2.) (float_range (-2.) 2.))
    (fun (s, t) ->
      let xg = Polychaos.Pce.variable basis2 0 in
      let xl = Polychaos.Pce.variable basis2 1 in
      let y = Polychaos.Pce.add (Polychaos.Pce.scale s xg) (Polychaos.Pce.scale t xl) in
      let xi = [| 0.37; -0.85 |] in
      Float.abs (Polychaos.Pce.eval y xi -. ((s *. 0.37) +. (t *. -0.85))) < 1e-10)

let suite =
  [
    Alcotest.test_case "closed form vs quadrature" `Quick test_hermite_closed_form_vs_quadrature;
    Alcotest.test_case "known hermite triples" `Quick test_known_hermite_triples;
    Alcotest.test_case "tensor symmetry" `Quick test_value_symmetry;
    Alcotest.test_case "T_0 = diag(norms)" `Quick test_coupling_zero_is_norm_diagonal;
    Alcotest.test_case "paper Eq. (20)" `Quick test_paper_eq20;
    Alcotest.test_case "paper Eq. (21)" `Quick test_paper_eq21;
    Alcotest.test_case "pce mean/var Eq. (23)" `Quick test_pce_mean_var;
    Alcotest.test_case "pce sampled moments" `Slow test_pce_sampled_moments;
    Alcotest.test_case "pce variable/arith" `Quick test_pce_variable_and_arithmetic;
    Alcotest.test_case "pce galerkin product" `Quick test_pce_mul;
    Alcotest.test_case "pce central moments" `Quick test_pce_central_moments;
    prop_pce_eval_linear;
  ]
