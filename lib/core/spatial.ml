type t = {
  centers : (float * float) array;
  mode_weights : float array array;
  captured : float;
}

let region_centers (spec : Powergrid.Grid_spec.t) =
  let rx = spec.regions_x and ry = spec.regions_y in
  Array.init (rx * ry) (fun r ->
      let ix = r mod rx and iy = r / rx in
      ( (float_of_int ix +. 0.5) /. float_of_int rx,
        (float_of_int iy +. 0.5) /. float_of_int ry ))

let exponential_covariance ~sigma ~corr_length centers =
  if corr_length <= 0.0 then invalid_arg "Spatial: correlation length must be positive";
  let n = Array.length centers in
  Linalg.Dense.init n n (fun i j ->
      let xi, yi = centers.(i) and xj, yj = centers.(j) in
      let d = Float.hypot (xi -. xj) (yi -. yj) in
      sigma *. sigma *. exp (-.d /. corr_length))

let karhunen_loeve ~sigma ~corr_length ~centers ~energy =
  if energy <= 0.0 || energy > 1.0 then invalid_arg "Spatial: energy must lie in (0, 1]";
  let cov = exponential_covariance ~sigma ~corr_length centers in
  let values, vectors = Linalg.Eig.symmetric cov in
  let n = Array.length values in
  (* Eigenvalues come ascending; walk from the largest. *)
  let total = Array.fold_left (fun acc v -> acc +. Float.max 0.0 v) 0.0 values in
  let picked = ref [] in
  let acc = ref 0.0 in
  let m = ref 0 in
  while !acc < energy *. total && !m < n do
    let idx = n - 1 - !m in
    let lambda = Float.max 0.0 values.(idx) in
    acc := !acc +. lambda;
    picked := (lambda, Linalg.Dense.col vectors idx) :: !picked;
    incr m
  done;
  let mode_weights =
    List.rev !picked
    |> List.map (fun (lambda, phi) -> Array.map (fun p -> sqrt lambda *. p) phi)
    |> Array.of_list
  in
  { centers; mode_weights; captured = (if total > 0.0 then !acc /. total else 1.0) }

let modes t = Array.length t.mode_weights

let field_variance t r =
  Array.fold_left (fun acc w -> acc +. (w.(r) *. w.(r))) 0.0 t.mode_weights

let sample_field t rng =
  let n = Array.length t.centers in
  let field = Array.make n 0.0 in
  Array.iter
    (fun w ->
      let xi = Prob.Rng.gaussian rng in
      for r = 0 to n - 1 do
        field.(r) <- field.(r) +. (w.(r) *. xi)
      done)
    t.mode_weights;
  field

let build_model ?(order = 2) t ~(base : Varmodel.t) ~spec circuit =
  if base.family <> Varmodel.Gaussian then
    invalid_arg "Spatial.build_model: the KL field is Gaussian; use a Gaussian base model";
  let mna = Powergrid.Mna.assemble circuit in
  let n = mna.Powergrid.Mna.n in
  let regions = Array.length t.centers in
  let nmodes = modes t in
  let dim = nmodes + 1 in
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim ~order in
  let tp = Polychaos.Triple_product.create basis in
  let rank d =
    let idx = Array.make dim 0 in
    idx.(d) <- 1;
    Polychaos.Basis.rank_of_index basis idx
  in
  (* Wire conductance of each chip region as its own matrix. *)
  let region_g =
    Powergrid.Mna.wire_groups circuit ~groups:regions (Powergrid.Grid_gen.region_of_node spec)
  in
  let ga = Powergrid.Mna.g_total mna in
  let ca = Powergrid.Mna.c_total mna in
  (* Mode m: G-perturbation sum_r w_m(r) G_r (relative variation). *)
  let mode_term m =
    let w = t.mode_weights.(m) in
    let acc = ref (Linalg.Sparse.zero ~nrows:n ~ncols:n) in
    Array.iteri
      (fun r g_r ->
        if not (Util.Floats.equal_exact w.(r) 0.0) then
          acc := Linalg.Sparse.axpy ~alpha:w.(r) g_r !acc)
      region_g;
    !acc
  in
  let g_terms =
    (0, ga)
    :: List.init nmodes (fun m -> (rank m, mode_term m))
    |> List.filter (fun (_, mat) -> Linalg.Sparse.nnz mat > 0)
  in
  let rl = rank nmodes in
  let gate_term = Linalg.Sparse.scale base.sigma_l mna.Powergrid.Mna.c_gate in
  let c_terms =
    (0, ca) :: (if Linalg.Sparse.nnz gate_term > 0 then [ (rl, gate_term) ] else [])
  in
  {
    Stochastic_model.basis;
    tp;
    n;
    g_terms;
    c_terms;
    u_static_terms = [ (0, Array.copy mna.Powergrid.Mna.u_pad) ];
    u_drain_coefs = [ (0, 1.0); (rl, base.current_sensitivity) ];
    mna;
    vdd = spec.Powergrid.Grid_spec.vdd;
  }
