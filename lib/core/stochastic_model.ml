type t = {
  basis : Polychaos.Basis.t;
  tp : Polychaos.Triple_product.t;
  n : int;
  g_terms : (int * Linalg.Sparse.t) list;
  c_terms : (int * Linalg.Sparse.t) list;
  u_static_terms : (int * Linalg.Vec.t) list;
  u_drain_coefs : (int * float) list;
  mna : Powergrid.Mna.t;
  vdd : float;
}

let degree1_rank basis d =
  let idx = Array.make (Polychaos.Basis.dim basis) 0 in
  idx.(d) <- 1;
  Polychaos.Basis.rank_of_index basis idx

let family_of (vm : Varmodel.t) =
  match vm.family with
  | Varmodel.Gaussian -> Polychaos.Family.hermite
  | Varmodel.Uniform ->
      if vm.mode = Varmodel.Combined then
        invalid_arg
          "Stochastic_model.build: the Combined (Eq. 14) reduction needs Gaussian closure; \
           use Separate or Grouped_wires with Uniform variations";
      Polychaos.Family.legendre

let basis_of ?(order = 2) vm =
  Polychaos.Basis.isotropic (family_of vm) ~dim:(Varmodel.dim vm) ~order

let build ?(order = 2) ?tp (vm : Varmodel.t) ~vdd circuit =
  let mna = Powergrid.Mna.assemble circuit in
  let n = mna.Powergrid.Mna.n in
  let dim = Varmodel.dim vm in
  if vm.multiplicative_wt && vm.mode <> Varmodel.Separate then
    invalid_arg "Stochastic_model.build: multiplicative_wt needs Separate mode (xiW, xiT kept apart)";
  let family = family_of vm in
  let basis = Polychaos.Basis.isotropic family ~dim ~order in
  let tp =
    match tp with
    | Some provider -> provider basis
    | None -> Polychaos.Triple_product.create basis
  in
  let rank = degree1_rank basis in
  (* A degree-1 basis polynomial has variance norm_sq 1 (= 1 for Hermite,
     1/3 for Legendre); scale its coefficient so the parameter's standard
     deviation equals the requested sigma regardless of the family. *)
  let unit_scale = 1.0 /. sqrt (Polychaos.Family.norm_sq family 1) in
  let vm =
    {
      vm with
      Varmodel.sigma_w = vm.sigma_w *. unit_scale;
      sigma_t = vm.sigma_t *. unit_scale;
      sigma_l = vm.sigma_l *. unit_scale;
      current_sensitivity = vm.current_sensitivity *. unit_scale;
    }
  in
  let ga = Powergrid.Mna.g_total mna in
  let ca = Powergrid.Mna.c_total mna in
  let sg = Varmodel.sigma_g vm in
  let g_wire = mna.Powergrid.Mna.g_wire and g_pad = mna.Powergrid.Mna.g_pad in
  let c_gate = mna.Powergrid.Mna.c_gate in
  let u_pad = mna.Powergrid.Mna.u_pad in
  let g_var_full =
    (* The conductances that follow xiG; pads optionally included. *)
    if vm.pad_varies then Linalg.Sparse.add g_wire g_pad else g_wire
  in
  let g_terms, u_static_terms, u_drain_coefs =
    match vm.mode with
    | Varmodel.Combined ->
        let rg = rank 0 and rl = rank 1 in
        let g_terms = [ (0, ga); (rg, Linalg.Sparse.scale sg g_var_full) ] in
        let u_static =
          (0, Array.copy u_pad)
          :: (if vm.pad_varies then [ (rg, Linalg.Vec.scaled sg u_pad) ] else [])
        in
        let u_drain = [ (0, 1.0); (rl, vm.current_sensitivity) ] in
        (g_terms, u_static, u_drain)
    | Varmodel.Separate ->
        let rw = rank 0 and rt = rank 1 and rl = rank 2 in
        let g_terms =
          [
            (0, ga);
            (rw, Linalg.Sparse.scale vm.sigma_w g_var_full);
            (rt, Linalg.Sparse.scale vm.sigma_t g_var_full);
          ]
          @
          (* Exact multiplicative W*T conductance: the (1 + sw xiW)(1 + st
             xiT) product contributes a degree-2 cross term sw st xiW xiT
             — the basis function with multi-index (1, 1, 0). *)
          if vm.multiplicative_wt then begin
            if order < 2 then
              invalid_arg "Stochastic_model.build: multiplicative_wt needs order >= 2";
            let idx = Array.make dim 0 in
            idx.(0) <- 1;
            idx.(1) <- 1;
            let rwt = Polychaos.Basis.rank_of_index basis idx in
            [ (rwt, Linalg.Sparse.scale (vm.sigma_w *. vm.sigma_t) g_var_full) ]
          end
          else []
        in
        let u_static =
          (0, Array.copy u_pad)
          ::
          (if vm.pad_varies then
             [
               (rw, Linalg.Vec.scaled vm.sigma_w u_pad);
               (rt, Linalg.Vec.scaled vm.sigma_t u_pad);
             ]
           else [])
        in
        let u_drain = [ (0, 1.0); (rl, vm.current_sensitivity) ] in
        (g_terms, u_static, u_drain)
    | Varmodel.Grouped_wires k ->
        if k < 1 then invalid_arg "Stochastic_model.build: need at least one wire group";
        (* The wire conductance split into [k] vertical stripes by node id. *)
        let groups =
          Powergrid.Mna.wire_groups circuit ~groups:k (fun node -> Int.min (k - 1) (node * k / n))
        in
        let rl = rank k in
        let g_terms =
          (0, ga)
          :: (Array.to_list groups
             |> List.mapi (fun g m -> (rank g, Linalg.Sparse.scale sg m))
             |> List.filter (fun (_, m) -> Linalg.Sparse.nnz m > 0))
        in
        (* Pad variation is not attributed to a stripe in grouped mode. *)
        let u_static = [ (0, Array.copy u_pad) ] in
        let u_drain = [ (0, 1.0); (rl, vm.current_sensitivity) ] in
        (g_terms, u_static, u_drain)
  in
  let c_terms =
    let rl =
      match vm.mode with
      | Varmodel.Combined -> rank 1
      | Varmodel.Separate -> rank 2
      | Varmodel.Grouped_wires k -> rank k
    in
    let gate_term = Linalg.Sparse.scale vm.sigma_l c_gate in
    (0, ca) :: (if Linalg.Sparse.nnz gate_term > 0 then [ (rl, gate_term) ] else [])
  in
  { basis; tp; n; g_terms; c_terms; u_static_terms; u_drain_coefs; mna; vdd }

let eval_terms_matrix m terms xi =
  let psi = Polychaos.Basis.eval_all m.basis xi in
  List.fold_left
    (fun acc (rank, mat) ->
      match acc with
      | None -> Some (Linalg.Sparse.scale psi.(rank) mat)
      | Some sum -> Some (Linalg.Sparse.axpy ~alpha:psi.(rank) mat sum))
    None terms
  |> function
  | Some s -> s
  | None -> Linalg.Sparse.zero ~nrows:m.n ~ncols:m.n

let g_of_sample m xi = eval_terms_matrix m m.g_terms xi

let c_of_sample m xi = eval_terms_matrix m m.c_terms xi

let xi_rank m d = degree1_rank m.basis d

let node_pattern m =
  let add acc (_, mat) = Linalg.Sparse.add acc (Linalg.Sparse.map_values Float.abs mat) in
  let zero = Linalg.Sparse.zero ~nrows:m.n ~ncols:m.n in
  List.fold_left add (List.fold_left add zero m.g_terms) m.c_terms

let drain_profile_into m t u =
  Linalg.Vec.fill u 0.0;
  Powergrid.Mna.drain_into m.mna t u

let u_of_sample m xi t =
  let psi = Polychaos.Basis.eval_all m.basis xi in
  let u = Linalg.Vec.create m.n in
  List.iter (fun (rank, vec) -> Linalg.Vec.axpy ~alpha:psi.(rank) vec u) m.u_static_terms;
  let drain = Linalg.Vec.create m.n in
  Powergrid.Mna.drain_into m.mna t drain;
  let coef =
    List.fold_left (fun acc (rank, c) -> acc +. (c *. psi.(rank))) 0.0 m.u_drain_coefs
  in
  Linalg.Vec.axpy ~alpha:coef drain u;
  u
