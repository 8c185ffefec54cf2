type t = {
  mna : Powergrid.Mna.t;
  basis : Polychaos.Basis.t;
  leaks : (int * int * float) array;
  lambda : float;
  regions : int;
  vdd : float;
}

let make ?(order = 2) ~regions ~lambda ~leaks ~vdd circuit =
  if regions < 1 then invalid_arg "Special_case.make: need at least one region";
  let mna = Powergrid.Mna.assemble circuit in
  Array.iter
    (fun (node, region, i0) ->
      if node < 0 || node >= mna.Powergrid.Mna.n then
        invalid_arg "Special_case.make: leak node out of range";
      if region < 0 || region >= regions then
        invalid_arg "Special_case.make: leak region out of range";
      if i0 < 0.0 then invalid_arg "Special_case.make: negative leakage")
    leaks;
  let basis = Polychaos.Basis.isotropic Polychaos.Family.hermite ~dim:regions ~order in
  { mna; basis; leaks; lambda; regions; vdd }

(* Hermite coefficient of exp(lambda xi) on He_d: exp(lambda^2/2) lambda^d / d!. *)
let lognormal_coef lambda d =
  exp (lambda *. lambda /. 2.0) *. (lambda ** float_of_int d)
  /. Prob.Special_functions.factorial d

let excitation_term t k =
  let n = t.mna.Powergrid.Mna.n in
  let u = Linalg.Vec.create n in
  let idx = Polychaos.Basis.index t.basis k in
  (* Which single dimension does this index involve? *)
  let active = ref [] in
  Array.iteri (fun d deg -> if deg > 0 then active := (d, deg) :: !active) idx;
  (match !active with
  | [] ->
      (* rank 0: pads plus mean leakage *)
      Linalg.Vec.axpy ~alpha:1.0 t.mna.Powergrid.Mna.u_pad u;
      Array.iter
        (fun (node, _region, i0) -> u.(node) <- u.(node) -. (i0 *. lognormal_coef t.lambda 0))
        t.leaks
  | [ (d, deg) ] ->
      Array.iter
        (fun (node, region, i0) ->
          if region = d then u.(node) <- u.(node) -. (i0 *. lognormal_coef t.lambda deg))
        t.leaks
  | _ -> (* mixed indices never receive single-variable lognormal content *) ());
  u

(* The N+1 decoupled blocks share two factorizations and nothing else,
   so each step is one block solve: the right-hand sides of all blocks
   are staged column by column in [rhs] ([u_k], plus [C x_k / h] from
   one block product on the previous states), then one multi-vector
   triangular solve against [fdc] (DC) or [fbe] (every step) writes the
   new states straight into [coefs] — which is also the state the next
   step reads.  Domains split the blocks into column chunks, each with
   its own triangular workspace; every column is bitwise the
   single-vector solve, so results do not depend on the domain count.
   The drain profile of the step is computed once, sequentially, before
   the parallel region. *)
let run_decoupled ?(domains = 0) ?(metrics = Util.Metrics.global) ?factors t ~h ~steps ~probes
    ~record =
  let n = t.mna.Powergrid.Mna.n in
  let size = Polychaos.Basis.size t.basis in
  let c = Powergrid.Mna.c_total t.mna in
  let t0 = Util.Timer.start () in
  let fdc, fbe =
    match factors with
    | Some (fdc, fbe) ->
        if Linalg.Sparse_cholesky.dim fdc <> n || Linalg.Sparse_cholesky.dim fbe <> n then
          invalid_arg "Special_case.run_decoupled: factor dimension mismatch";
        (fdc, fbe)
    | None ->
        Util.Metrics.span metrics "special.factor_s" (fun () ->
            let g = Powergrid.Mna.g_total t.mna in
            let fdc =
              Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection g
            in
            let fbe =
              Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection
                (Linalg.Sparse.axpy ~alpha:(1.0 /. h) c g)
            in
            (fdc, fbe))
  in
  let static = Array.init size (excitation_term t) in
  let drain = Linalg.Vec.create n in
  (* Block states across time ([coefs], block k at [k * n]) and the
     staged right-hand sides. *)
  let coefs = Array.make (size * n) 0.0 in
  let rhs = Array.make (size * n) 0.0 in
  let cols = Array.init size Fun.id in
  let d = Util.Parallel.resolve domains in
  let chunks = Int.max 1 (Int.min d size) in
  let width = (size + chunks - 1) / chunks in
  let work =
    Array.init chunks (fun _ ->
        Array.make (Linalg.Sparse_cholesky.block_work_dim fdc ~k:width) 0.0)
  in
  let stage_u lo hi =
    for k = lo to hi - 1 do
      Array.blit static.(k) 0 rhs (k * n) n;
      (* Rank 0 carries the deterministic drain profile of the step. *)
      if k = 0 then
        for i = 0 to n - 1 do
          rhs.(i) <- rhs.(i) +. drain.(i)
        done
    done
  in
  let set_drain time =
    Linalg.Vec.fill drain 0.0;
    Powergrid.Mna.drain_into t.mna time drain
  in
  (* DC initial condition per block. *)
  set_drain 0.0;
  (* opera-lint: race — a chunk writes only blocks [lo, hi) of rhs and coefs *)
  Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
      stage_u lo hi;
      Linalg.Sparse_cholesky.solve_block_ws fdc ~work:work.(chunk) ~cols ~lo ~hi ~src:rhs
        ~dst:coefs);
  record 0 coefs;
  for step = 1 to steps do
    let time = float_of_int step *. h in
    let span = Util.Metrics.start_span () in
    set_drain time;
    (* opera-lint: race — a chunk writes only blocks [lo, hi) of rhs and coefs *)
    Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
        (* rhs_k = u_k + (C/h) x_k, then x_k <- (G + C/h)^-1 rhs_k *)
        stage_u lo hi;
        Linalg.Sparse.mul_block_acc ~alpha:(1.0 /. h) c ~x:coefs ~y:rhs ~cols ~lo ~hi;
        Linalg.Sparse_cholesky.solve_block_ws fbe ~work:work.(chunk) ~cols ~lo ~hi ~src:rhs
          ~dst:coefs);
    ignore (Util.Metrics.stop_span metrics "special.step_s" span);
    record step coefs
  done;
  ignore probes;
  Util.Timer.elapsed_s t0

let solve ?domains ?metrics ?factors t ~h ~steps ~probes =
  let n = t.mna.Powergrid.Mna.n in
  let response = Response.create ~basis:t.basis ~n ~steps ~h ~vdd:t.vdd ~probes in
  let elapsed =
    run_decoupled ?domains ?metrics ?factors t ~h ~steps ~probes ~record:(fun step coefs ->
        Response.record_step response ~step ~coefs)
  in
  (response, elapsed)

let to_stochastic_model t =
  let size = Polychaos.Basis.size t.basis in
  let statics =
    List.init size (fun k -> (k, excitation_term t k))
    |> List.filter (fun (_, v) -> Linalg.Vec.norm2 v > 0.0)
  in
  {
    Stochastic_model.basis = t.basis;
    tp = Polychaos.Triple_product.create t.basis;
    n = t.mna.Powergrid.Mna.n;
    g_terms = [ (0, Powergrid.Mna.g_total t.mna) ];
    c_terms = [ (0, Powergrid.Mna.c_total t.mna) ];
    u_static_terms = statics;
    u_drain_coefs = [ (0, 1.0) ];
    mna = t.mna;
    vdd = t.vdd;
  }

let solve_coupled ?solver ?policy t ~h ~steps ~probes =
  let model = to_stochastic_model t in
  let options = { Galerkin.default_options with probes } in
  let options = match solver with Some s -> { options with solver = s } | None -> options in
  let options = match policy with Some p -> { options with policy = p } | None -> options in
  let t0 = Util.Timer.start () in
  let response, _stats = Galerkin.solve_transient ~options model ~h ~steps in
  (response, Util.Timer.elapsed_s t0)

let monte_carlo t ~samples ~seed ~h ~steps ~probes =
  if samples <= 0 then invalid_arg "Special_case.monte_carlo: need samples";
  let n = t.mna.Powergrid.Mna.n in
  let g = Powergrid.Mna.g_total t.mna in
  let c = Powergrid.Mna.c_total t.mna in
  let rng = Prob.Rng.create ~seed () in
  let total = (steps + 1) * n in
  let mean = Array.make total 0.0 and m2 = Array.make total 0.0 in
  let probe_values =
    Array.map (fun _ -> Array.init (steps + 1) (fun _ -> Array.make samples 0.0)) probes
  in
  let t0 = Util.Timer.start () in
  (* Deterministic matrices: hoist both factorizations out of the loop. *)
  let fdc = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection g in
  let fbe = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection (Linalg.Sparse.axpy ~alpha:(1.0 /. h) c g) in
  let drain = Linalg.Vec.create n in
  let leak_static = Linalg.Vec.create n in
  let u = Linalg.Vec.create n in
  let x = Linalg.Vec.create n in
  let cx = Linalg.Vec.create n in
  let work = Linalg.Vec.create n in
  for s = 0 to samples - 1 do
    let xi = Prob.Rng.gaussian_vector rng t.regions in
    Linalg.Vec.fill leak_static 0.0;
    Linalg.Vec.axpy ~alpha:1.0 t.mna.Powergrid.Mna.u_pad leak_static;
    Array.iter
      (fun (node, region, i0) ->
        leak_static.(node) <- leak_static.(node) -. (i0 *. exp (t.lambda *. xi.(region))))
      t.leaks;
    let inject time =
      Array.blit leak_static 0 u 0 n;
      Linalg.Vec.fill drain 0.0;
      Powergrid.Mna.drain_into t.mna time drain;
      Linalg.Vec.axpy ~alpha:1.0 drain u
    in
    let count = float_of_int (s + 1) in
    let accumulate step v =
      let base = step * n in
      for i = 0 to n - 1 do
        let value = v.(i) in
        let delta = value -. mean.(base + i) in
        mean.(base + i) <- mean.(base + i) +. (delta /. count);
        m2.(base + i) <- m2.(base + i) +. (delta *. (value -. mean.(base + i)))
      done;
      Array.iteri (fun p node -> probe_values.(p).(step).(s) <- v.(node)) probes
    in
    inject 0.0;
    Array.blit u 0 x 0 n;
    Linalg.Sparse_cholesky.solve_in_place_ws fdc ~work x;
    accumulate 0 x;
    for step = 1 to steps do
      inject (float_of_int step *. h);
      Linalg.Sparse.mul_vec_into c x cx;
      for i = 0 to n - 1 do
        x.(i) <- u.(i) +. (cx.(i) /. h)
      done;
      Linalg.Sparse_cholesky.solve_in_place_ws fbe ~work x;
      accumulate step x
    done
  done;
  let variance = Array.map (fun v -> v /. float_of_int samples) m2 in
  {
    Monte_carlo.n;
    steps;
    h;
    samples;
    mean;
    variance;
    probe_values;
    elapsed_seconds = Util.Timer.elapsed_s t0;
  }
