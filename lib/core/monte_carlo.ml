type sampler = Pseudo | Quasi_halton

type config = {
  samples : int;
  seed : int64;
  h : float;
  steps : int;
  ordering : Linalg.Ordering.kind;
  probes : int array;
  sampler : sampler;
}

let default_config ~h ~steps =
  {
    samples = 1000;
    seed = 7L;
    h;
    steps;
    ordering = Linalg.Ordering.Nested_dissection;
    probes = [||];
    sampler = Pseudo;
  }

type result = {
  n : int;
  steps : int;
  h : float;
  samples : int;
  mean : float array;
  variance : float array;
  probe_values : float array array array;
  elapsed_seconds : float;
}

let run ?(progress = fun _ -> ()) (m : Stochastic_model.t) (cfg : config) =
  if cfg.samples <= 0 then invalid_arg "Monte_carlo.run: need at least one sample";
  if cfg.h <= 0.0 then invalid_arg "Monte_carlo.run: step must be positive";
  let n = m.Stochastic_model.n in
  let samples = cfg.samples in
  let t0 = Util.Timer.start () in
  (* The pattern is identical across samples: order once, refactor per
     sample with the precomputed permutation. *)
  let perm = Linalg.Ordering.compute cfg.ordering (Stochastic_model.node_pattern m) in
  let dim = Polychaos.Basis.dim m.Stochastic_model.basis in
  let families = Polychaos.Basis.families m.Stochastic_model.basis in
  let draw_xi =
    match cfg.sampler with
    | Pseudo ->
        let rng = Prob.Rng.create ~seed:cfg.seed () in
        fun () -> Polychaos.Basis.sample_point m.Stochastic_model.basis rng
    | Quasi_halton ->
        let halton = Prob.Halton.create ~skip:32 ~dim () in
        fun () ->
          let u = Prob.Halton.next halton in
          Array.mapi
            (fun d ud ->
              match families.(d).Polychaos.Family.name with
              | "hermite" -> Prob.Normal.ppf (Float.max 1e-12 (Float.min (1.0 -. 1e-12) ud))
              | "legendre" -> (2.0 *. ud) -. 1.0
              | other ->
                  invalid_arg
                    (Printf.sprintf "Monte_carlo: no quasi-random transform for %s" other))
            u
  in
  let total = (cfg.steps + 1) * n in
  let mean = Array.make total 0.0 in
  let m2 = Array.make total 0.0 in
  let probe_values =
    Array.map (fun _ -> Array.init (cfg.steps + 1) (fun _ -> Array.make samples 0.0)) cfg.probes
  in
  let drain = Array.make n 0.0 in
  let u = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let cx = Array.make n 0.0 in
  let work = Array.make n 0.0 in
  for s = 0 to samples - 1 do
    (* Draw from the basis' own orthogonality measure so Gaussian/Hermite
       and Uniform/Legendre models are both sampled consistently. *)
    let xi = draw_xi () in
    let g = Stochastic_model.g_of_sample m xi in
    let c = Stochastic_model.c_of_sample m xi in
    let psi = Polychaos.Basis.eval_all m.Stochastic_model.basis xi in
    let static = Array.make n 0.0 in
    List.iter
      (fun (rank, vec) -> Linalg.Vec.axpy ~alpha:psi.(rank) vec static)
      m.Stochastic_model.u_static_terms;
    let drain_coef =
      List.fold_left
        (fun acc (rank, cf) -> acc +. (cf *. psi.(rank)))
        0.0 m.Stochastic_model.u_drain_coefs
    in
    let inject t out =
      Array.blit static 0 out 0 n;
      Linalg.Vec.fill drain 0.0;
      Powergrid.Mna.drain_into m.Stochastic_model.mna t drain;
      Linalg.Vec.axpy ~alpha:drain_coef drain out
    in
    (* Welford running moments per (step, node). *)
    let count = float_of_int (s + 1) in
    let accumulate step x =
      let base = step * n in
      for i = 0 to n - 1 do
        let v = x.(i) in
        let delta = v -. mean.(base + i) in
        mean.(base + i) <- mean.(base + i) +. (delta /. count);
        m2.(base + i) <- m2.(base + i) +. (delta *. (v -. mean.(base + i)))
      done;
      Array.iteri (fun p node -> probe_values.(p).(step).(s) <- x.(node)) cfg.probes
    in
    (* DC initial condition, then backward Euler — both factorizations are
       fresh per sample (the matrices changed), the symbolic ordering is
       shared. *)
    let fdc = Linalg.Sparse_cholesky.factor ~perm g in
    inject 0.0 u;
    Array.blit u 0 x 0 n;
    Linalg.Sparse_cholesky.solve_in_place_ws fdc ~work x;
    accumulate 0 x;
    let fbe =
      Linalg.Sparse_cholesky.factor ~perm (Linalg.Sparse.axpy ~alpha:(1.0 /. cfg.h) c g)
    in
    for k = 1 to cfg.steps do
      inject (float_of_int k *. cfg.h) u;
      Linalg.Sparse.mul_vec_into c x cx;
      for i = 0 to n - 1 do
        x.(i) <- u.(i) +. (cx.(i) /. cfg.h)
      done;
      Linalg.Sparse_cholesky.solve_in_place_ws fbe ~work x;
      accumulate k x
    done;
    progress (s + 1)
  done;
  let elapsed_seconds = Util.Timer.elapsed_s t0 in
  let variance = Array.map (fun v -> v /. float_of_int samples) m2 in
  { n; steps = cfg.steps; h = cfg.h; samples; mean; variance; probe_values; elapsed_seconds }

let mean_at r ~step ~node = r.mean.((step * r.n) + node)

let variance_at r ~step ~node = r.variance.((step * r.n) + node)

let std_at r ~step ~node = sqrt (variance_at r ~step ~node)
