(* Stochastic-testing collocation: pin the gPC solution down at N+1
   well-chosen testing points, solve each point as an ordinary
   deterministic system, and recover the Galerkin-layout coefficients
   through the dense inverse-Vandermonde transform.  The point solves
   are embarrassingly parallel and share their factors or mean solver
   read-only, so the whole backend rides the transient hot path's
   kernel discipline: per-chunk scratch, disjoint output slices,
   bitwise-identical results at any domain count. *)

type points = {
  basis : Polychaos.Basis.t;
  pts : float array array;
  vand : Linalg.Dense.t;
  inv : Linalg.Dense.t;
}

let default_seed = 1L

(* ---- point selection -------------------------------------------------

   Candidates: the tensor grid of (order+1)-point Gaussian nodes per
   dimension, ranked heaviest quadrature weight first (ties toward the
   lower enumeration index), optionally topped up with seeded draws
   from the orthogonality measure.  Selection: greedy maximum volume by
   modified Gram-Schmidt on the candidate rows of the Vandermonde
   matrix — each round takes the candidate with the largest residual
   norm (exact ties toward the lower index), which keeps |det V| large
   and V^-1 tame.  Everything is a deterministic function of
   (basis, candidates, seed). *)

let select_points ?(candidates = 0) ?(seed = default_seed) basis =
  let size = Polychaos.Basis.size basis in
  let dim = Polychaos.Basis.dim basis in
  let order = Polychaos.Basis.order basis in
  let fams = Polychaos.Basis.families basis in
  let npts = order + 1 in
  let rules = Array.map (fun f -> Polychaos.Quadrature.gauss f npts) fams in
  let tensor_n =
    let acc = ref 1 in
    for _ = 1 to dim do
      acc := !acc * npts
    done;
    !acc
  in
  let tensor_pts = Array.init tensor_n (fun _ -> Array.make dim 0.0) in
  let tensor_w = Array.make tensor_n 1.0 in
  for idx = 0 to tensor_n - 1 do
    let rest = ref idx in
    for d = 0 to dim - 1 do
      let digit = !rest mod npts in
      rest := !rest / npts;
      tensor_pts.(idx).(d) <- rules.(d).Polychaos.Quadrature.nodes.(digit);
      tensor_w.(idx) <- tensor_w.(idx) *. rules.(d).Polychaos.Quadrature.weights.(digit)
    done
  done;
  let by_weight = Array.init tensor_n Fun.id in
  Array.sort
    (fun a b ->
      let c = compare tensor_w.(b) tensor_w.(a) in
      if c <> 0 then c else compare a b)
    by_weight;
  let pool_n =
    if candidates <= 0 then Int.max size tensor_n else Int.max size candidates
  in
  let pool =
    if pool_n <= tensor_n then Array.init pool_n (fun i -> tensor_pts.(by_weight.(i)))
    else begin
      let rng = Prob.Rng.create ~seed () in
      Array.init pool_n (fun i ->
          if i < tensor_n then tensor_pts.(by_weight.(i))
          else Polychaos.Basis.sample_point basis rng)
    end
  in
  let rows = Array.map (Polychaos.Basis.eval_all basis) pool in
  let resid = Array.map Array.copy rows in
  let taken = Array.make pool_n false in
  let chosen = Array.make size 0 in
  for s = 0 to size - 1 do
    let best = ref (-1) and best_norm = ref 0.0 in
    for c = 0 to pool_n - 1 do
      if not taken.(c) then begin
        let nrm = Linalg.Vec.norm2 resid.(c) in
        if nrm > !best_norm then begin
          best := c;
          best_norm := nrm
        end
      end
    done;
    if !best < 0 || !best_norm <= 1e-10 then
      invalid_arg "St_solver.select_points: candidate set does not span the basis";
    taken.(!best) <- true;
    chosen.(s) <- !best;
    let q = Array.copy resid.(!best) in
    Linalg.Vec.scale (1.0 /. !best_norm) q;
    for c = 0 to pool_n - 1 do
      if not taken.(c) then
        Linalg.Vec.axpy ~alpha:(-.Linalg.Vec.dot resid.(c) q) q resid.(c)
    done
  done;
  let pts = Array.init size (fun s -> Array.copy pool.(chosen.(s))) in
  let vand = Linalg.Dense.init size size (fun i k -> rows.(chosen.(i)).(k)) in
  let inv = Linalg.Lu.inverse (Linalg.Lu.factor vand) in
  { basis; pts; vand; inv }

(* ---- per-point operators and excitations ----------------------------- *)

let nominal (m : Stochastic_model.t) terms =
  match List.assoc_opt 0 terms with
  | Some mat -> mat
  | None -> Linalg.Sparse.zero ~nrows:m.n ~ncols:m.n

let mean_g m = nominal m m.Stochastic_model.g_terms

let step_matrix (m : Stochastic_model.t) (p : points) i ~h =
  if h <= 0.0 then invalid_arg "St_solver.step_matrix: step must be positive";
  let gi = Stochastic_model.g_of_sample m p.pts.(i) in
  let ci = Stochastic_model.c_of_sample m p.pts.(i) in
  Linalg.Sparse.axpy ~alpha:(1.0 /. h) ci gi

(* The excitation at a point splits as [u_static(xi) + dcoef(xi) i(t)]
   (the decomposition Stochastic_model.u_of_sample evaluates), so the
   drain profile is computed once per step on the main domain and each
   point only scales it. *)
let static_of_point (m : Stochastic_model.t) psi =
  let v = Array.make m.n 0.0 in
  List.iter (fun (rank, vec) -> Linalg.Vec.axpy ~alpha:psi.(rank) vec v) m.u_static_terms;
  v

let drain_coef_of_point (m : Stochastic_model.t) psi =
  List.fold_left (fun acc (rank, c) -> acc +. (psi.(rank) *. c)) 0.0 m.u_drain_coefs

(* ---- options / stats -------------------------------------------------- *)

type options = {
  candidates : int;
  seed : int64;
  refine_tol : float;
  refine_max : int;
  ordering : Linalg.Ordering.kind;
  precond : Linalg.Precond.kind;
  probes : int array;
  domains : int;
  metrics : Util.Metrics.t;
}

let default_options =
  {
    candidates = 0;
    seed = default_seed;
    refine_tol = 1e-10;
    refine_max = 100;
    ordering = Linalg.Ordering.Nested_dissection;
    precond = Linalg.Precond.Cholesky;
    probes = [||];
    domains = 0;
    metrics = Util.Metrics.global;
  }

type stats = {
  points : int;
  factorizations : int;
  refine_sweeps : int;
  nnz_point : int;
  nnz_factor : int;
  select_seconds : float;
  factor_seconds : float;
  step_seconds : float;
  health : Linalg.Solve_report.aggregate;
}

(* ---- shared machinery ------------------------------------------------- *)

let checked_points ~options (m : Stochastic_model.t) = function
  | Some p ->
      if p.basis != m.basis && Polychaos.Basis.size p.basis <> Polychaos.Basis.size m.basis
      then invalid_arg "St_solver: supplied points were selected for another basis";
      p
  | None -> select_points ~candidates:options.candidates ~seed:options.seed m.basis

(* The shared mean solver behind the point solves: a caller-cached
   exact factor when supplied, otherwise whatever backend
   [options.precond] resolves to on n — exact Cholesky below the auto
   threshold (today's behavior bitwise), AMG above it.  Only an exact
   factorization ticks the [count] stat. *)
let checked_ms ~options (m : Stochastic_model.t) ~count = function
  | Some f ->
      if Linalg.Sparse_cholesky.dim f <> m.n then
        invalid_arg "St_solver: mean factor does not match the grid dimension";
      Linalg.Precond.of_factor f
  | None ->
      let kind = Linalg.Precond.resolve options.precond ~n:m.n in
      if kind = Linalg.Precond.Cholesky then count ();
      Linalg.Precond.make ~ordering:options.ordering kind (mean_g m)

(* Per-chunk scratch of the point solves, allocated once per sweep.
   [resid] is the stationary residual and the fallback's
   triangular-solve workspace; [krylov] carries the CG workspace and the
   operator / preconditioner outputs, present exactly when the shared
   mean solver is approximate — the property that picks the route. *)
type scratch = {
  resid : Linalg.Vec.t;
  krylov : (Linalg.Cg.workspace * Linalg.Vec.t * Linalg.Vec.t) option;
}

let create_scratch ms n =
  {
    resid = Array.make n 0.0;
    krylov =
      (match Linalg.Precond.backend ms with
      | Linalg.Precond.Cholesky -> None
      | _ -> Some (Linalg.Cg.workspace_create n, Array.make n 0.0, Array.make n 0.0));
  }

(* Stationary refinement against the exact mean factor: start from
   [M^{-1} b] (or the caller's iterate when [warm]), then
   [x <- x + M^{-1} r] until the relative residual meets [tol].  The
   contraction rate is the spectral radius of [I - G(0)^{-1} G(xi)] ~
   O(sigma |xi|), so a handful of sweeps suffice. *)
let stationary_refine ~warm ~ms ~msws ~tol ~max_refine ~g ~b ~bnorm ~resid x =
  let n = Array.length b in
  if not warm then begin
    Array.blit b 0 x 0 n;
    Linalg.Precond.apply_in_place ms msws x
  end;
  let sweeps = ref 0 and rn = ref 0.0 and converged = ref (Util.Floats.is_zero bnorm) in
  let running = ref (not !converged) in
  while !running do
    Array.blit b 0 resid 0 n;
    Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) g x resid;
    rn := Linalg.Vec.norm2 resid;
    if !rn <= tol *. bnorm then begin
      converged := true;
      running := false
    end
    else if !sweeps >= max_refine then running := false
    else begin
      Linalg.Precond.apply_in_place ms msws resid;
      Linalg.Vec.axpy ~alpha:1.0 resid x;
      incr sweeps
    end
  done;
  (!sweeps, !rn, !converged)

(* PCG preconditioned by an approximate mean solver (AMG V-cycles,
   IC(0)): a stationary iteration would contract only as fast as the
   preconditioner alone, while CG converges on the preconditioned
   spectrum.  The point's current state is the warm start (zero when
   cold); [max_refine] caps the iterations. *)
let pcg_solve ~warm ~ms ~msws ~tol ~max_refine ~g ~b (cg, ap, z) x =
  let n = Array.length b in
  if not warm then Linalg.Vec.fill x 0.0;
  let matvec p =
    Linalg.Sparse.mul_vec_into g p ap;
    ap
  in
  let precond r =
    Array.blit r 0 z 0 n;
    Linalg.Precond.apply_in_place ms msws z;
    z
  in
  let report =
    Linalg.Cg.solve_report_in_place ~precond ~max_iter:max_refine ~tol ~ws:cg ~matvec ~b ~x ()
  in
  Linalg.Solve_report.(report.iterations, report.residual_norm, report.converged)

(* One point's solve against the shared mean solver: stationary
   refinement when it is the exact factor, PCG when it is approximate.
   Points that miss the tolerance within [max_refine] sweeps (or
   iterations) fall back to their own factorization (returned so the
   caller can count it — and reuse it).  Everything writes chunk-local
   or point-owned buffers only. *)
let refine_point ?(warm = false) ~ms ~msws ~ordering ~tol ~max_refine ~g ~b ~scratch x =
  let n = Array.length b in
  let t0 = Util.Timer.start () in
  let bnorm = Linalg.Vec.norm2 b in
  let solver, (iterations, rn, converged) =
    match scratch.krylov with
    | None ->
        ( "st-refine",
          stationary_refine ~warm ~ms ~msws ~tol ~max_refine ~g ~b ~bnorm ~resid:scratch.resid x
        )
    | Some k -> ("st-pcg", pcg_solve ~warm ~ms ~msws ~tol ~max_refine ~g ~b k x)
  in
  let fell_back =
    if converged then None
    else begin
      (* A tail point whose G(xi) drifted too far from the mean: factor it
         directly so the returned state always meets the tolerance. *)
      let fi = Linalg.Sparse_cholesky.factor ~ordering g in
      Array.blit b 0 x 0 n;
      Linalg.Sparse_cholesky.solve_in_place_ws fi ~work:scratch.resid x;
      Some fi
    end
  in
  let report =
    Linalg.Solve_report.make ~solver ~iterations ~residual_norm:rn ~rhs_norm:bnorm ~tol
      ~converged ~wall_seconds:(Util.Timer.elapsed_s t0) ()
  in
  (report, fell_back)

(* Coefficient recovery: block k of [coefs] is [sum_i inv(k,i) x_i],
   chunked over blocks with disjoint writes (i ascends in a fixed order,
   so the summation is bitwise stable). *)
let[@opera.hot] transform_into (p : points) ~n ~domains x_pts coefs =
  let size = Array.length p.pts in
  Util.Parallel.for_chunks ~domains size (fun ~chunk:_ ~lo ~hi ->
      for k = lo to hi - 1 do
        let base = k * n in
        Array.fill coefs base n 0.0;
        for i = 0 to size - 1 do
          let w = Linalg.Dense.get p.inv k i in
          if Util.Floats.nonzero w then begin
            let xi = x_pts.(i) in
            for j = 0 to n - 1 do
              coefs.(base + j) <- coefs.(base + j) +. (w *. xi.(j))
            done
          end
        done
      done)

(* Aggregate per-point solve reports into the health ledger and
   metrics — after the barrier, from the calling domain only. *)
let settle_reports ~metrics ~agg reports =
  let sweeps = ref 0 and fallbacks = ref 0 in
  Array.iter
    (fun entry ->
      match entry with
      | None -> ()
      | Some ((report : Linalg.Solve_report.t), fell_back) ->
          Linalg.Solve_report.agg_add agg report;
          sweeps := !sweeps + report.Linalg.Solve_report.iterations;
          if Option.is_some fell_back then begin
            Linalg.Solve_report.agg_count_fallback agg;
            incr fallbacks
          end)
    reports;
  Util.Metrics.incr ~by:!sweeps metrics "st.refine_sweeps";
  if !fallbacks > 0 then Util.Metrics.incr ~by:!fallbacks metrics "st.fallbacks";
  (!sweeps, !fallbacks)

(* Fan the N+1 points across domains.  [chunks > 1] forces the inner
   triangular sweeps sequential (each domain owns whole points); with a
   single chunk the spare domains level-schedule inside the solves —
   the same split as the mean-block preconditioner. *)
let point_dc_sweep ~options ~ms ~g_pts ~b_pts ~x_pts reports =
  let size = Array.length g_pts in
  let n = Array.length b_pts.(0) in
  let d = Util.Parallel.resolve options.domains in
  let chunks = Int.max 1 (Int.min d size) in
  let msws = Array.init chunks (fun _ -> Linalg.Precond.create_ws ms) in
  let scratch = Array.init chunks (fun _ -> create_scratch ms n) in
  let tol = options.refine_tol and max_refine = options.refine_max in
  let ordering = options.ordering in
  Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
      for i = lo to hi - 1 do
        let r =
          refine_point ~ms ~msws:msws.(chunk) ~ordering ~tol ~max_refine ~g:g_pts.(i)
            ~b:b_pts.(i) ~scratch:scratch.(chunk) x_pts.(i)
        in
        reports.(i) <- Some r
      done)

(* ---- DC ---------------------------------------------------------------- *)

let solve_dc ?(options = default_options) ?points ?f0 (m : Stochastic_model.t) =
  let metrics = options.metrics in
  let factorizations = ref 0 in
  let count () = incr factorizations in
  let t_sel = Util.Metrics.start_span () in
  let p = checked_points ~options m points in
  let select_seconds = Util.Metrics.stop_span metrics "st.select_s" t_sel in
  let size = Array.length p.pts in
  let n = m.n in
  Util.Metrics.incr ~by:size metrics "st.points";
  let t_f = Util.Metrics.start_span () in
  let ms = checked_ms ~options m ~count f0 in
  let factor_seconds = Util.Metrics.stop_span metrics "st.factor_s" t_f in
  let g_pts = Array.init size (fun i -> Stochastic_model.g_of_sample m p.pts.(i)) in
  let b_pts = Array.init size (fun i -> Stochastic_model.u_of_sample m p.pts.(i) 0.0) in
  let x_pts = Array.init size (fun _ -> Array.make n 0.0) in
  let reports = Array.make size None in
  let agg = Linalg.Solve_report.agg_create () in
  let t_steps = Util.Timer.start () in
  Util.Metrics.span metrics "st.step_s" (fun () ->
      point_dc_sweep ~options ~ms ~g_pts ~b_pts ~x_pts reports);
  let sweeps, fallbacks = settle_reports ~metrics ~agg reports in
  let coefs = Array.make (size * n) 0.0 in
  Util.Metrics.span metrics "st.transform_s" (fun () ->
      transform_into p ~n ~domains:options.domains x_pts coefs);
  let step_seconds = Util.Timer.elapsed_s t_steps in
  let nnz_point = Array.fold_left (fun acc g -> acc + Linalg.Sparse.nnz g) 0 g_pts in
  ( coefs,
    {
      points = size;
      factorizations = !factorizations + fallbacks;
      refine_sweeps = sweeps;
      nnz_point;
      nnz_factor = Linalg.Precond.stored_nnz ms;
      select_seconds;
      factor_seconds;
      step_seconds;
      health = agg;
    } )

(* ---- transient --------------------------------------------------------- *)

let solve_transient ?(options = default_options) ?points ?f0 ?fstep
    (m : Stochastic_model.t) ~h ~steps =
  if h <= 0.0 then invalid_arg "St_solver.solve_transient: step must be positive";
  let metrics = options.metrics in
  let factorizations = ref 0 in
  let count () = incr factorizations in
  let t_sel = Util.Metrics.start_span () in
  let p = checked_points ~options m points in
  let select_seconds = Util.Metrics.stop_span metrics "st.select_s" t_sel in
  let size = Array.length p.pts in
  let n = m.n in
  Util.Metrics.incr ~by:size metrics "st.points";
  let g_pts = Array.init size (fun i -> Stochastic_model.g_of_sample m p.pts.(i)) in
  let c_pts = Array.init size (fun i -> Stochastic_model.c_of_sample m p.pts.(i)) in
  let t_f = Util.Metrics.start_span () in
  let ms = checked_ms ~options m ~count f0 in
  (* Stepping backend: cached exact factors when supplied; otherwise the
     exact route builds the classic N+1 per-point factors, while the
     approximate backends (amg / ic0 / auto at large n) build ONE mean
     stepping-matrix solver [G(0) + C(0)/h] plus the per-point stepping
     matrices, and every step solves each point by CG preconditioned
     with the mean solver from its (structurally warm) previous state —
     no N+1 factors resident, which is what survives at 10^5+ nodes. *)
  let fstep, mstep, a_pts =
    match fstep with
    | Some fs ->
        if Array.length fs <> size then
          invalid_arg "St_solver.solve_transient: need one stepping factor per testing point";
        Array.iter
          (fun f ->
            if Linalg.Sparse_cholesky.dim f <> n then
              invalid_arg "St_solver.solve_transient: stepping factor dimension mismatch")
          fs;
        (Some fs, None, [||])
    | None -> (
        match Linalg.Precond.resolve options.precond ~n with
        | Linalg.Precond.Cholesky ->
            (* One symbolic ordering serves every point: all realizations
               share the node pattern, only the numeric values move. *)
            let perm =
              Linalg.Ordering.compute options.ordering (Stochastic_model.node_pattern m)
            in
            ( Some
                (Array.init size (fun i ->
                     count ();
                     Linalg.Sparse_cholesky.factor ~perm
                       (Linalg.Sparse.axpy ~alpha:(1.0 /. h) c_pts.(i) g_pts.(i)))),
              None,
              [||] )
        | kind ->
            let mean_step =
              Linalg.Sparse.axpy ~alpha:(1.0 /. h) (nominal m m.c_terms) (mean_g m)
            in
            ( None,
              Some (Linalg.Precond.make ~ordering:options.ordering kind mean_step),
              Array.init size (fun i ->
                  Linalg.Sparse.axpy ~alpha:(1.0 /. h) c_pts.(i) g_pts.(i)) ))
  in
  let factor_seconds = Util.Metrics.stop_span metrics "st.factor_s" t_f in
  let psi_pts = Array.map (Polychaos.Basis.eval_all m.basis) p.pts in
  let static_pts = Array.map (static_of_point m) psi_pts in
  let dcoef_pts = Array.map (drain_coef_of_point m) psi_pts in
  let response =
    Response.create ~basis:m.basis ~n ~steps ~h ~vdd:m.vdd ~probes:options.probes
  in
  let d = Util.Parallel.resolve options.domains in
  let chunks = Int.max 1 (Int.min d size) in
  let work =
    if Option.is_some fstep then Array.init chunks (fun _ -> Array.make n 0.0) else [||]
  in
  let ubuf = Array.init chunks (fun _ -> Array.make n 0.0) in
  let x_pts = Array.init size (fun _ -> Array.make n 0.0) in
  let coefs = Array.make (size * n) 0.0 in
  let drain_buf = Array.make n 0.0 in
  let reports = Array.make size None in
  let agg = Linalg.Solve_report.agg_create () in
  let t_steps = Util.Timer.start () in
  (* Stochastic DC initial state: solve every point against the shared
     mean solver, exactly as solve_dc does. *)
  let b_pts = Array.init size (fun i -> Stochastic_model.u_of_sample m p.pts.(i) 0.0) in
  point_dc_sweep ~options ~ms ~g_pts ~b_pts ~x_pts reports;
  let dc_sweeps, dc_fallbacks = settle_reports ~metrics ~agg reports in
  let sweeps = ref dc_sweeps and fallbacks = ref dc_fallbacks in
  transform_into p ~n ~domains:options.domains x_pts coefs;
  Response.record_step response ~step:0 ~coefs;
  (* Backward Euler per point: rhs_i = u_i(t) + C_i x_i / h, then either
     one triangular solve with the point's cached factor or a warm
     preconditioned CG solve against the mean stepping solver.  The
     state x_i carries across steps — the warm start is structural.  The
     drain profile is shared read-only; every write inside the fan-out
     lands in point-owned or chunk-owned buffers / slots. *)
  let msws_step, scratch_step =
    match mstep with
    | Some msp ->
        ( Array.init chunks (fun _ -> Linalg.Precond.create_ws msp),
          Array.init chunks (fun _ -> create_scratch msp n) )
    | None -> ([||], [||])
  in
  (* A point whose iterative solve broke down keeps its direct factor
     for the remaining steps instead of re-failing every step. *)
  let fallback_f = Array.make size None in
  let step_reports = Array.make size None in
  let tol = options.refine_tol and max_refine = options.refine_max in
  let ordering = options.ordering in
  for k = 1 to steps do
    let t = float_of_int k *. h in
    Stochastic_model.drain_profile_into m t drain_buf;
    (match fstep with
    | Some fstep ->
        (* opera-lint: race — drain_buf is read-only inside (axpy source) *)
        Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
            let u = ubuf.(chunk) and wk = work.(chunk) in
            for i = lo to hi - 1 do
              Array.blit static_pts.(i) 0 u 0 n;
              Linalg.Vec.axpy ~alpha:dcoef_pts.(i) drain_buf u;
              Linalg.Sparse.mul_vec_acc ~alpha:(1.0 /. h) c_pts.(i) x_pts.(i) u;
              Array.blit u 0 x_pts.(i) 0 n;
              Linalg.Sparse_cholesky.solve_in_place_ws fstep.(i) ~work:wk x_pts.(i)
            done)
    | None ->
        let msp = Option.get mstep in
        (* opera-lint: race — drain_buf is read-only inside (axpy source); x_pts / step_reports / fallback_f writes land in per-point slots disjoint across chunks *)
        Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
            let u = ubuf.(chunk) and scratch = scratch_step.(chunk) in
            for i = lo to hi - 1 do
              Array.blit static_pts.(i) 0 u 0 n;
              Linalg.Vec.axpy ~alpha:dcoef_pts.(i) drain_buf u;
              Linalg.Sparse.mul_vec_acc ~alpha:(1.0 /. h) c_pts.(i) x_pts.(i) u;
              match fallback_f.(i) with
              | Some fi ->
                  Array.blit u 0 x_pts.(i) 0 n;
                  Linalg.Sparse_cholesky.solve_in_place_ws fi ~work:scratch.resid x_pts.(i)
              | None ->
                  let r =
                    refine_point ~warm:true ~ms:msp ~msws:msws_step.(chunk) ~ordering ~tol
                      ~max_refine ~g:a_pts.(i) ~b:u ~scratch x_pts.(i)
                  in
                  step_reports.(i) <- Some r;
                  let _, fb = r in
                  if Option.is_some fb then fallback_f.(i) <- fb
            done);
        let s, f = settle_reports ~metrics ~agg step_reports in
        sweeps := !sweeps + s;
        fallbacks := !fallbacks + f;
        Array.fill step_reports 0 size None);
    Util.Metrics.span metrics "st.transform_s" (fun () ->
        transform_into p ~n ~domains:options.domains x_pts coefs);
    Response.record_step response ~step:k ~coefs
  done;
  let step_seconds = Util.Timer.elapsed_s t_steps in
  Util.Metrics.observe metrics "st.step_s" step_seconds;
  if not (Linalg.Solve_report.agg_healthy agg) then
    Util.Log.warnf "st transient finished UNHEALTHY: %s" (Linalg.Solve_report.agg_summary agg);
  let nnz_point =
    Array.fold_left (fun acc g -> acc + Linalg.Sparse.nnz g) 0 g_pts
    + Array.fold_left (fun acc c -> acc + Linalg.Sparse.nnz c) 0 c_pts
    + Array.fold_left (fun acc a -> acc + Linalg.Sparse.nnz a) 0 a_pts
  in
  let nnz_factor =
    match fstep with
    | Some fs -> Array.fold_left (fun acc f -> acc + Linalg.Sparse_cholesky.nnz_l f) 0 fs
    | None ->
        Array.fold_left
          (fun acc -> function
            | Some f -> acc + Linalg.Sparse_cholesky.nnz_l f
            | None -> acc)
          (Linalg.Precond.stored_nnz (Option.get mstep))
          fallback_f
  in
  ( response,
    {
      points = size;
      factorizations = !factorizations + !fallbacks;
      refine_sweeps = !sweeps;
      nnz_point;
      nnz_factor;
      select_seconds;
      factor_seconds;
      step_seconds;
      health = agg;
    } )
