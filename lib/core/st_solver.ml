(* Stochastic-testing collocation: pin the gPC solution down at N+1
   well-chosen testing points, solve each point as an ordinary
   deterministic system, and recover the Galerkin-layout coefficients
   through the dense inverse-Vandermonde transform.  The point solves
   share their factors or mean solver read-only — the points iterating
   against the mean solver run in lockstep, one block apply per round,
   and a cohort of excitation corners shares each point's factor, one
   block solve per step for all of them — so the whole backend rides
   the transient hot path's kernel discipline: per-chunk workspaces,
   disjoint output slices, bitwise-identical results at any domain
   count. *)

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

let spans ?(seed = default_seed) basis candidates =
  match select_points ~candidates ~seed basis with
  | _ -> true
  | exception Invalid_argument _ -> false

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

(* ---- lockstep point solves ---------------------------------------------

   Every testing point iterates against the same mean solver, so the
   points of a chunk run in lockstep: each round, every point still
   running takes its own step up to the point where it needs
   [M^-1 r], stages [r] as its column of [stage], and one block apply
   of the mean solver serves them all.  A point keeps its own vectors,
   scalars, iteration count and stopping test; its arithmetic is
   operation for operation the single-point iteration's, and each
   column of the block apply is bitwise its one-column apply, so a
   point's result does not depend on which points ran beside it or on
   the domain count.
   Against the exact factor the iteration is stationary refinement
   [x <- x + M^-1 (b - G(xi) x)], whose contraction rate is the
   spectral radius of [I - G(0)^-1 G(xi)] ~ O(sigma |xi|); against an
   approximate mean solver (AMG V-cycles, IC(0)) it is PCG, which
   converges on the preconditioned spectrum where a stationary
   iteration would contract only as fast as the preconditioner
   alone.  A point here is one column: a testing point of one member of
   a cohort (see the cohort section below), so everything is indexed by
   column. *)

type lockstep = {
  ln : int;
  krylov : bool;  (* approximate mean solver: PCG; exact: refinement *)
  stage : Linalg.Vec.t;  (* ncols * n: column i's slot for the shared apply *)
  resid : Linalg.Vec.t array;  (* per column: residual r *)
  dir : Linalg.Vec.t array;  (* per column: CG direction p (PCG only) *)
  prod : Linalg.Vec.t array;  (* per column: A p (PCG only) *)
  bnorm : float array;
  rz : float array;
  rnorm : float array;
  iters : int array;
  active : int array array;  (* per chunk: columns in the next shared apply *)
  bws : Linalg.Precond.block_ws array;  (* per chunk *)
}

let create_lockstep ms ~ncols ~n ~chunks =
  let krylov = Linalg.Precond.backend ms <> Linalg.Precond.Cholesky in
  let per_column () = Array.init ncols (fun _ -> Array.make n 0.0) in
  let width = (ncols + chunks - 1) / chunks in
  {
    ln = n;
    krylov;
    stage = Array.make (ncols * n) 0.0;
    resid = per_column ();
    dir = (if krylov then per_column () else [||]);
    prod = (if krylov then per_column () else [||]);
    bnorm = Array.make ncols 0.0;
    rz = Array.make ncols 0.0;
    rnorm = Array.make ncols 0.0;
    iters = Array.make ncols 0;
    active = Array.init chunks (fun _ -> Array.make width 0);
    bws = Array.init chunks (fun _ -> Linalg.Precond.create_block_ws ms ~k:width);
  }

let stage_in ls i v = Array.blit v 0 ls.stage (i * ls.ln) ls.ln

(* Stationary refinement of the [m] points listed in [act]: start from
   [M^-1 b] (or the point's iterate when [warm]), then
   [x <- x + M^-1 r] until the relative residual meets [tol] or
   [max_refine] sweeps are spent. *)
let refine_lockstep ls ~ms ~bws ~act ~m ~warm ~tol ~max_refine ~g ~b ~x =
  let n = ls.ln and stage = ls.stage in
  let apply k = Linalg.Precond.apply_block ms bws ~src:stage ~dst:stage ~cols:act ~lo:0 ~hi:k in
  if not warm then begin
    for a = 0 to m - 1 do
      stage_in ls act.(a) b.(act.(a))
    done;
    apply m;
    for a = 0 to m - 1 do
      let i = act.(a) in
      Array.blit stage (i * n) x.(i) 0 n
    done
  end;
  let running = ref 0 in
  for a = 0 to m - 1 do
    let i = act.(a) in
    ls.bnorm.(i) <- Linalg.Vec.norm2 b.(i);
    ls.iters.(i) <- 0;
    ls.rnorm.(i) <- 0.0;
    if not (Util.Floats.equal_exact ls.bnorm.(i) 0.0) then begin
      act.(!running) <- i;
      incr running
    end
  done;
  while !running > 0 do
    let next = ref 0 in
    for a = 0 to !running - 1 do
      let i = act.(a) in
      let r = ls.resid.(i) in
      Array.blit b.(i) 0 r 0 n;
      Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) g.(i) x.(i) r;
      let rn = Linalg.Vec.norm2 r in
      ls.rnorm.(i) <- rn;
      if rn > tol *. ls.bnorm.(i) && ls.iters.(i) < max_refine then begin
        stage_in ls i r;
        act.(!next) <- i;
        incr next
      end
    done;
    apply !next;
    for a = 0 to !next - 1 do
      let i = act.(a) in
      let xi = x.(i) and off = i * n in
      for j = 0 to n - 1 do
        xi.(j) <- xi.(j) +. stage.(off + j)
      done;
      ls.iters.(i) <- ls.iters.(i) + 1
    done;
    running := !next
  done

(* PCG of the [m] points listed in [act], each from its current state
   (zero when not [warm]) with [max_refine] iterations at most: the
   iteration of {!Linalg.Cg.solve_report_in_place} with its
   preconditioner applies gathered into block applies.  [M^-1 r] comes
   back in the point's column of [stage]. *)
let pcg_lockstep ls ~ms ~bws ~act ~m ~warm ~tol ~max_refine ~g ~b ~x =
  let n = ls.ln and stage = ls.stage in
  let running = ref 0 in
  for a = 0 to m - 1 do
    let i = act.(a) in
    let xi = x.(i) and r = ls.resid.(i) and ap = ls.prod.(i) in
    if not warm then Linalg.Vec.fill xi 0.0;
    let bnorm = Linalg.Vec.norm2 b.(i) in
    ls.bnorm.(i) <- bnorm;
    ls.iters.(i) <- 0;
    if Util.Floats.equal_exact bnorm 0.0 then begin
      (* the exact solution of a zero right-hand side *)
      Linalg.Vec.fill xi 0.0;
      ls.rnorm.(i) <- 0.0
    end
    else begin
      Linalg.Sparse.mul_vec_into g.(i) xi ap;
      let bi = b.(i) in
      for j = 0 to n - 1 do
        r.(j) <- bi.(j) -. ap.(j)
      done;
      stage_in ls i r;
      act.(!running) <- i;
      incr running
    end
  done;
  while !running > 0 do
    Linalg.Precond.apply_block ms bws ~src:stage ~dst:stage ~cols:act ~lo:0 ~hi:!running;
    let next = ref 0 in
    for a = 0 to !running - 1 do
      let i = act.(a) in
      let r = ls.resid.(i) and p = ls.dir.(i) and off = i * n in
      let rz' = ref 0.0 in
      for j = 0 to n - 1 do
        rz' := !rz' +. (r.(j) *. stage.(off + j))
      done;
      if ls.iters.(i) = 0 then begin
        Array.blit stage off p 0 n;
        ls.rz.(i) <- !rz';
        ls.rnorm.(i) <- Linalg.Vec.norm2 r
      end
      else begin
        let beta = !rz' /. ls.rz.(i) in
        ls.rz.(i) <- !rz';
        for j = 0 to n - 1 do
          p.(j) <- stage.(off + j) +. (beta *. p.(j))
        done
      end;
      let target = tol *. ls.bnorm.(i) in
      if ls.rnorm.(i) > target && ls.iters.(i) < max_refine then begin
        ls.iters.(i) <- ls.iters.(i) + 1;
        let ap = ls.prod.(i) in
        Linalg.Sparse.mul_vec_into g.(i) p ap;
        let alpha = ls.rz.(i) /. Linalg.Vec.dot p ap in
        Linalg.Vec.axpy ~alpha p x.(i);
        Linalg.Vec.axpy ~alpha:(-.alpha) ap r;
        let rn = Linalg.Vec.norm2 r in
        ls.rnorm.(i) <- rn;
        if rn > target then begin
          stage_in ls i r;
          act.(!next) <- i;
          incr next
        end
      end
    done;
    running := !next
  done

(* Solve the points [lo, hi) of one chunk in lockstep, then settle each:
   a point that missed the tolerance within [max_refine] sweeps (or
   iterations) falls back to its own factorization (kept in
   [fallback.(i)] so the caller can count it — and reuse it), and gets
   its report in [reports.(i)].  [skip i] excludes points the caller
   solves otherwise.  Everything writes point-owned slots or the
   chunk's own workspace only. *)
let solve_points ls ~ms ~chunk ~lo ~hi ~skip ~warm ~ordering ~tol ~max_refine ~g ~b ~x ~reports
    ~fallback =
  let t0 = Util.Timer.start () in
  let act = ls.active.(chunk) and bws = ls.bws.(chunk) in
  let m = ref 0 in
  for i = lo to hi - 1 do
    if not (skip i) then begin
      act.(!m) <- i;
      incr m
    end
  done;
  let m = !m in
  if ls.krylov then pcg_lockstep ls ~ms ~bws ~act ~m ~warm ~tol ~max_refine ~g ~b ~x
  else refine_lockstep ls ~ms ~bws ~act ~m ~warm ~tol ~max_refine ~g ~b ~x;
  (* The chunk's wall time, shared out evenly over its points. *)
  let wall = Util.Timer.elapsed_s t0 /. float_of_int (Int.max m 1) in
  for i = lo to hi - 1 do
    if not (skip i) then begin
      (* [rnorm] is 0 for a zero right-hand side, so this is each
         route's own stopping test. *)
      let converged = ls.rnorm.(i) <= tol *. ls.bnorm.(i) in
      let fell_back =
        if converged then None
        else begin
          (* A tail point whose G(xi) drifted too far from the mean: factor
             it directly so the returned state always meets the tolerance. *)
          let fi = Linalg.Sparse_cholesky.factor ~ordering g.(i) in
          Array.blit b.(i) 0 x.(i) 0 ls.ln;
          Linalg.Sparse_cholesky.solve_in_place_ws fi ~work:ls.resid.(i) x.(i);
          Some fi
        end
      in
      if Option.is_some fell_back then fallback.(i) <- fell_back;
      reports.(i) <-
        Some
          ( Linalg.Solve_report.make
              ~solver:(if ls.krylov then "st-pcg" else "st-refine")
              ~iterations:ls.iters.(i) ~residual_norm:ls.rnorm.(i) ~rhs_norm:ls.bnorm.(i) ~tol
              ~converged ~wall_seconds:wall (),
            fell_back )
    end
  done

(* Coefficient recovery: block k of [coefs] is [sum_i inv(k,i) x_i],
   with [x_i] the column [first + i] of [x_cols], chunked over blocks
   with disjoint writes (i ascends in a fixed order, so the summation is
   bitwise stable). *)
let[@opera.hot] transform_into (p : points) ~n ~domains ~first x_cols coefs =
  let size = Array.length p.pts in
  Util.Parallel.for_chunks ~domains size (fun ~chunk:_ ~lo ~hi ->
      for k = lo to hi - 1 do
        let base = k * n in
        Array.fill coefs base n 0.0;
        for i = 0 to size - 1 do
          let w = Linalg.Dense.get p.inv k i in
          if not (Util.Floats.equal_exact w 0.0) then begin
            let xi = x_cols.(first + i) in
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

(* Fan the columns across domains: each chunk runs its columns in
   lockstep against the shared mean solver with its own block
   workspace (the same split as the mean-block preconditioner). *)
let point_dc_sweep ~options ~ms ~g_cols ~b_cols ~x_cols reports =
  let ncols = Array.length g_cols in
  let n = Array.length b_cols.(0) in
  let d = Util.Parallel.resolve options.domains in
  let chunks = Int.max 1 (Int.min d ncols) in
  let ls = create_lockstep ms ~ncols ~n ~chunks in
  let fallback = Array.make ncols None in
  let tol = options.refine_tol and max_refine = options.refine_max in
  let ordering = options.ordering in
  (* opera-lint: race — a chunk writes only the slots of its own columns and its own workspace *)
  Util.Parallel.for_chunks ~domains:d ncols (fun ~chunk ~lo ~hi ->
      solve_points ls ~ms ~chunk ~lo ~hi ~skip:(fun _ -> false) ~warm:false ~ordering ~tol
        ~max_refine ~g:g_cols ~b:b_cols ~x:x_cols ~reports ~fallback)

(* ---- cohorts ----------------------------------------------------------

   A cohort is k models sharing one operator — the engine's corners of
   one operator group, which differ only in their excitation.  Member
   [j] at testing point [i] is column [c = j * size + i]: the columns
   of every member refine against G(0) in one lockstep, and each step
   solves point [i]'s stepping factor once for the k columns that share
   it.  A column's arithmetic is a lone point's, operation for
   operation, and the block solves and applies are bitwise their single
   forms, so every member's result is bitwise its own k = 1 solve —
   which is what {!solve_dc} and {!solve_transient} are. *)

let cohort_operator name (ms : Stochastic_model.t array) =
  if Array.length ms = 0 then invalid_arg (name ^ ": empty cohort");
  let m = ms.(0) in
  Array.iter
    (fun (mj : Stochastic_model.t) ->
      if mj.g_terms != m.g_terms || mj.c_terms != m.c_terms || mj.basis != m.basis then
        invalid_arg (name ^ ": cohort members must share one operator"))
    ms;
  m

(* Per-column excitations at t = 0, and the coefficient vector of each
   member recovered from its columns. *)
let dc_rhs_cols (ms : Stochastic_model.t array) (p : points) =
  let size = Array.length p.pts in
  Array.init
    (Array.length ms * size)
    (fun c -> Stochastic_model.u_of_sample ms.(c / size) p.pts.(c mod size) 0.0)

let transform_members p ~n ~domains x_cols coefs =
  let size = Array.length p.pts in
  Array.iteri (fun j cj -> transform_into p ~n ~domains ~first:(j * size) x_cols cj) coefs

(* ---- DC ---------------------------------------------------------------- *)

let solve_dc_cohort ?(options = default_options) ?points ?f0 ms =
  let m = cohort_operator "St_solver.solve_dc_cohort" ms in
  let k = Array.length ms in
  let metrics = options.metrics in
  let factorizations = ref 0 in
  let count () = incr factorizations in
  let t_sel = Util.Metrics.start_span () in
  let p = checked_points ~options m points in
  let select_seconds = Util.Metrics.stop_span metrics "st.select_s" t_sel in
  let size = Array.length p.pts in
  let n = m.n in
  let ncols = k * size in
  Util.Metrics.incr ~by:ncols metrics "st.points";
  let t_f = Util.Metrics.start_span () in
  let msolver = checked_ms ~options m ~count f0 in
  let factor_seconds = Util.Metrics.stop_span metrics "st.factor_s" t_f in
  let g_pts = Array.init size (fun i -> Stochastic_model.g_of_sample m p.pts.(i)) in
  let g_cols = Array.init ncols (fun c -> g_pts.(c mod size)) in
  let b_cols = dc_rhs_cols ms p in
  let x_cols = Array.init ncols (fun _ -> Array.make n 0.0) in
  let reports = Array.make ncols None in
  let agg = Linalg.Solve_report.agg_create () in
  let t_steps = Util.Timer.start () in
  Util.Metrics.span metrics "st.step_s" (fun () ->
      point_dc_sweep ~options ~ms:msolver ~g_cols ~b_cols ~x_cols reports);
  let sweeps, fallbacks = settle_reports ~metrics ~agg reports in
  let coefs = Array.init k (fun _ -> Array.make (size * n) 0.0) in
  Util.Metrics.span metrics "st.transform_s" (fun () ->
      transform_members p ~n ~domains:options.domains x_cols coefs);
  let step_seconds = Util.Timer.elapsed_s t_steps in
  let nnz_point = Array.fold_left (fun acc g -> acc + Linalg.Sparse.nnz g) 0 g_pts in
  ( coefs,
    {
      points = size;
      factorizations = !factorizations + fallbacks;
      refine_sweeps = sweeps;
      nnz_point;
      nnz_factor = Linalg.Precond.stored_nnz msolver;
      select_seconds;
      factor_seconds;
      step_seconds;
      health = agg;
    } )

let solve_dc ?options ?points ?f0 m =
  let coefs, stats = solve_dc_cohort ?options ?points ?f0 [| m |] in
  (coefs.(0), stats)

(* ---- transient --------------------------------------------------------- *)

let solve_transient_cohort ?(options = default_options) ?points ?f0 ?fstep ms ~probes ~h ~steps =
  if h <= 0.0 then invalid_arg "St_solver.solve_transient: step must be positive";
  let m = cohort_operator "St_solver.solve_transient_cohort" ms in
  let k = Array.length ms in
  if Array.length probes <> k then
    invalid_arg "St_solver.solve_transient_cohort: need one probe set per member";
  let metrics = options.metrics in
  let factorizations = ref 0 in
  let count () = incr factorizations in
  let t_sel = Util.Metrics.start_span () in
  let p = checked_points ~options m points in
  let select_seconds = Util.Metrics.stop_span metrics "st.select_s" t_sel in
  let size = Array.length p.pts in
  let n = m.n in
  let ncols = k * size in
  Util.Metrics.incr ~by:ncols metrics "st.points";
  let g_pts = Array.init size (fun i -> Stochastic_model.g_of_sample m p.pts.(i)) in
  let c_pts = Array.init size (fun i -> Stochastic_model.c_of_sample m p.pts.(i)) in
  let t_f = Util.Metrics.start_span () in
  let msolver = checked_ms ~options m ~count f0 in
  (* Stepping backend: cached exact factors when supplied; otherwise the
     exact route builds the classic N+1 per-point factors, while the
     approximate backends (amg / ic0 / auto at large n) build ONE mean
     stepping-matrix solver [G(0) + C(0)/h] plus the per-point stepping
     matrices, and every step solves each column by CG preconditioned
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
  let static_cols =
    Array.init ncols (fun c -> static_of_point ms.(c / size) psi_pts.(c mod size))
  in
  let dcoef_cols =
    Array.init ncols (fun c -> drain_coef_of_point ms.(c / size) psi_pts.(c mod size))
  in
  let responses =
    Array.init k (fun j ->
        Response.create ~basis:m.basis ~n ~steps ~h ~vdd:ms.(j).vdd ~probes:probes.(j))
  in
  let d = Util.Parallel.resolve options.domains in
  (* The exact route splits points over domains (a point's k columns
     share its factor); the approximate route splits columns. *)
  let chunks = Int.max 1 (Int.min d (if Option.is_some fstep then size else ncols)) in
  let x_cols = Array.init ncols (fun _ -> Array.make n 0.0) in
  let coefs = Array.init k (fun _ -> Array.make (size * n) 0.0) in
  let drain_buf = Array.make n 0.0 in
  let reports = Array.make ncols None in
  let agg = Linalg.Solve_report.agg_create () in
  let t_steps = Util.Timer.start () in
  let record_members step =
    Array.iteri (fun j r -> Response.record_step r ~step ~coefs:coefs.(j)) responses
  in
  (* Stochastic DC initial state: solve every column against the shared
     mean solver, exactly as solve_dc_cohort does. *)
  let g_cols = Array.init ncols (fun c -> g_pts.(c mod size)) in
  point_dc_sweep ~options ~ms:msolver ~g_cols ~b_cols:(dc_rhs_cols ms p) ~x_cols reports;
  let dc_sweeps, dc_fallbacks = settle_reports ~metrics ~agg reports in
  let sweeps = ref dc_sweeps and fallbacks = ref dc_fallbacks in
  transform_members p ~n ~domains:options.domains x_cols coefs;
  record_members 0;
  (* Backward Euler per column: rhs = u(t) + C_i x / h, then either one
     solve with the point's cached factor — a block solve over the k
     columns of that point — or a warm preconditioned CG solve against
     the mean stepping solver.  The state x carries across steps — the
     warm start is structural.  The drain profile is shared read-only;
     every write inside the fan-out lands in column-owned or
     chunk-owned buffers / slots. *)
  let step_ls = Option.map (fun msp -> create_lockstep msp ~ncols ~n ~chunks) mstep in
  (* Right-hand-side buffers: on the exact route one per chunk, with a
     k-column stage and block workspace; on the approximate route one
     per column (each column's CG keeps its own rhs through the
     lockstep). *)
  let ubuf =
    Array.init (if Option.is_some fstep then chunks else ncols) (fun _ -> Array.make n 0.0)
  in
  let stage, bwork =
    match fstep with
    | Some fs ->
        ( Array.init chunks (fun _ -> Array.make (k * n) 0.0),
          Array.init chunks (fun _ ->
              Array.make (Linalg.Sparse_cholesky.block_work_dim fs.(0) ~k) 0.0) )
    | None -> ([||], [||])
  in
  let members = Array.init k Fun.id in
  let a_cols = Array.init (Array.length a_pts * k) (fun c -> a_pts.(c mod size)) in
  (* A column whose iterative solve broke down keeps its direct factor
     for the remaining steps instead of re-failing every step. *)
  let fallback_f = Array.make ncols None in
  let step_reports = Array.make ncols None in
  let tol = options.refine_tol and max_refine = options.refine_max in
  let ordering = options.ordering in
  let load_rhs u c =
    let i = c mod size in
    Array.blit static_cols.(c) 0 u 0 n;
    Linalg.Vec.axpy ~alpha:dcoef_cols.(c) drain_buf u;
    Linalg.Sparse.mul_vec_acc ~alpha:(1.0 /. h) c_pts.(i) x_cols.(c) u
  in
  for step = 1 to steps do
    let t = float_of_int step *. h in
    Stochastic_model.drain_profile_into m t drain_buf;
    (match fstep with
    | Some fstep ->
        (* opera-lint: race — load_rhs writes only the chunk's u and reads drain_buf and x_cols; stage and bwork are the chunk's own; x_cols writes land in the columns of the chunk's own points *)
        Util.Parallel.for_chunks ~domains:d size (fun ~chunk ~lo ~hi ->
            let u = ubuf.(chunk) and st = stage.(chunk) in
            for i = lo to hi - 1 do
              for j = 0 to k - 1 do
                load_rhs u ((j * size) + i);
                Array.blit u 0 st (j * n) n
              done;
              Linalg.Sparse_cholesky.solve_block_ws fstep.(i) ~work:bwork.(chunk) ~cols:members
                ~lo:0 ~hi:k ~src:st ~dst:st;
              for j = 0 to k - 1 do
                Array.blit st (j * n) x_cols.((j * size) + i) 0 n
              done
            done)
    | None ->
        let msp = Option.get mstep and ls = Option.get step_ls in
        let has_factor c = Option.is_some fallback_f.(c) in
        (* opera-lint: race — load_rhs writes only ubuf.(c) of the chunk's columns and reads drain_buf and x_cols; ubuf / x_cols / step_reports / fallback_f writes land in per-column slots disjoint across chunks *)
        Util.Parallel.for_chunks ~domains:d ncols (fun ~chunk ~lo ~hi ->
            for c = lo to hi - 1 do
              let u = ubuf.(c) in
              load_rhs u c;
              match fallback_f.(c) with
              | Some fc ->
                  Array.blit u 0 x_cols.(c) 0 n;
                  Linalg.Sparse_cholesky.solve_in_place_ws fc ~work:ls.resid.(c) x_cols.(c)
              | None -> ()
            done;
            solve_points ls ~ms:msp ~chunk ~lo ~hi ~skip:has_factor ~warm:true ~ordering ~tol
              ~max_refine ~g:a_cols ~b:ubuf ~x:x_cols ~reports:step_reports ~fallback:fallback_f);
        let s, f = settle_reports ~metrics ~agg step_reports in
        sweeps := !sweeps + s;
        fallbacks := !fallbacks + f;
        Array.fill step_reports 0 ncols None);
    Util.Metrics.span metrics "st.transform_s" (fun () ->
        transform_members p ~n ~domains:options.domains x_cols coefs);
    record_members step
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
  ( responses,
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

let solve_transient ?(options = default_options) ?points ?f0 ?fstep m ~h ~steps =
  let responses, stats =
    solve_transient_cohort ~options ?points ?f0 ?fstep [| m |] ~probes:[| options.probes |] ~h
      ~steps
  in
  (responses.(0), stats)
