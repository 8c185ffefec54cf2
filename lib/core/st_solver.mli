(** Stochastic-testing (ST) collocation backend — decoupled gPC solves on
    one factorization (Zhang et al., the intrusive collocation view of
    the Galerkin system).

    Instead of solving the coupled [(N+1) n] augmented system, the gPC
    solution is pinned down at [N+1] {e testing points}: at each selected
    point [xi_i] the original deterministic system
    [(G(xi_i) + s C(xi_i)) x = U(xi_i, t)] is solved on its own, and the
    Galerkin-style coefficients are recovered through the dense
    [(N+1) x (N+1)] Vandermonde transform [a = V^{-1} x].  The points are
    chosen from a tensor-grid (plus optional random top-up) candidate set
    by a greedy maximum-volume rule, which keeps [V] well conditioned and
    the recovery stable.

    Per point the work is purely deterministic sparse linear algebra:

    - DC: one solver for the {e mean} matrix [G(0)], shared read-only by
      every point.  Against the exact Cholesky factor each point
      converges by iterative refinement
      [x <- x + G(0)^{-1} (b - G(xi_i) x)]; against an approximate mean
      solver (AMG, IC(0)) each point is solved by CG preconditioned with
      it.  The points iterate in lockstep: each keeps its own vectors,
      scalars, iteration count and stopping test, and one block apply
      of the mean solver ({!Linalg.Precond.apply_block}) serves every
      point still running, so each point's result is bitwise its
      single-point iteration's.  A point that misses the tolerance
      within [refine_max] sweeps or iterations falls back to its own
      factorization (counted in [stats.health]).
    - Transient: on the exact route, one factorization of
      [G(xi_i) + C(xi_i)/h] {e per point}, reused across every
      backward-Euler step; each step is one triangular solve per
      point, warm-started trivially because the point states
      carry across steps.  On an approximate route, one mean
      stepping-matrix solver preconditions a warm-started CG solve per
      point per step, the points again in lockstep.

    Cohorts: {!solve_dc_cohort} and {!solve_transient_cohort} solve k
    models that share one operator and differ only in their excitation
    (the batch engine's corners of one operator group) in one pass.
    Member [j] at point [i] is column [j * (N+1) + i]: every column
    refines against the mean solver in one lockstep, and each step
    solves point [i]'s stepping factor once, as one block solve
    ({!Linalg.Sparse_cholesky.solve_block_ws}), for the k columns that
    share it.  Each member's result is bitwise its own k = 1 solve;
    {!solve_dc} and {!solve_transient} are exactly that call.

    Columns fan out across {!Util.Parallel.for_chunks} in chunks, each
    chunk running its columns in lockstep with its own block workspace
    (the exact transient steps split points, each point's k columns
    riding one block solve); results are bitwise identical for any
    domain count.  All moments, yield bounds and {!Response} plumbing
    downstream are backend-agnostic — the recovered coefficients use the
    same block layout as {!Galerkin}. *)

type points = {
  basis : Polychaos.Basis.t;
  pts : float array array;  (** [size] testing points, each of length [dim] *)
  vand : Linalg.Dense.t;  (** [V.(i).(k) = psi_k(pts.(i))] *)
  inv : Linalg.Dense.t;  (** [V^{-1}] — point values to coefficients *)
}

val select_points : ?candidates:int -> ?seed:int64 -> Polychaos.Basis.t -> points
(** Greedy maximum-volume selection of [Basis.size] testing points.

    The candidate pool is the tensor grid of [(order+1)]-point Gaussian
    quadrature nodes per dimension, ranked by quadrature weight
    (heaviest first).  [candidates] bounds the pool: [0] (the default)
    keeps the whole tensor grid; a smaller value keeps only the
    heaviest candidates (never fewer than [Basis.size]); a larger value
    tops the pool up with random draws from the orthogonality measure
    seeded by [seed] — everything is deterministic given
    [(candidates, seed)].  Selection is modified Gram–Schmidt with
    exact ties broken toward the lower candidate index.  Raises
    [Invalid_argument] if the pool cannot span the basis. *)

val spans : ?seed:int64 -> Polychaos.Basis.t -> int -> bool
(** [spans basis candidates] holds when {!select_points} with that
    candidate bound (and [seed]) finds [Basis.size] points — the check
    behind the usage error for a too-small [st_candidates]. *)

val mean_g : Stochastic_model.t -> Linalg.Sparse.t
(** The nominal (rank-0) conductance matrix [G(0)] — what {!solve_dc}
    factorizes once.  Exposed so the batch engine can build and cache
    the factor itself. *)

val step_matrix : Stochastic_model.t -> points -> int -> h:float -> Linalg.Sparse.t
(** [step_matrix m p i ~h] is the point-[i] backward-Euler stepping
    matrix [G(xi_i) + C(xi_i)/h] — the engine's hook for caching the
    per-point factors. *)

type options = {
  candidates : int;  (** candidate-pool bound for {!select_points} *)
  seed : int64;  (** point-selection seed (random top-up only) *)
  refine_tol : float;  (** relative residual target of the point solves *)
  refine_max : int;
      (** refinement sweeps (exact route) or CG iterations (approximate
          route) before the per-point fallback *)
  ordering : Linalg.Ordering.kind;
  precond : Linalg.Precond.kind;
      (** mean-solver backend for the point solves: exact Cholesky
          (default — historical behavior bitwise, stationary
          refinement), [Ic0] or [Amg] (preconditioned CG), or [Auto]
          (resolves on [n]).  A non-exact backend also replaces the
          transient's N+1 per-point stepping factors with one mean
          stepping-matrix solver preconditioning warm per-step CG
          solves — bounded memory at 10^5+ nodes.  A caller-supplied
          [f0] / [fstep] cache always takes the exact path. *)
  probes : int array;
  domains : int;
      (** {!Util.Parallel.resolve} convention; points fan out across
          domains, results bitwise identical for any count *)
  metrics : Util.Metrics.t;
      (** receives [st.points] (N+1 per member), [st.refine_sweeps],
          [st.fallbacks] and the [st.select_s] / [st.factor_s] /
          [st.step_s] / [st.transform_s] spans (calling domain only; one
          observation per call or per step, whatever the cohort's
          width) *)
}

val default_options : options
(** Tensor-grid candidates, seed 1, refinement to 1e-10 within 100
    sweeps, nested dissection, no probes, domains from the environment,
    global metrics. *)

type stats = {
  points : int;  (** N+1, the number of decoupled systems *)
  factorizations : int;  (** numeric factorizations performed here *)
  refine_sweeps : int;
      (** refinement sweeps (exact route) or CG iterations (approximate
          route), summed over all point solves *)
  nnz_point : int;  (** stored nonzeros summed over per-point operators *)
  nnz_factor : int;  (** nonzeros summed over the factors applied *)
  select_seconds : float;  (** point selection + transform inversion *)
  factor_seconds : float;
  step_seconds : float;  (** point solves + coefficient recovery *)
  health : Linalg.Solve_report.aggregate;
      (** one report per iterative point solve; a point that fell back
          to its own factorization counts as a repaired fallback *)
}

val solve_dc :
  ?options:options ->
  ?points:points ->
  ?f0:Linalg.Sparse_cholesky.t ->
  Stochastic_model.t ->
  Linalg.Vec.t * stats
(** Stochastic DC: solve all [N+1] points against one solver for
    {!mean_g} and recover the augmented coefficient vector (same layout
    as {!Galerkin.solve_dc}).  [points] and [f0] inject a precomputed
    selection / factor (the engine's cache hook); [f0] must match the
    grid dimension ([Invalid_argument] otherwise). *)

val solve_transient :
  ?options:options ->
  ?points:points ->
  ?f0:Linalg.Sparse_cholesky.t ->
  ?fstep:Linalg.Sparse_cholesky.t array ->
  Stochastic_model.t ->
  h:float ->
  steps:int ->
  Response.t * stats
(** Backward-Euler transient from the stochastic DC state.  Exact
    route: [N+1] factorizations up front (or none, when [fstep] supplies
    the cached per-point factors — one per testing point, in point
    order), then one triangular solve per point per step with the point
    states carried across steps.  Approximate route: one mean
    stepping-matrix solver, then one warm-started preconditioned CG
    solve per point per step.  [fstep] must hold exactly [N+1] factors of the grid
    dimension.  The one-member {!solve_transient_cohort}. *)

val solve_dc_cohort :
  ?options:options ->
  ?points:points ->
  ?f0:Linalg.Sparse_cholesky.t ->
  Stochastic_model.t array ->
  Linalg.Vec.t array * stats
(** {!solve_dc} for k members at once: one coefficient vector per
    member, each bitwise the member's own {!solve_dc}.  The members must
    share one operator — the same G and C terms and basis, physically
    (drain-scaled copies of one model) — and only their excitations may
    differ; [Invalid_argument] otherwise or on an empty array.  [stats]
    covers the whole cohort: [refine_sweeps] and [health] sum over
    every column, the rest describe the shared operator and solvers. *)

val solve_transient_cohort :
  ?options:options ->
  ?points:points ->
  ?f0:Linalg.Sparse_cholesky.t ->
  ?fstep:Linalg.Sparse_cholesky.t array ->
  Stochastic_model.t array ->
  probes:int array array ->
  h:float ->
  steps:int ->
  Response.t array * stats
(** {!solve_transient} for k members at once, member [j] recording the
    probes [probes.(j)] ([options.probes] is not read).  Each step of
    the exact route solves every point's stepping factor once, as one
    k-column block solve; every member's response is bitwise its own
    {!solve_transient}.  Operator sharing and [stats] as for
    {!solve_dc_cohort}. *)
