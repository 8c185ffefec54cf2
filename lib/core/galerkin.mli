(** Galerkin projection of the stochastic MNA system — the heart of OPERA.

    With the response expanded as [x(t, xi) = sum_k a_k(t) psi_k(xi)] and
    the truncation error forced orthogonal to every basis function
    (Eq. (10)), one deterministic block system appears:

    [Gt + s Ct] in block form, block (j, k) = [sum_i E(psi_i psi_j psi_k) A_i]

    — exactly the paper's Eq. (19)–(22), kept in its symmetric
    (norm-weighted) form so the augmented matrix stays SPD and sparse
    Cholesky applies.  Assembly is a Kronecker sum
    [sum_i T_i (x) A_i] over the model's matrix terms. *)

type solver =
  | Direct  (** sparse Cholesky of the augmented matrix *)
  | Mean_pcg of { tol : float; max_iter : int }
      (** conjugate gradient on the augmented system, preconditioned by the
          factorized nominal block — the "iterative block solver" route of
          Sec. 5.2.  Each preconditioner apply solves all [N+1] blocks in
          one block solve ({!Linalg.Precond.apply_block}). *)
  | Matrix_free_pcg of { tol : float; max_iter : int }
      (** same mean-block PCG, but the augmented operator is never
          assembled: the matvec is {!Galerkin_op}'s block-structured
          apply straight from the per-rank matrices and the sparse
          triple-product coupling.  Memory drops from
          [O((N+1)^2 nnz)] to [O(sum_r nnz_r + (N+1) n)]; the matvec
          reads each term matrix once per apply, and splits the chaos
          blocks across domains (see [options.domains]). *)
  | St of { tol : float; max_refine : int; candidates : int; seed : int64 }
      (** stochastic-testing collocation ({!St_solver}): the gPC system
          is solved at [N+1] selected testing points as fully decoupled
          deterministic systems and the coefficients recovered through a
          dense [(N+1) x (N+1)] transform — no coupled Krylov iteration
          at all.  [tol]/[max_refine] control the DC refinement against
          the one mean-matrix factorization; [candidates]/[seed] shape
          the point-selection pool (see {!St_solver.select_points}).
          Every point is refined to [tol] or repaired by its own
          factorization, so [options.policy] is never consulted; the
          transient supports backward Euler only ([Invalid_argument]
          under a trapezoidal scheme). *)

val default_st : solver
(** [St] with the stock knobs: tol 1e-10, 100 refinement sweeps,
    tensor-grid candidates, seed 1 — the CLI's [--solver st]. *)

type policy =
  | Fail  (** raise {!Solver_diverged} on the first unconverged solve *)
  | Warn
      (** log the report to stderr, keep the approximate iterate, and
          mark the run unhealthy in [stats.health] (the default) *)
  | Fallback
      (** re-solve with the assembled direct factor (built lazily on
          first failure) so the returned vector always meets the
          tolerance; every repair is counted in [stats.health] *)

exception Solver_diverged of string * Linalg.Solve_report.t
(** Raised under the [Fail] policy: the context string names the solve
    ("dc solve (mean-pcg)", "transient step 17 (matrix-free-pcg)", ...)
    and the report carries iterations / relative residual / wall time. *)

type options = {
  solver : solver;
  ordering : Linalg.Ordering.kind;
  precond : Linalg.Precond.kind;
      (** mean-block backend for the iterative solvers: the exact
          nominal Cholesky factor ([Cholesky], default — historical
          behavior bitwise), [Ic0], [Amg] (near-linear setup and apply,
          the 10^5+-node backend), or [Auto] (resolves on [n] at
          {!Linalg.Precond.auto_threshold}).  Ignored by [Direct].
          Every backend keeps solves bitwise-identical across
          [domains]. *)
  probes : int array;  (** nodes whose full PCE trajectory is kept *)
  scheme : Powergrid.Transient.scheme;
      (** time integration of the augmented system; backward Euler is the
          paper's fixed-step choice, trapezoidal halves the local error at
          the same cost structure *)
  domains : int;
      (** domain count for the block-parallel paths (matrix-free matvec,
          mean-block preconditioner; domains split the chaos blocks into
          column chunks of the block kernels); {!Util.Parallel.resolve} convention:
          [0] defers to the [OPERA_DOMAINS] environment variable, default
          sequential.  Results are bitwise identical for any value. *)
  policy : policy;
      (** what to do when an iterative solve exhausts [max_iter] without
          reaching the tolerance *)
  metrics : Util.Metrics.t;
      (** registry receiving the per-phase counters and timers
          ([galerkin.assemble_s], [galerkin.factor_s], [galerkin.step_s],
          [galerkin.precond_s], [galerkin.pcg_iterations], the per-solve
          [galerkin.pcg_iters_per_solve] histogram, ...); defaults to
          {!Util.Metrics.global}.  Updated from the calling domain
          only. *)
  warm_start : bool;
      (** seed each transient step's Krylov solve from the previous
          accepted coefficients, linearly extrapolated ([2 a_k -
          a_{k-1}]) once two steps exist; [false] restarts every step
          from a zero guess.  Changes only where the iteration starts —
          the convergence test is unchanged, so results agree with cold
          starts within solver tolerance while using (typically far)
          fewer iterations per step.  Ignored by the [Direct] solver. *)
}

val default_options : options
(** Direct solver, nested-dissection ordering, exact-Cholesky mean
    block, no probes, backward Euler, domains from the environment,
    [Warn] policy, global metrics, warm starting on. *)

type stats = {
  aug_dim : int;  (** (N+1) * n *)
  nnz_aug : int;
      (** stored nonzeros of the stepping operator: the assembled
          [Gt + Ct/h] for [Direct]/[Mean_pcg], the matrix-free block
          data ([sum_r nnz_r] + coupling entries) for
          [Matrix_free_pcg], the per-point realizations summed for
          [St] — the peak-memory figure of each route *)
  nnz_factor : int;
      (** nonzeros of its Cholesky factor ([Direct]; summed over the
          per-point factors for [St]) *)
  assemble_seconds : float;
  factor_seconds : float;
  step_seconds : float;
  pcg_iterations : int;
      (** total over all steps (iterative solvers only; mirrors
          [health.iterations]) *)
  health : Linalg.Solve_report.aggregate;
      (** solver-health ledger of the run: solves, iterations,
          unconverged count, fallbacks taken, worst relative residual,
          accumulated iterative wall time.  Check
          {!Linalg.Solve_report.agg_healthy} before trusting the
          response of an iterative run under the [Warn] policy. *)
}

val assemble : Stochastic_model.t -> (int * Linalg.Sparse.t) list -> Linalg.Sparse.t
(** [assemble m terms] = [sum_i kron (coupling_matrix tp i) A_i]. *)

val assemble_g : Stochastic_model.t -> Linalg.Sparse.t

val assemble_c : Stochastic_model.t -> Linalg.Sparse.t

val rhs_into :
  Stochastic_model.t -> drain_buf:Linalg.Vec.t -> float -> Linalg.Vec.t -> unit
(** Augmented excitation [Ut(t)]: block j receives
    [norm_sq j * (u_static_j + drain_coef_j * i(t))]. *)

val block_ordering : ?kind:Linalg.Ordering.kind -> Stochastic_model.t -> Linalg.Perm.t
(** The fill-reducing elimination order of the augmented system: the grid's
    node connectivity is ordered once (on [n] nodes, default nested
    dissection), then each node's [N+1] chaos coefficients are kept
    adjacent.  Exposed so batch engines can compute (or cache) one symbolic
    ordering and reuse it across every factorization that shares the
    grid pattern. *)

val solve_dc : ?options:options -> Stochastic_model.t -> Linalg.Vec.t
(** Stochastic DC solution (augmented coefficients at t = 0). *)

val solve_transient :
  ?options:options -> Stochastic_model.t -> h:float -> steps:int -> Response.t * stats
(** Backward-Euler transient of the augmented system starting from the
    stochastic DC state; one factorization, [steps] solves.  Under the
    [St] solver the same response comes from [N+1] decoupled per-point
    transients (one small factorization per point, reused across every
    step) with the coefficients recovered each step — [stats] then maps
    the ST ledger: [pcg_iterations] counts DC refinement sweeps and
    [factor_seconds]/[nnz_factor] cover the per-point factors. *)
