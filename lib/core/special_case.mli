(** The paper's Sec. 5.1 special case: deterministic grid, stochastic
    excitation only.

    Threshold-voltage variation per chip region makes the leakage currents
    lognormal; expanding the excitation in the Hermite basis decouples the
    Galerkin system into [N + 1] independent deterministic transients that
    share a *single* factorization of [G + C/h] — and unlike the
    bound-based approaches of Ferzli & Najm, the moments come out exactly. *)

type t = {
  mna : Powergrid.Mna.t;
  basis : Polychaos.Basis.t;
  leaks : (int * int * float) array;  (** (node, region, nominal amps) *)
  lambda : float;  (** leakage = I0 exp (lambda xi_region) *)
  regions : int;
  vdd : float;
}

val make :
  ?order:int ->
  regions:int ->
  lambda:float ->
  leaks:(int * int * float) array ->
  vdd:float ->
  Powergrid.Circuit.t ->
  t
(** [lambda = sigma_vth * d(ln I)/d(Vth)] in physical terms; here it is the
    lognormal shape parameter directly. Default order 2. *)

val excitation_term : t -> int -> Linalg.Vec.t
(** Static excitation coefficient [U_k] of basis rank [k] (leakage part
    only; rank 0 also carries the mean leakage). *)

val solve :
  ?domains:int ->
  ?metrics:Util.Metrics.t ->
  ?factors:Linalg.Sparse_cholesky.t * Linalg.Sparse_cholesky.t ->
  t ->
  h:float ->
  steps:int ->
  probes:int array ->
  Response.t * float
(** Decoupled solves: one factorization, [ (N+1) * steps ] triangular
    solves, made as one block solve per step
    ({!Linalg.Sparse_cholesky.solve_block_ws}: one pass over the factor
    for all [N+1] blocks, each block bitwise its single solve), with the
    [C x_k / h] products as one block product.  Returns the response
    and elapsed seconds.  [domains] splits the blocks into column
    chunks ({!Util.Parallel.resolve} convention: [0] = [OPERA_DOMAINS]
    environment variable, default sequential); results are identical for
    any domain count.

    [metrics] receives the [special.factor_s] / [special.step_s] spans
    (default {!Util.Metrics.global}).  [factors] injects prefactorized
    [(G, G + C/h)] Cholesky factors — the batch engine's
    factor-once/solve-many hook; both must match the grid dimension
    ([Invalid_argument] otherwise), and the factor of the stepping
    matrix must of course correspond to the same [h]. *)

val solve_coupled :
  ?solver:Galerkin.solver ->
  ?policy:Galerkin.policy ->
  t ->
  h:float ->
  steps:int ->
  probes:int array ->
  Response.t * float
(** The same problem through the full coupled Galerkin machinery (used by
    tests to verify the decoupling is exact).  [solver] defaults to
    {!Galerkin.default_options}' direct route; [policy] (iterative solvers
    only) defaults to [Warn]. *)

val monte_carlo :
  t -> samples:int -> seed:int64 -> h:float -> steps:int -> probes:int array ->
  Monte_carlo.result
(** Baseline sampling of the lognormal leakage (factorization hoisted out
    of the sample loop since the matrix is deterministic — the favorable
    MC implementation). *)
