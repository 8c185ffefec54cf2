(** Conjugate gradient for sparse SPD systems, with optional
    preconditioning.

    The paper (Sec. 5.2) points to iterative block solvers as the
    scalability lever for the augmented Galerkin system; the mean-block
    preconditioner used there is built on top of this module. *)

type preconditioner = Vec.t -> Vec.t
(** [apply r] returns [M^-1 r] for the preconditioner [M]. *)

type stats = { iterations : int; residual_norm : float; converged : bool }

val jacobi : Sparse.t -> preconditioner
(** Diagonal (Jacobi) preconditioner. Raises if a diagonal entry is zero. *)

val ic0 : Sparse.t -> preconditioner
(** Incomplete Cholesky with zero fill on the lower-triangular pattern.
    Raises [Failure] when a pivot breaks down (matrix too indefinite for
    IC(0)). *)

type ic0_factor
(** The IC(0) factor behind {!ic0}, exposed so hot callers can keep it
    and apply it in place. *)

val ic0_factorize : Sparse.t -> ic0_factor
(** Factorization half of {!ic0}; same breakdown behavior. *)

val ic0_dim : ic0_factor -> int

val ic0_nnz : ic0_factor -> int
(** Stored entries of the incomplete factor. *)

val ic0_solve_in_place : ic0_factor -> Vec.t -> unit
(** Overwrite [y] with [(L L^T)^-1 y].  Allocation-free. *)

val solve :
  ?precond:preconditioner ->
  ?max_iter:int ->
  ?tol:float ->
  matvec:(Vec.t -> Vec.t) ->
  b:Vec.t ->
  x0:Vec.t ->
  unit ->
  Vec.t * stats
(** [solve ~matvec ~b ~x0 ()] runs (preconditioned) CG until the residual
    2-norm falls below [tol * ||b||] (default [tol = 1e-10]) or [max_iter]
    iterations (default [10 * n]).  A zero right-hand side returns the
    exact solution [x = 0] immediately ([converged = true], 0 iterations)
    regardless of [x0].

    CALLERS MUST CHECK [stats.converged] (or use {!solve_report} and a
    convergence policy): hitting [max_iter] silently otherwise turns the
    returned vector into an unlabeled approximation. *)

val solve_report :
  ?precond:preconditioner ->
  ?max_iter:int ->
  ?tol:float ->
  ?history_cap:int ->
  matvec:(Vec.t -> Vec.t) ->
  b:Vec.t ->
  x0:Vec.t ->
  unit ->
  Vec.t * Solve_report.t
(** Same iteration as {!solve} but returns a full {!Solve_report.t}
    (relative residual, wall time, convergence flag, and — when
    [history_cap > 0] — the most recent [history_cap] residual norms in a
    bounded ring buffer, oldest first, starting with the initial
    residual). *)

type workspace
(** Reusable residual/direction scratch for {!solve_report_in_place}. *)

val workspace_create : int -> workspace
(** [workspace_create n] allocates scratch for systems of dimension [n]. *)

val workspace_dim : workspace -> int

val solve_report_in_place :
  ?precond:preconditioner ->
  ?max_iter:int ->
  ?tol:float ->
  ?history_cap:int ->
  ws:workspace ->
  matvec:(Vec.t -> Vec.t) ->
  b:Vec.t ->
  x:Vec.t ->
  unit ->
  Solve_report.t
(** Allocation-free variant of {!solve_report}: [x] holds the initial
    guess on entry and is overwritten with the solution; residual and
    search-direction scratch live in [ws].  A transient loop calling
    this once per step allocates nothing — the per-step [Array.copy] of
    the guess that {!solve_report} performs is exactly the garbage this
    variant exists to remove.  [matvec] and [precond] may return shared
    internal buffers (each result is consumed before the next call).
    The iteration is operation-for-operation identical to
    {!solve_report}, so solutions and reports are bitwise equal given
    equal inputs.  Raises [Invalid_argument] on dimension mismatch
    between [b], [x] and [ws]. *)

val solve_sparse :
  ?precond:preconditioner ->
  ?max_iter:int ->
  ?tol:float ->
  Sparse.t ->
  Vec.t ->
  Vec.t * stats
(** Convenience wrapper: CG on a sparse matrix with zero initial guess. *)
