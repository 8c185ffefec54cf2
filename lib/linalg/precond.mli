(** Mean-block preconditioner backends: the [--precond] knob.

    The stochastic solvers spend their inner loops solving with the
    n x n nominal (mean) matrix.  This module selects how: the exact
    sparse Cholesky factor (default — bitwise-identical to the
    historical behavior), IC(0), or the smoothed-aggregation AMG
    hierarchy whose setup and apply stay near-linear in [n] — the
    backend that scales to 10^5-10^6 nodes.  All backends apply in
    place through caller-owned workspaces (allocation-free inner loops)
    and are deterministic at any domain count.  Only [Cholesky] applies
    [M^-1] exactly; callers that iterate against the mean solver pick
    their iteration from {!backend} (a stationary refinement converges
    quickly only against the exact factor, so the approximate backends
    serve as CG preconditioners).  Every apply goes through one block
    kernel, {!apply_block}, which serves k vectors in one pass over the
    backend's data; a single vector ({!apply_in_place},
    {!as_cg_preconditioner}) is the one-column block. *)

type kind = Cholesky | Ic0 | Amg | Auto

val to_string : kind -> string

val of_string : string -> kind option

val all : kind list

val usage : string
(** ["cholesky|ic0|amg|auto"] — for CLI help text. *)

val auto_threshold : int
(** Unknown count at which [Auto] switches from [Cholesky] to [Amg]. *)

val resolve : kind -> n:int -> kind
(** Resolve [Auto] on the problem size; other kinds pass through. *)

type t

val make : ?cycles:int -> ?perm:Perm.t -> ?ordering:Ordering.kind -> kind -> Sparse.t -> t
(** Set up the backend [resolve]d for the matrix's dimension.  [perm]
    (else [ordering]) shapes the exact factor; [cycles] is the AMG
    V-cycle count per apply (default 1).  Both are ignored by backends
    they don't concern. *)

val of_factor : Sparse_cholesky.t -> t
(** Wrap an existing exact factor (callers that already built one). *)

val backend : t -> kind
(** The resolved backend ([Auto] never appears). *)

val dim : t -> int

val stored_nnz : t -> int
(** Stored entries of the backend's setup state — factor nonzeros,
    incomplete-factor entries, or the AMG hierarchy's storage. *)

type block_ws
(** Scratch for {!apply_block}; one workspace per concurrent applier. *)

val create_block_ws : t -> k:int -> block_ws
(** Workspace for {!apply_block} on blocks of up to [k] columns
    ([min k 6] floats per unknown for the exact factor, three times that
    per unknown of every AMG level, one column for IC(0)). *)

val apply_block :
  t -> block_ws -> src:Vec.t -> dst:Vec.t -> cols:int array -> lo:int -> hi:int -> unit
(** [apply_block t ws ~src ~dst ~cols ~lo ~hi] writes [M^-1 b] for each
    column [c] in [cols.(lo .. hi-1)] of the column-major block vectors
    [src] and [dst] (column [c] occupying [c*n .. c*n+n-1]; [src == dst]
    applies in place).  The exact factor ({!Sparse_cholesky.solve_block_ws})
    and AMG ({!Amg.apply_block}) make one pass over their data for the
    whole block; IC(0) loops over the columns.  Every column equals
    the one-column apply bit for bit.  Allocation-free and sequential:
    callers split columns across domains, one workspace per chunk. *)

val create_ws : t -> block_ws
(** [create_block_ws t ~k:1]: the workspace of {!apply_in_place}. *)

val apply_in_place : t -> block_ws -> ?domains:int -> Vec.t -> unit
(** Overwrite [x] with the preconditioned solve [M^-1 x]: the
    one-column {!apply_block}, so it allocates nothing and runs
    sequentially on every backend; [domains] is accepted and ignored. *)

val as_cg_preconditioner : t -> Cg.preconditioner
(** Allocating closure form for {!Cg.solve}-style callers; the returned
    closure owns one workspace, so it is single-applier. *)
