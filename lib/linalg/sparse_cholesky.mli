(** Sparse Cholesky factorization [P A P^T = L L^T] for SPD matrices.

    Up-looking numeric factorization driven by the elimination tree
    (CSparse-style), with a fill-reducing ordering applied first.  This is
    the solver behind both the deterministic transient analysis and the
    augmented stochastic Galerkin system.  A factor is an immutable
    value: its permutation and the CSC arrays of [L], nothing more.
    {!solve_block_ws} is the one triangular solve.  It applies one
    factor to many right-hand sides in one pass over [L] — the
    mean-block preconditioner's, the special case's and the ST points'
    shared solves — and a single right-hand side is its one-column
    call. *)

exception Not_positive_definite of int
(** Raised with the offending (permuted) pivot index. *)

type t

val factor : ?ordering:Ordering.kind -> ?perm:Perm.t -> Sparse.t -> t
(** [factor a] factorizes the sparse SPD matrix [a] (full symmetric storage).
    Default ordering is {!Ordering.Min_degree} (pass {!Ordering.Nested_dissection} for mesh-like grids); passing [perm] skips the
    ordering computation and uses the given elimination order — the key to
    amortizing one symbolic analysis over many factorizations with the same
    pattern (Monte-Carlo sampling, repeated transients).
    Raises {!Not_positive_definite} if a pivot is non-positive and
    [Invalid_argument] if [a] is not square.

    The numeric pass is up-looking: row [k]'s pattern comes from the
    elimination tree in topological order, and each column [i] in it
    scatters [x(r) -= L(r,i) * L(k,i)] over its entries so far.  That
    column update runs four entries at a time with unchecked reads.
    The rows one column updates are distinct, so the unroll reorders no
    sum: [L] is bit for bit the one-entry-at-a-time loop's (the
    reference the tests compare it with), and an indefinite matrix
    fails at the same pivot. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] solves [A x = b] through a workspace of its own. *)

val solve_in_place_ws : t -> ?domains:int -> work:Vec.t -> Vec.t -> unit
(** [solve_in_place_ws f ~work b] overwrites [b] with the solution of
    [A x = b], through a caller-provided workspace of length {!dim}: the
    one-column call of {!solve_block_ws}, and so allocation-free.  A
    factor is immutable, so one factor may serve many domains at once
    as long as each passes its own [work].  [domains] is accepted and
    ignored: one right-hand side is one sequential sweep, and domains
    split the columns of a block instead. *)

val block_work_dim : t -> k:int -> int
(** Workspace length {!solve_block_ws} needs for blocks of up to [k]
    columns: [min k 6 * dim], 6 being the widest panel. *)

val solve_block_ws :
  t -> work:Vec.t -> cols:int array -> lo:int -> hi:int -> src:Vec.t -> dst:Vec.t -> unit
(** [solve_block_ws f ~work ~cols ~lo ~hi ~src ~dst] solves [A x = b]
    for each column [c] in [cols.(lo .. hi-1)] of the column-major
    block vectors [src] and [dst] (column [c] occupies
    [c*n .. c*n+n-1]): [b] is read from [src], [x] written to [dst]
    ([src == dst] solves in place; other columns are untouched).
    Columns are swept in panels of up to six, each panel one
    pass over [L] through the node-major [work] (length at least
    {!block_work_dim}), with the permutation fused into the gather and
    the scatter.  Every column equals its one-column solve bit for bit.
    Allocation-free and sequential: domains split columns, each chunk
    with its own [work]. *)

val encode : t -> Util.Codec.encoder -> unit
(** Serialize the factor (permutation + CSC arrays of [L]) for the
    artifact store.  Floats are written as IEEE-754 bit patterns, so a
    decoded factor solves bitwise identically. *)

val decode : Util.Codec.decoder -> t
(** Inverse of {!encode}.  Re-validates every structural invariant
    (permutation validity, monotone column pointers, in-range and
    diagonal-first row indices, off-diagonal entries strictly below the
    diagonal) and raises {!Util.Codec.Corrupt} on any
    violation — artifacts from disk are never trusted. *)

val nnz_l : t -> int
(** Number of stored entries of the factor [L]. *)

val dim : t -> int

val permutation : t -> Perm.t
(** The fill-reducing permutation used (elimination order of old indices). *)

