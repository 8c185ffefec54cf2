(** Sparse Cholesky factorization [P A P^T = L L^T] for SPD matrices.

    Up-looking numeric factorization driven by the elimination tree
    (CSparse-style), with a fill-reducing ordering applied first.  This is
    the solver behind both the deterministic transient analysis and the
    augmented stochastic Galerkin system. *)

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
    [Invalid_argument] if [a] is not square. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] solves [A x = b]. *)

val solve_in_place : t -> Vec.t -> unit
(** [solve_in_place f b] overwrites [b] with the solution, reusing an
    internal workspace — the allocation-free path for transient stepping.
    NOT safe for concurrent use of one factor from several domains (the
    workspace is shared); use {!solve_in_place_ws} there. *)

val solve_in_place_ws : t -> ?domains:int -> work:Vec.t -> Vec.t -> unit
(** [solve_in_place_ws f ~work b] is {!solve_in_place} with a
    caller-provided workspace of length {!dim}.  One factor may serve many
    domains concurrently as long as every domain passes its own [work]
    buffer — the factor itself is only read.

    [domains] (default [1] = sequential) selects the level-scheduled
    triangular sweeps when it resolves to more than one domain: rows of
    [L] (and columns of [L^T]) are grouped into dependency levels and
    each level is swept with disjoint-slice kernels over
    {!Util.Parallel.for_chunks}, fusing the permutation passes into the
    sweeps.  The level schedule (three re-laid copies of [L]) is built
    by the first such solve and kept in the factor; {!factor} and
    {!decode} never build it, so a factor only ever solved sequentially
    holds just its own arrays.  Concurrent first solves from several
    domains are safe: exactly one schedule is published.  Results are bitwise identical to the
    sequential path for every domain count; [0] defers to
    [OPERA_DOMAINS] as everywhere else.  Nested inside an already
    parallel region the sweeps degrade to inline execution (see
    {!Util.Parallel.for_chunks}), so passing the ambient domain count
    from block-parallel callers is always safe. *)

val encode : t -> Util.Codec.encoder -> unit
(** Serialize the factor (permutation + CSC arrays of [L]) for the
    artifact store.  Floats are written as IEEE-754 bit patterns, so a
    decoded factor solves bitwise identically. *)

val decode : Util.Codec.decoder -> t
(** Inverse of {!encode}.  Re-validates every structural invariant
    (permutation validity, monotone column pointers, in-range and
    diagonal-first row indices) and raises {!Util.Codec.Corrupt} on any
    violation — artifacts from disk are never trusted. *)

val nnz_l : t -> int
(** Number of stored entries of the factor [L]. *)

val dim : t -> int

val permutation : t -> Perm.t
(** The fill-reducing permutation used (elimination order of old indices). *)

