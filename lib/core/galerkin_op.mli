(** Matrix-free stochastic Galerkin operator.

    The coupled system of Eq. (19)–(22) is the Kronecker sum
    [At = sum_r T_r (x) A_r] with [T_r.(j).(k) = E(psi_r psi_j psi_k)].
    {!Galerkin.assemble} materializes it — an [O((N+1)^2 nnz)] memory
    wall that caps the chaos order and variable count.  This module
    applies the same operator directly from the per-rank [n x n] matrices
    and the sparse triple-product coupling:

    [y_j = sum_r sum_k T_r(j,k) A_r x_k]

    — computed as [y_j = sum_r A_r m_rj] with the mixed inputs
    [m_rj = sum_k T_r(j,k) x_k] over the coupling entries
    [E(psi_r psi_j psi_k) <> 0].  Each term matrix is read once per
    apply: its mixed blocks go through one allocation-free
    [Sparse.mul_block_acc] on flat block slices.  Storage is
    [O(sum_r nnz(A_r) + coupling entries)] plus one [(N+1) n] mixing
    scratch, independent of the Kronecker fill; no [Sparse.kron] is
    ever called.

    Output blocks are disjoint, so the apply splits them across domains
    with {!Util.Parallel} — results are bitwise identical for any domain
    count because each block's summation order never changes.  An
    operator owns its mixing scratch: apply one operator from one
    thread at a time ({!with_domains} makes another). *)

type t

val of_terms :
  ?domains:int -> tp:Polychaos.Triple_product.t -> n:int -> (int * Linalg.Sparse.t) list -> t
(** [of_terms ~tp ~n terms] builds the operator [sum_r T_r (x) A_r] from
    the per-rank matrices [terms = [(r, A_r); ...]] (each [n x n]; ranks
    must be valid for [tp]'s basis).  Repeated ranks are merged.
    [domains] follows the {!Util.Parallel.resolve} convention ([0] =
    [OPERA_DOMAINS] environment variable, default sequential). *)

val gt : ?domains:int -> Stochastic_model.t -> t
(** The stochastic conductance operator [Gt] of a model. *)

val ct : ?domains:int -> Stochastic_model.t -> t
(** The stochastic capacitance operator [Ct]. *)

val gt_plus_ct : ?domains:int -> ct_scale:float -> Stochastic_model.t -> t
(** [gt_plus_ct ~ct_scale m] is the transient stepping operator
    [Gt + ct_scale * Ct] (backward Euler: [ct_scale = 1/h]), with the
    per-rank matrices merged once so each rank costs one coupling scan. *)

val apply_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit
(** [apply_into op x y] sets [y <- At x] without allocating.  [x] and [y]
    must both have length {!dim} and be distinct arrays. *)

val apply : t -> Linalg.Vec.t -> Linalg.Vec.t
(** Allocating variant of {!apply_into}. *)

val dim : t -> int
(** [(N+1) * n], the augmented dimension. *)

val block_dim : t -> int
(** [n], the per-block (grid) dimension. *)

val blocks : t -> int
(** [N+1], the number of chaos blocks. *)

val nnz : t -> int
(** Stored nonzeros: [sum_r nnz(A_r)] over the merged per-rank matrices
    plus one entry per nonzero coupling coefficient — the matrix-free
    peak-memory figure to set against [Sparse.nnz] of the assembled
    augmented operator. *)

val coupling_nnz : t -> int
(** Number of nonzero [E(psi_r psi_j psi_k)] coefficients stored. *)

val domains : t -> int
(** The resolved domain count used by {!apply_into}. *)

val with_domains : t -> int -> t
(** Same operator, different domain count (shares all tables; gets its
    own mixing scratch). *)
