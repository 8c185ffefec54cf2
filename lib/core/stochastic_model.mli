(** The stochastic MNA system [ (G(xi) + s C(xi)) x(s, xi) = U(s, xi) ]
    expanded over a chaos basis — the paper's Eq. (12)–(14).

    Matrices and excitations are stored as short lists of
    [(basis rank, value)] terms; rank 0 is the nominal part, rank of a
    degree-1 index is the coefficient on that raw random variable. *)

type t = {
  basis : Polychaos.Basis.t;
  tp : Polychaos.Triple_product.t;
  n : int;  (** node unknowns of the underlying grid *)
  g_terms : (int * Linalg.Sparse.t) list;
  c_terms : (int * Linalg.Sparse.t) list;
  u_static_terms : (int * Linalg.Vec.t) list;
      (** time-invariant excitation (pad injections) per basis rank *)
  u_drain_coefs : (int * float) list;
      (** the block drain current profile [i(t)] enters the excitation of
          rank k scaled by this coefficient *)
  mna : Powergrid.Mna.t;
  vdd : float;
}

val basis_of : ?order:int -> Varmodel.t -> Polychaos.Basis.t
(** The response basis {!build} expands in: the model's family
    (Hermite for Gaussian variations, Legendre for uniform) over its
    {!Varmodel.dim} variables, truncated at total degree [order]
    (default 2).  Raises [Invalid_argument] where {!build} does. *)

val build :
  ?order:int ->
  ?tp:(Polychaos.Basis.t -> Polychaos.Triple_product.t) ->
  Varmodel.t ->
  vdd:float ->
  Powergrid.Circuit.t ->
  t
(** Expand a circuit under a variation model into chaos form.
    [order] (default 2) is the truncation order of the response basis.
    [tp] supplies the triple-product tensor for the constructed basis
    (default {!Polychaos.Triple_product.create}) — the hook the artifact
    store uses to serve a cached tensor instead of recomputing it.
    In [Grouped_wires k] mode, wire resistors are assigned to [k] vertical
    stripes by their first node's index. *)

val g_of_sample : t -> float array -> Linalg.Sparse.t
(** [g_of_sample m xi]: the conductance realization [G(xi)] — used by the
    Monte-Carlo baseline so both methods solve the same stochastic system. *)

val c_of_sample : t -> float array -> Linalg.Sparse.t

val u_of_sample : t -> float array -> float -> Linalg.Vec.t
(** Excitation realization [U(xi, t)]. *)

val xi_rank : t -> int -> int
(** Basis rank of the degree-1 index in dimension [d]. *)

val node_pattern : t -> Linalg.Sparse.t
(** Structural union (absolute-value sum) of every conductance and
    capacitance term — the node connectivity graph shared by all
    realizations.  Fill-reducing orderings are computed once on this
    pattern and reused across Monte-Carlo samples and Galerkin blocks. *)

val drain_profile_into : t -> float -> Linalg.Vec.t -> unit
(** The nominal drain-current injection [i(t)] (negative at drain nodes),
    written over the given vector. *)
