(** Modified nodal analysis assembly.

    Supply pads (ideal source + series resistance) are Norton-transformed:
    a conductance [1/Rs] to ground plus a current injection [VDD/Rs], which
    keeps the nodal matrix symmetric positive definite.  The conductance and
    capacitance matrices are returned *split by physical origin* so the
    variation model can perturb each part with its own random variable:

    - [g_wire]: metal + via conductances (vary with xiW, xiT -> xiG)
    - [g_pad]:  pad Norton conductances (package; nominally fixed)
    - [c_gate]: gate capacitance (varies with xiL)
    - [c_fixed]: diffusion/wire capacitance (nominal)

    Ideal pads ([series_ohms = 0]) cannot be Norton-transformed; use
    {!Full.assemble}, which keeps branch currents as extra unknowns (solved
    with sparse LU since the system is then indefinite). *)

type t = {
  n : int;  (** number of node unknowns *)
  g_wire : Linalg.Sparse.t;
  g_pad : Linalg.Sparse.t;
  c_gate : Linalg.Sparse.t;
  c_fixed : Linalg.Sparse.t;
  u_pad : Linalg.Vec.t;  (** Norton pad injection [G_pad * VDD] *)
  isources : Circuit.current_source array;
}

val assemble : Circuit.t -> t
(** Raises [Invalid_argument] if a pad has zero series resistance or the
    circuit has inductors (use {!Full.assemble} for those).  Each matrix
    is one {!Linalg.Sparse.of_stamps} pass over the element arrays in
    array order, so duplicate stamps sum in that order. *)

val stamp_conductance : (int -> int -> float -> unit) -> Circuit.node -> Circuit.node -> float -> unit
(** [stamp_conductance stamp n1 n2 g] emits the stamps of a conductance
    [g] between [n1] and [n2]: [(n1,n1) g], [(n2,n2) g], [(n1,n2) -g],
    [(n2,n1) -g], leaving out every row and column of {!Circuit.ground}.
    The assemblers here and [Grid_gen.stream_mna]'s wire kernel stamp
    every two-terminal element through it, so the order of an element's
    stamps is stated once. *)

val wire_groups : Circuit.t -> groups:int -> (Circuit.node -> int) -> Linalg.Sparse.t array
(** [wire_groups c ~groups group_of_node] splits the wire conductance
    ([g_wire]'s metal and via resistors) into [groups] matrices: each
    resistor goes to the group of its first non-ground node.  The
    matrices sum to [g_wire] up to the order of duplicate sums. *)

val g_total : t -> Linalg.Sparse.t

val c_total : t -> Linalg.Sparse.t

val drain_into : t -> float -> Linalg.Vec.t -> unit
(** [drain_into a t u] adds the block drain currents at time [t] into [u]
    with their MNA sign (current leaving a node is negative injection). *)

val inject : t -> float -> Linalg.Vec.t
(** Full right-hand side [u(t) = u_pad + drains(t)]. *)

val inject_into : t -> float -> Linalg.Vec.t -> unit
(** Allocation-free version of {!inject}; overwrites the argument. *)

(** Full MNA with explicit voltage-source branch currents. *)
module Full : sig
  type system = {
    dim : int;  (** nodes + vsource branches *)
    nodes : int;
    a : Linalg.Sparse.t;  (** [G] block plus incidence rows/columns *)
    c : Linalg.Sparse.t;  (** capacitance, zero on branch rows *)
    rhs : float -> Linalg.Vec.t;
  }

  val assemble : Circuit.t -> system
  (** Handles pads with any series resistance, including 0 (the series
      resistance is stamped into the branch row), and inductors (one
      branch-current unknown each, with [-L] on the branch row of the
      [c] matrix). *)
end
