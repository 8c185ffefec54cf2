(** Synthetic multi-layer mesh power-grid generator. *)

val node_at : Grid_spec.t -> layer:int -> row:int -> col:int -> Circuit.node
(** Global node id of a mesh position. Raises on out-of-range coordinates. *)

val region_of_node : Grid_spec.t -> Circuit.node -> int
(** Chip region (for the Sec. 5.1 intra-die leakage model) of a node;
    upper-layer nodes inherit the region below them. *)

val generate : Grid_spec.t -> Circuit.t
(** Build the circuit: bottom-layer mesh with load caps and block current
    sources, coarser upper meshes, via stitching, supply pads with package
    series resistance on the top layer. Deterministic given [spec.seed]. *)

val center_node : Grid_spec.t -> Circuit.node
(** Bottom-layer center — a convenient probe node far from the pads. *)

val stream_mna : ?metrics:Util.Metrics.t -> Grid_spec.t -> Mna.t
(** Assemble the MNA system of [generate spec] without materializing the
    circuit: conductances and capacitances stamp straight into CSC via
    {!Linalg.Sparse.of_stamps} (peak memory one triplet slot per stamp,
    counted into [metrics] when given), and only the RNG-dependent block
    current sources are built as values.  Matrices match
    [Mna.assemble (generate spec)] up to the order of duplicate sums: the
    same stamps come in construction order here and in reverse there
    ([generate] prepends its elements), so an inexact duplicate sum can
    differ by an ulp.  Waveforms, regions and the pad injection are
    bitwise identical.
    Raises [Invalid_argument] on a zero pad series resistance. *)
