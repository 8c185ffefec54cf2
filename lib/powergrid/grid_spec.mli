(** Parameters of a synthetic multi-layer mesh power grid.

    Stands in for the paper's proprietary industrial grids: a fine
    lower-layer mesh, progressively coarser upper layers stitched by vias,
    C4-style supply pads with package series resistance on the top layer,
    and clusters of current sources ("functional blocks") drawing
    clock-correlated random profiles on the bottom layer. *)

type t = {
  rows : int;  (** bottom-layer mesh rows *)
  cols : int;  (** bottom-layer mesh columns *)
  layers : int;  (** total mesh layers (>= 1) *)
  coarsening : int;  (** linear shrink factor per upper layer (>= 2) *)
  seg_res : float;  (** ohms per bottom-layer wire segment *)
  layer_res_scale : float;  (** per-layer multiplier (< 1: wider wires up top) *)
  via_res : float;  (** ohms per via *)
  pad_res : float;  (** package + bump series resistance per pad *)
  pad_pitch : int;  (** a pad every [pad_pitch] nodes along the top layer *)
  node_cap : float;  (** farads of load capacitance per bottom node *)
  gate_cap_fraction : float;  (** share of node_cap that is gate cap (paper: 0.4) *)
  vdd : float;
  block_count : int;  (** number of functional blocks *)
  block_size : int;  (** block footprint is block_size x block_size nodes *)
  block_peak : float;  (** peak current per block, amps *)
  clock_period : float;
  duty : float;  (** per-cycle switching probability *)
  sim_cycles : int;
  regions_x : int;  (** chip-region grid for intra-die models (Sec. 5.1) *)
  regions_y : int;
  seed : int64;  (** seeds the block activity profiles *)
}

val default : t
(** A ~1k-node grid drawing realistic currents with peak IR drop below
    10% of VDD, mirroring the paper's loading rule. *)

val with_size : t -> rows:int -> cols:int -> t

val min_nodes : int
(** The smallest node count {!scale_to_nodes} accepts. *)

val scale_to_nodes : t -> int -> t
(** Pick [rows = cols] so that the total node count across layers is
    approximately the request, scaling block count and pad pitch along.
    Raises [Invalid_argument] below {!min_nodes}. *)

val node_count : t -> int
(** Total nodes over all layers. *)

val layer_dims : t -> int -> int * int
(** Rows and columns of a given layer (0 = bottom). *)

val layer_shrink : t -> int -> int
(** Exact integer [coarsening^l], saturated at the bottom-mesh side.
    (Float exponentiation rounds past 2^53, which silently corrupts node
    addressing on deep hierarchies; all layer-scale math goes through
    this.) *)

val describe : t -> string
