type t = {
  rows : int;
  cols : int;
  layers : int;
  coarsening : int;
  seg_res : float;
  layer_res_scale : float;
  via_res : float;
  pad_res : float;
  pad_pitch : int;
  node_cap : float;
  gate_cap_fraction : float;
  vdd : float;
  block_count : int;
  block_size : int;
  block_peak : float;
  clock_period : float;
  duty : float;
  sim_cycles : int;
  regions_x : int;
  regions_y : int;
  seed : int64;
}

let default =
  {
    rows = 30;
    cols = 30;
    layers = 2;
    coarsening = 3;
    seg_res = 0.5;
    layer_res_scale = 0.5;
    via_res = 0.2;
    pad_res = 0.15;
    pad_pitch = 4;
    node_cap = 1.2e-12;
    gate_cap_fraction = 0.4;
    vdd = 1.2;
    block_count = 6;
    block_size = 4;
    block_peak = 0.3;
    clock_period = 1e-9;
    duty = 0.55;
    sim_cycles = 4;
    regions_x = 2;
    regions_y = 1;
    seed = 42L;
  }

let layer_shrink spec l =
  (* Exact integer coarsening^l.  Float [( ** )] loses exactness past 2^53
     and [int_of_float] of the rounded value then misaddresses every node
     above the bad layer; saturating at the mesh side is both exact and
     overflow-free (layers past the floor are 2x2 anyway). *)
  let cap = Int.max 2 (Int.max spec.rows spec.cols) in
  let s = ref 1 in
  (try
     for _ = 1 to l do
       s := !s * spec.coarsening;
       if !s >= cap then raise Exit
     done
   with Exit -> s := cap);
  !s

let layer_dims spec l =
  if l < 0 || l >= spec.layers then invalid_arg "Grid_spec.layer_dims: layer out of range";
  let shrink = layer_shrink spec l in
  (Int.max 2 (spec.rows / shrink), Int.max 2 (spec.cols / shrink))

let node_count spec =
  let acc = ref 0 in
  for l = 0 to spec.layers - 1 do
    let r, c = layer_dims spec l in
    acc := !acc + (r * c)
  done;
  !acc

let with_size spec ~rows ~cols =
  if rows < 2 || cols < 2 then invalid_arg "Grid_spec.with_size: mesh needs at least 2x2";
  { spec with rows; cols }

let min_nodes = 8

let scale_to_nodes spec target =
  if target < min_nodes then invalid_arg "Grid_spec.scale_to_nodes: target too small";
  (* Nodes ~ rows*cols * (1 + 1/coarsening^2 + ...) ~ rows^2 * factor. *)
  let factor = ref 0.0 in
  for l = 0 to spec.layers - 1 do
    let shrink = float_of_int spec.coarsening ** float_of_int l in
    factor := !factor +. (1.0 /. (shrink *. shrink))
  done;
  let side = int_of_float (Float.round (sqrt (float_of_int target /. !factor))) in
  let side = Int.max 4 side in
  (* Keep block loading proportional to area so the peak drop stays in the
     sub-10%-VDD regime of the paper. *)
  let area_ratio = float_of_int (side * side) /. float_of_int (spec.rows * spec.cols) in
  let blocks = Int.max 2 (int_of_float (Float.round (float_of_int spec.block_count *. area_ratio))) in
  { spec with rows = side; cols = side; block_count = blocks }

let describe spec =
  Printf.sprintf "%dx%d x%d layers (%d nodes), %d blocks, %d pads-pitch, VDD=%.2f"
    spec.rows spec.cols spec.layers (node_count spec) spec.block_count spec.pad_pitch spec.vdd
