let layer_offset spec l =
  let acc = ref 0 in
  for l' = 0 to l - 1 do
    let r, c = Grid_spec.layer_dims spec l' in
    acc := !acc + (r * c)
  done;
  !acc

let node_at spec ~layer ~row ~col =
  let rows, cols = Grid_spec.layer_dims spec layer in
  if row < 0 || row >= rows || col < 0 || col >= cols then
    invalid_arg (Printf.sprintf "Grid_gen.node_at: (%d,%d) out of %dx%d" row col rows cols);
  layer_offset spec layer + (row * cols) + col

let position_of_node spec node =
  (* Inverse of node_at: (layer, row, col). *)
  let rec go l off =
    if l >= spec.Grid_spec.layers then invalid_arg "Grid_gen: node id out of range"
    else begin
      let rows, cols = Grid_spec.layer_dims spec l in
      let count = rows * cols in
      if node < off + count then begin
        let local = node - off in
        (l, local / cols, local mod cols)
      end
      else go (l + 1) (off + count)
    end
  in
  go 0 0

let region_of_node spec node =
  let l, row, col = position_of_node spec node in
  (* Map up-layer coordinates down to bottom-layer scale. *)
  let scale = Grid_spec.layer_shrink spec l in
  let row0 = Int.min (spec.Grid_spec.rows - 1) (row * scale) in
  let col0 = Int.min (spec.Grid_spec.cols - 1) (col * scale) in
  let ry = Int.max 1 (spec.Grid_spec.rows / spec.Grid_spec.regions_y) in
  let rx = Int.max 1 (spec.Grid_spec.cols / spec.Grid_spec.regions_x) in
  let iy = Int.min (spec.Grid_spec.regions_y - 1) (row0 / ry) in
  let ix = Int.min (spec.Grid_spec.regions_x - 1) (col0 / rx) in
  (iy * spec.Grid_spec.regions_x) + ix

let center_node spec =
  node_at spec ~layer:0 ~row:(spec.Grid_spec.rows / 2) ~col:(spec.Grid_spec.cols / 2)

let generate (spec : Grid_spec.t) =
  let rng = Prob.Rng.create ~seed:spec.seed () in
  let resistors = ref [] and capacitors = ref [] in
  let isources = ref [] and vsources = ref [] in
  (* Mesh wires per layer. *)
  for l = 0 to spec.layers - 1 do
    let rows, cols = Grid_spec.layer_dims spec l in
    let seg =
      spec.seg_res
      *. ((float_of_int spec.coarsening *. spec.layer_res_scale) ** float_of_int l)
    in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        let here = node_at spec ~layer:l ~row:r ~col:c in
        if c + 1 < cols then
          resistors :=
            { Circuit.rnode1 = here; rnode2 = node_at spec ~layer:l ~row:r ~col:(c + 1);
              ohms = seg; rkind = Circuit.Metal }
            :: !resistors;
        if r + 1 < rows then
          resistors :=
            { Circuit.rnode1 = here; rnode2 = node_at spec ~layer:l ~row:(r + 1) ~col:c;
              ohms = seg; rkind = Circuit.Metal }
            :: !resistors
      done
    done
  done;
  (* Vias: every node of layer l+1 drops to the matching node of layer l. *)
  for l = 0 to spec.layers - 2 do
    let rows_lo, cols_lo = Grid_spec.layer_dims spec l in
    let rows_hi, cols_hi = Grid_spec.layer_dims spec (l + 1) in
    for r = 0 to rows_hi - 1 do
      for c = 0 to cols_hi - 1 do
        let r_lo = Int.min (rows_lo - 1) (r * spec.coarsening) in
        let c_lo = Int.min (cols_lo - 1) (c * spec.coarsening) in
        resistors :=
          { Circuit.rnode1 = node_at spec ~layer:(l + 1) ~row:r ~col:c;
            rnode2 = node_at spec ~layer:l ~row:r_lo ~col:c_lo;
            ohms = spec.via_res; rkind = Circuit.Via }
          :: !resistors
      done
    done
  done;
  (* Supply pads on the top layer, a regular array every pad_pitch nodes. *)
  let top = spec.layers - 1 in
  let rows_t, cols_t = Grid_spec.layer_dims spec top in
  for r = 0 to rows_t - 1 do
    for c = 0 to cols_t - 1 do
      if r mod spec.pad_pitch = 0 && c mod spec.pad_pitch = 0 then
        vsources :=
          { Circuit.vnode = node_at spec ~layer:top ~row:r ~col:c;
            volts = spec.vdd; series_ohms = spec.pad_res }
          :: !vsources
    done
  done;
  (* Load capacitance on every bottom node, split into gate / fixed parts. *)
  let gate_cap = spec.gate_cap_fraction *. spec.node_cap in
  let fixed_cap = spec.node_cap -. gate_cap in
  for r = 0 to spec.rows - 1 do
    for c = 0 to spec.cols - 1 do
      let here = node_at spec ~layer:0 ~row:r ~col:c in
      if gate_cap > 0.0 then
        capacitors :=
          { Circuit.cnode1 = here; cnode2 = Circuit.ground; farads = gate_cap;
            ckind = Circuit.Gate }
          :: !capacitors;
      if fixed_cap > 0.0 then
        capacitors :=
          { Circuit.cnode1 = here; cnode2 = Circuit.ground; farads = fixed_cap;
            ckind = Circuit.Fixed }
          :: !capacitors
    done
  done;
  (* Functional blocks: clusters of current sources on the bottom layer. *)
  let bs = Int.min spec.block_size (Int.min spec.rows spec.cols) in
  let per_node_peak = spec.block_peak /. float_of_int (bs * bs) in
  for _ = 1 to spec.block_count do
    let r0 = Prob.Rng.int rng (Int.max 1 (spec.rows - bs + 1)) in
    let c0 = Prob.Rng.int rng (Int.max 1 (spec.cols - bs + 1)) in
    for dr = 0 to bs - 1 do
      for dc = 0 to bs - 1 do
        let node = node_at spec ~layer:0 ~row:(r0 + dr) ~col:(c0 + dc) in
        let wave =
          Waveform.random_activity rng ~peak:per_node_peak ~period:spec.clock_period
            ~duty:spec.duty ~cycles:spec.sim_cycles
        in
        isources :=
          { Circuit.inode = node; wave; region = region_of_node spec node } :: !isources
      done
    done
  done;
  Circuit.make ~num_nodes:(Grid_spec.node_count spec) ~resistors:!resistors
    ~capacitors:!capacitors ~isources:!isources ~vsources:!vsources ()

(* --- Streaming MNA assembly ---------------------------------------------

   [generate] materializes every element as a list cell plus a record
   (~500 MB of live heap at 10^6 nodes) only for [Mna.assemble] to fold the
   lists straight back down into CSC matrices.  [stream_mna] produces the
   same MNA system by stamping each conductance directly into
   [Sparse.of_stamps]: peak memory is one 16-byte slot per raw stamp, and
   the element lists never exist. *)

(* Per-layer geometry flattened into plain arrays so the stamping kernels
   below recompute no offsets and touch no tuples. *)
type geom = { glayers : int; grows : int array; gcols : int array; goff : int array }

let geom_of_spec (spec : Grid_spec.t) =
  let layers = spec.layers in
  let grows = Array.make layers 0 and gcols = Array.make layers 0 in
  let goff = Array.make (layers + 1) 0 in
  for l = 0 to layers - 1 do
    let r, c = Grid_spec.layer_dims spec l in
    grows.(l) <- r;
    gcols.(l) <- c;
    goff.(l + 1) <- goff.(l) + (r * c)
  done;
  { glayers = layers; grows; gcols; goff }

(* Mesh wires of every layer plus the via stitching, one replayable sweep
   through [Mna.stamp_conductance]; elements come in construction order,
   the reverse of [generate]'s element arrays. *)
let[@opera.hot] stamp_wires (spec : Grid_spec.t) geom segs stamp =
  for l = 0 to geom.glayers - 1 do
    let rows = geom.grows.(l) and cols = geom.gcols.(l) in
    let base = geom.goff.(l) in
    let g = 1.0 /. segs.(l) in
    for r = 0 to rows - 1 do
      let row_base = base + (r * cols) in
      for c = 0 to cols - 1 do
        let here = row_base + c in
        if c + 1 < cols then Mna.stamp_conductance stamp here (here + 1) g;
        if r + 1 < rows then Mna.stamp_conductance stamp here (here + cols) g
      done
    done
  done;
  let gv = 1.0 /. spec.via_res in
  for l = 0 to geom.glayers - 2 do
    let rows_lo = geom.grows.(l) and cols_lo = geom.gcols.(l) in
    let rows_hi = geom.grows.(l + 1) and cols_hi = geom.gcols.(l + 1) in
    for r = 0 to rows_hi - 1 do
      let r_lo = Int.min (rows_lo - 1) (r * spec.coarsening) in
      let hi_row = geom.goff.(l + 1) + (r * cols_hi) in
      let lo_row = geom.goff.(l) + (r_lo * cols_lo) in
      for c = 0 to cols_hi - 1 do
        let c_lo = Int.min (cols_lo - 1) (c * spec.coarsening) in
        Mna.stamp_conductance stamp (hi_row + c) (lo_row + c_lo) gv
      done
    done
  done

(* Norton pad conductances on the top layer. *)
let[@opera.hot] stamp_pads (spec : Grid_spec.t) geom stamp =
  let top = geom.glayers - 1 in
  let rows = geom.grows.(top) and cols = geom.gcols.(top) in
  let base = geom.goff.(top) in
  let g = 1.0 /. spec.pad_res in
  for r = 0 to rows - 1 do
    if r mod spec.pad_pitch = 0 then begin
      let row_base = base + (r * cols) in
      for c = 0 to cols - 1 do
        if c mod spec.pad_pitch = 0 then stamp (row_base + c) (row_base + c) g
      done
    end
  done

(* Load capacitance: a diagonal entry on every bottom-layer node. *)
let[@opera.hot] stamp_bottom_diag geom v stamp =
  if v > 0.0 then
    for i = 0 to geom.goff.(1) - 1 do
      stamp i i v
    done

let stream_mna ?metrics (spec : Grid_spec.t) =
  if spec.pad_res <= 0.0 then
    invalid_arg "Grid_gen.stream_mna: ideal pad (zero series resistance); use Mna.Full.assemble";
  let geom = geom_of_spec spec in
  let n = geom.goff.(geom.glayers) in
  let segs =
    Array.init geom.glayers (fun l ->
        spec.seg_res
        *. ((float_of_int spec.coarsening *. spec.layer_res_scale) ** float_of_int l))
  in
  let g_wire =
    Linalg.Sparse.of_stamps ?metrics ~nrows:n ~ncols:n (fun stamp ->
        stamp_wires spec geom segs stamp)
  in
  let g_pad =
    Linalg.Sparse.of_stamps ?metrics ~nrows:n ~ncols:n (fun stamp -> stamp_pads spec geom stamp)
  in
  let gate_cap = spec.gate_cap_fraction *. spec.node_cap in
  let fixed_cap = spec.node_cap -. gate_cap in
  let c_gate =
    Linalg.Sparse.of_stamps ?metrics ~nrows:n ~ncols:n (fun stamp ->
        stamp_bottom_diag geom gate_cap stamp)
  in
  let c_fixed =
    Linalg.Sparse.of_stamps ?metrics ~nrows:n ~ncols:n (fun stamp ->
        stamp_bottom_diag geom fixed_cap stamp)
  in
  (* Norton pad injection, filled outside the replayed closures. *)
  let u_pad = Linalg.Vec.create n in
  let top = geom.glayers - 1 in
  let rows_t = geom.grows.(top) and cols_t = geom.gcols.(top) in
  let base_t = geom.goff.(top) in
  let gp = 1.0 /. spec.pad_res in
  for r = 0 to rows_t - 1 do
    if r mod spec.pad_pitch = 0 then
      for c = 0 to cols_t - 1 do
        if c mod spec.pad_pitch = 0 then begin
          let p = base_t + (r * cols_t) + c in
          u_pad.(p) <- u_pad.(p) +. (gp *. spec.vdd)
        end
      done
  done;
  (* Block current sources are RNG-dependent, so they are built exactly once
     (never inside a replayed stamping closure).  The draw order matches
     [generate], so the activity profiles are bitwise those of the circuit
     path. *)
  let rng = Prob.Rng.create ~seed:spec.seed () in
  let isources = ref [] in
  let bs = Int.min spec.block_size (Int.min spec.rows spec.cols) in
  let per_node_peak = spec.block_peak /. float_of_int (bs * bs) in
  for _ = 1 to spec.block_count do
    let r0 = Prob.Rng.int rng (Int.max 1 (spec.rows - bs + 1)) in
    let c0 = Prob.Rng.int rng (Int.max 1 (spec.cols - bs + 1)) in
    for dr = 0 to bs - 1 do
      for dc = 0 to bs - 1 do
        let node = ((r0 + dr) * geom.gcols.(0)) + (c0 + dc) in
        let wave =
          Waveform.random_activity rng ~peak:per_node_peak ~period:spec.clock_period
            ~duty:spec.duty ~cycles:spec.sim_cycles
        in
        isources :=
          { Circuit.inode = node; wave; region = region_of_node spec node } :: !isources
      done
    done
  done;
  { Mna.n; g_wire; g_pad; c_gate; c_fixed; u_pad; isources = Array.of_list !isources }
