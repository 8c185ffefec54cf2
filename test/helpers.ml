(* Shared checks and generators for the test suite. *)

let check_float ?(eps = 1e-9) what expected actual =
  Alcotest.(check (float eps)) what expected actual

let check_close ?(rtol = 1e-9) what expected actual =
  let scale = Float.max (Float.abs expected) 1.0 in
  Alcotest.(check (float (rtol *. scale))) what expected actual

let check_vec ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (what ^ " (vectors equal)")
    true
    (Linalg.Vec.approx_equal ~tol:eps expected actual)

let check_dense ?(eps = 1e-9) what expected actual =
  if not (Linalg.Dense.approx_equal ~tol:eps expected actual) then
    Alcotest.failf "%s: matrices differ;@ expected %a@ got %a" what Linalg.Dense.pp expected
      Linalg.Dense.pp actual

let rng () = Prob.Rng.create ~seed:12345L ()

(* Run [f] with the worker pool capped at [cap] workers, and restore
   the hardware default no matter how [f] exits: forced caps must not
   leak into unrelated suites. *)
let with_pool_cap cap f =
  Util.Parallel.set_pool_cap cap;
  Fun.protect ~finally:(fun () -> Util.Parallel.set_pool_cap None) f

(* A random SPD matrix: A = B B^T + n I. *)
let random_spd rng n =
  let b =
    Linalg.Dense.init n n (fun _ _ -> Prob.Rng.float_range rng (-1.0) 1.0)
  in
  let bbt = Linalg.Dense.matmul b (Linalg.Dense.transpose b) in
  Linalg.Dense.init n n (fun i j ->
      Linalg.Dense.get bbt i j +. if i = j then float_of_int n else 0.0)

(* A random sparse SPD matrix built like a conductance stamp: diagonally
   dominant with random off-diagonal couplings.  The edges are drawn
   first: [of_stamps] replays its emit. *)
let random_sparse_spd rng n ~extra_edges =
  let edges = ref [] in
  (* chain to keep it irreducible *)
  for i = 0 to n - 2 do
    let g = Prob.Rng.float_range rng 0.5 2.0 in
    edges := (i, i + 1, g) :: !edges
  done;
  for _ = 1 to extra_edges do
    let i = Prob.Rng.int rng n and j = Prob.Rng.int rng n in
    if i <> j then begin
      let g = Prob.Rng.float_range rng 0.1 1.0 in
      edges := (i, j, g) :: !edges
    end
  done;
  let edges = List.rev !edges in
  Linalg.Sparse.of_stamps ~nrows:n ~ncols:n (fun stamp ->
      for i = 0 to n - 1 do
        stamp i i 1.0
      done;
      List.iter (fun (i, j, g) -> Powergrid.Mna.stamp_conductance stamp i j g) edges)

(* The k x k five-point mesh: unit conductances between neighbours and
   [diag] to ground at every node. *)
let mesh_matrix ~diag k =
  let n = k * k in
  Linalg.Sparse.of_stamps ~nrows:n ~ncols:n (fun stamp ->
      for r = 0 to k - 1 do
        for c = 0 to k - 1 do
          let here = (r * k) + c in
          stamp here here diag;
          if c + 1 < k then Powergrid.Mna.stamp_conductance stamp here (here + 1) 1.0;
          if r + 1 < k then Powergrid.Mna.stamp_conductance stamp here (here + k) 1.0
        done
      done)

let random_vec rng n = Array.init n (fun _ -> Prob.Rng.float_range rng (-1.0) 1.0)

(* A tiny deterministic power grid usable across tests. *)
let small_grid_spec =
  {
    Powergrid.Grid_spec.default with
    Powergrid.Grid_spec.rows = 8;
    cols = 8;
    layers = 2;
    block_count = 2;
    block_size = 2;
    block_peak = 0.01;
    sim_cycles = 2;
  }

(* The conductance matrix of the generated grid scaled to [nodes]. *)
let grid_g nodes =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
  Powergrid.Mna.g_total (Powergrid.Grid_gen.stream_mna spec)

let qcheck_case ?(count = 100) name arbitrary property =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary property)

(* ---- reference Cholesky ------------------------------------------------

   [Linalg.Sparse_cholesky.factor]'s up-looking pass as it ran before
   its column update was unrolled and unchecked: the same elimination
   tree, the same [ereach] order, every access bounds-checked and one
   entry at a time.  The library factor must equal it bit for bit, and
   must raise [Not_positive_definite] at the same pivot. *)

let reference_etree ~n ~colptr ~rowind =
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    for p = colptr.(k) to colptr.(k + 1) - 1 do
      let i = ref rowind.(p) in
      while !i <> -1 && !i < k do
        let next = ancestor.(!i) in
        ancestor.(!i) <- k;
        if next = -1 then parent.(!i) <- k;
        i := next
      done
    done
  done;
  parent

let reference_ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path =
  let n = Array.length parent in
  let top = ref n in
  w.(k) <- k;
  for p = colptr.(k) to colptr.(k + 1) - 1 do
    let i0 = rowind.(p) in
    if i0 < k then begin
      let len = ref 0 in
      let i = ref i0 in
      while w.(!i) <> k do
        path.(!len) <- !i;
        incr len;
        w.(!i) <- k;
        i := parent.(!i)
      done;
      while !len > 0 do
        decr len;
        decr top;
        stack.(!top) <- path.(!len)
      done
    end
  done;
  !top

(* The factor as {!Linalg.Sparse_cholesky.encode} writes it: [n], the
   permutation and the CSC arrays of [L]. *)
let reference_cholesky_bytes ?(ordering = Linalg.Ordering.Min_degree) ?perm a =
  let n, _ = Linalg.Sparse.dims a in
  let p = match perm with Some p -> p | None -> Linalg.Ordering.compute ordering a in
  let ap = Linalg.Sparse.permute_sym a p in
  let upper = Linalg.Sparse.upper ap in
  let { Linalg.Sparse.colptr; rowind; values; _ } = upper in
  let parent = reference_etree ~n ~colptr ~rowind in
  let w = Array.make n (-1) in
  let stack = Array.make n 0 in
  let path = Array.make n 0 in
  let counts = Array.make n 1 in
  for k = 0 to n - 1 do
    let top = reference_ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path in
    for t = top to n - 1 do
      counts.(stack.(t)) <- counts.(stack.(t)) + 1
    done
  done;
  let lp = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    lp.(j + 1) <- lp.(j) + counts.(j)
  done;
  let total = lp.(n) in
  let li = Array.make total 0 and lx = Array.make total 0.0 in
  let fill = Array.make n 0 in
  for j = 0 to n - 1 do
    fill.(j) <- lp.(j)
  done;
  Array.fill w 0 n (-1);
  let x = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let top = reference_ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path in
    let d = ref 0.0 in
    for p = colptr.(k) to colptr.(k + 1) - 1 do
      let i = rowind.(p) in
      if i = k then d := values.(p) else x.(i) <- values.(p)
    done;
    for t = top to n - 1 do
      let i = stack.(t) in
      let lki = x.(i) /. lx.(lp.(i)) in
      x.(i) <- 0.0;
      for p = lp.(i) + 1 to fill.(i) - 1 do
        x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. lki)
      done;
      d := !d -. (lki *. lki);
      let pos = fill.(i) in
      fill.(i) <- pos + 1;
      li.(pos) <- k;
      lx.(pos) <- lki
    done;
    if !d <= 0.0 then raise (Linalg.Sparse_cholesky.Not_positive_definite k);
    let pos = fill.(k) in
    fill.(k) <- pos + 1;
    li.(pos) <- k;
    lx.(pos) <- sqrt !d
  done;
  let e = Util.Codec.encoder () in
  Util.Codec.write_int e n;
  Util.Codec.write_int_array e p;
  Util.Codec.write_int_array e lp;
  Util.Codec.write_int_array e li;
  Util.Codec.write_float_array e lx;
  Util.Codec.contents e

(* ---- reference assembly ------------------------------------------------

   The triplet builder every netlist and generated grid was assembled
   through before [Linalg.Sparse.of_stamps] became the one assembly
   path.  [to_csc] is its compression verbatim: a counting sort by
   column, then each column sorted by row with [Array.sort] (a heap
   sort, so duplicate runs leave emission order) and summed in that
   order.  On generated grids and their netlist round trips the two
   orders give the same bits, so there the library's emission-order sums
   must equal it bit for bit. *)

module Reference_builder = struct
  type t = {
    nrows : int;
    ncols : int;
    mutable rows : int array;
    mutable cols : int array;
    mutable vals : float array;
    mutable len : int;
  }

  let create ~n = { nrows = n; ncols = n; rows = [||]; cols = [||]; vals = [||]; len = 0 }

  let add b i j v =
    if i < 0 || i >= b.nrows || j < 0 || j >= b.ncols then
      invalid_arg (Printf.sprintf "Reference_builder.add: (%d,%d) out of %dx%d" i j b.nrows b.ncols);
    if b.len = Array.length b.rows then begin
      let cap = Int.max 64 (2 * b.len) in
      let extend a fill =
        let a' = Array.make cap fill in
        Array.blit a 0 a' 0 b.len;
        a'
      in
      b.rows <- extend b.rows 0;
      b.cols <- extend b.cols 0;
      b.vals <- extend b.vals 0.0
    end;
    b.rows.(b.len) <- i;
    b.cols.(b.len) <- j;
    b.vals.(b.len) <- v;
    b.len <- b.len + 1

  let stamp_conductance b n1 n2 g =
    match (n1, n2) with
    | None, None -> ()
    | Some i, None | None, Some i -> add b i i g
    | Some i, Some j ->
        add b i i g;
        add b j j g;
        add b i j (-.g);
        add b j i (-.g)

  let to_csc b =
    let n = b.len in
    (* Counting sort by column, then sort each column segment by row and merge
       duplicates. *)
    let counts = Array.make (b.ncols + 1) 0 in
    for k = 0 to n - 1 do
      counts.(b.cols.(k) + 1) <- counts.(b.cols.(k) + 1) + 1
    done;
    for j = 1 to b.ncols do
      counts.(j) <- counts.(j) + counts.(j - 1)
    done;
    let next = Array.copy counts in
    let rows_sorted = Array.make n 0 and vals_sorted = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let j = b.cols.(k) in
      let pos = next.(j) in
      next.(j) <- pos + 1;
      rows_sorted.(pos) <- b.rows.(k);
      vals_sorted.(pos) <- b.vals.(k)
    done;
    let colptr = Array.make (b.ncols + 1) 0 in
    let rowind = Array.make n 0 and values = Array.make n 0.0 in
    let pos = ref 0 in
    for j = 0 to b.ncols - 1 do
      let lo = counts.(j) and hi = counts.(j + 1) in
      let seg = Array.init (hi - lo) (fun t -> (rows_sorted.(lo + t), vals_sorted.(lo + t))) in
      Array.sort (fun (r1, _) (r2, _) -> compare r1 r2) seg;
      let m = Array.length seg in
      let k = ref 0 in
      while !k < m do
        let r, _ = seg.(!k) in
        let acc = ref 0.0 in
        while !k < m && fst seg.(!k) = r do
          acc := !acc +. snd seg.(!k);
          incr k
        done;
        if not (Util.Floats.equal_exact !acc 0.0) then begin
          rowind.(!pos) <- r;
          values.(!pos) <- !acc;
          incr pos
        end
      done;
      colptr.(j + 1) <- !pos
    done;
    Linalg.Sparse.create ~nrows:b.nrows ~ncols:b.ncols ~colptr
      ~rowind:(Array.sub rowind 0 !pos)
      ~values:(Array.sub values 0 !pos)
end

let opt_node n = if n = Powergrid.Circuit.ground then None else Some n

(* [Powergrid.Mna.assemble]'s four matrices as the builder stamped them:
   [(g_wire, g_pad, c_gate, c_fixed)]. *)
let reference_mna (circuit : Powergrid.Circuit.t) =
  let module B = Reference_builder in
  let n = circuit.num_nodes in
  let wire = B.create ~n and pad = B.create ~n in
  let gate = B.create ~n and fixed = B.create ~n in
  Array.iter
    (fun (r : Powergrid.Circuit.resistor) ->
      let g = 1.0 /. r.ohms in
      let target =
        match r.rkind with Powergrid.Circuit.Metal | Powergrid.Circuit.Via -> wire | Powergrid.Circuit.Package -> pad
      in
      B.stamp_conductance target (opt_node r.rnode1) (opt_node r.rnode2) g)
    circuit.resistors;
  Array.iter
    (fun (c : Powergrid.Circuit.capacitor) ->
      let target = match c.ckind with Powergrid.Circuit.Gate -> gate | Powergrid.Circuit.Fixed -> fixed in
      B.stamp_conductance target (opt_node c.cnode1) (opt_node c.cnode2) c.farads)
    circuit.capacitors;
  Array.iter
    (fun (v : Powergrid.Circuit.vsource) -> B.add pad v.vnode v.vnode (1.0 /. v.series_ohms))
    circuit.vsources;
  (B.to_csc wire, B.to_csc pad, B.to_csc gate, B.to_csc fixed)

(* The wire conductance split by [group_of_node] of each resistor's
   first non-ground node, as [Stochastic_model]'s stripes and
   [Spatial]'s regions stamped it. *)
let reference_wire_groups (circuit : Powergrid.Circuit.t) ~groups group_of_node =
  let builders = Array.init groups (fun _ -> Reference_builder.create ~n:circuit.num_nodes) in
  Array.iter
    (fun (r : Powergrid.Circuit.resistor) ->
      match r.rkind with
      | Powergrid.Circuit.Metal | Powergrid.Circuit.Via ->
          let anchor = if r.rnode1 >= 0 then r.rnode1 else r.rnode2 in
          Reference_builder.stamp_conductance
            builders.(group_of_node anchor)
            (opt_node r.rnode1) (opt_node r.rnode2) (1.0 /. r.ohms)
      | Powergrid.Circuit.Package -> ())
    circuit.resistors;
  Array.map Reference_builder.to_csc builders

(* Bit-for-bit equality of two CSC matrices: same pattern, same value
   bits. *)
let check_sparse_bitwise what (a : Linalg.Sparse.t) (b : Linalg.Sparse.t) =
  Alcotest.(check (pair int int)) (what ^ ": dims") (Linalg.Sparse.dims a) (Linalg.Sparse.dims b);
  Alcotest.(check (array int)) (what ^ ": colptr") a.colptr b.colptr;
  Alcotest.(check (array int)) (what ^ ": rowind") a.rowind b.rowind;
  Array.iteri
    (fun k v ->
      if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float b.values.(k))) then
        Alcotest.failf "%s: entry %d differs: %.17g vs %.17g" what k v b.values.(k))
    a.values
