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
   dominant with random off-diagonal couplings. *)
let random_sparse_spd rng n ~extra_edges =
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  for i = 0 to n - 1 do
    Linalg.Sparse_builder.add b i i 1.0
  done;
  (* chain to keep it irreducible *)
  for i = 0 to n - 2 do
    let g = Prob.Rng.float_range rng 0.5 2.0 in
    Linalg.Sparse_builder.stamp_conductance b (Some i) (Some (i + 1)) g
  done;
  for _ = 1 to extra_edges do
    let i = Prob.Rng.int rng n and j = Prob.Rng.int rng n in
    if i <> j then begin
      let g = Prob.Rng.float_range rng 0.1 1.0 in
      Linalg.Sparse_builder.stamp_conductance b (Some i) (Some j) g
    end
  done;
  Linalg.Sparse_builder.to_csc b

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
