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
