(* Sparse Cholesky, sparse LU, and the fill-reducing orderings. *)

let orderings = [ ("natural", Linalg.Ordering.Natural); ("rcm", Linalg.Ordering.Rcm);
                  ("mmd", Linalg.Ordering.Min_degree) ]

let test_perm_validity () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 30 ~extra_edges:40 in
  List.iter
    (fun (name, kind) ->
      let p = Linalg.Ordering.compute kind a in
      Alcotest.(check bool) (name ^ " is a permutation") true (Linalg.Perm.is_valid p))
    orderings

let test_perm_ops () =
  let p = [| 2; 0; 1 |] in
  Alcotest.(check bool) "valid" true (Linalg.Perm.is_valid p);
  let q = Linalg.Perm.inverse p in
  Alcotest.(check bool) "inverse valid" true (Linalg.Perm.is_valid q);
  let x = [| 10.0; 20.0; 30.0 |] in
  let y = Linalg.Perm.apply_vec p x in
  Helpers.check_vec "apply" [| 30.0; 10.0; 20.0 |] y;
  Helpers.check_vec "apply then inverse" x (Linalg.Perm.apply_inv_vec p y);
  Alcotest.(check bool) "invalid detected" false (Linalg.Perm.is_valid [| 0; 0; 2 |])

let test_rcm_reduces_bandwidth () =
  (* A path graph labeled adversarially: natural bandwidth is large. *)
  let n = 64 in
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  (* path 0 - 32 - 1 - 33 - 2 - ... interleaved labels *)
  let label i = if i mod 2 = 0 then i / 2 else (n / 2) + (i / 2) in
  for i = 0 to n - 2 do
    Linalg.Sparse_builder.stamp_conductance b (Some (label i)) (Some (label (i + 1))) 1.0
  done;
  let a = Linalg.Sparse_builder.to_csc b in
  let bandwidth p =
    let pinv = Linalg.Perm.inverse p in
    List.fold_left
      (fun acc (i, j, _) -> Int.max acc (abs (pinv.(i) - pinv.(j))))
      0 (Linalg.Sparse.to_triplets a)
  in
  let bw_nat = bandwidth (Linalg.Perm.identity n) in
  let bw_rcm = bandwidth (Linalg.Ordering.compute Linalg.Ordering.Rcm a) in
  Alcotest.(check bool)
    (Printf.sprintf "rcm bandwidth %d << natural %d" bw_rcm bw_nat)
    true (bw_rcm <= 2 && bw_nat > 10)

let test_min_degree_reduces_fill () =
  (* 2D mesh: min-degree should beat natural ordering on factor size. *)
  let k = 14 in
  let n = k * k in
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let here = (r * k) + c in
      Linalg.Sparse_builder.add b here here 0.1;
      if c + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + 1)) 1.0;
      if r + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + k)) 1.0
    done
  done;
  let a = Linalg.Sparse_builder.to_csc b in
  let nnz kind =
    Linalg.Sparse_cholesky.nnz_l (Linalg.Sparse_cholesky.factor ~ordering:kind a)
  in
  let nat = nnz Linalg.Ordering.Natural and mmd = nnz Linalg.Ordering.Min_degree in
  Alcotest.(check bool)
    (Printf.sprintf "min-degree fill %d < natural fill %d" mmd nat)
    true
    (mmd < nat)

let check_chol_solution ?(ordering = Linalg.Ordering.Min_degree) a =
  let rng = Helpers.rng () in
  let n, _ = Linalg.Sparse.dims a in
  let x_true = Helpers.random_vec rng n in
  let b = Linalg.Sparse.mul_vec a x_true in
  let f = Linalg.Sparse_cholesky.factor ~ordering a in
  let x = Linalg.Sparse_cholesky.solve f b in
  Alcotest.(check bool) "cholesky solution accurate" true
    (Linalg.Vec.rel_error x ~reference:x_true < 1e-9)

let test_sparse_cholesky_all_orderings () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 60 ~extra_edges:120 in
  List.iter (fun (_, kind) -> check_chol_solution ~ordering:kind a) orderings

let test_sparse_cholesky_matches_dense () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 25 ~extra_edges:40 in
  let b = Helpers.random_vec rng 25 in
  let x_sparse = Linalg.Sparse_cholesky.solve (Linalg.Sparse_cholesky.factor a) b in
  let x_dense = Linalg.Cholesky.solve (Linalg.Cholesky.factor (Linalg.Sparse.to_dense a)) b in
  Alcotest.(check bool) "matches dense cholesky" true
    (Linalg.Vec.approx_equal ~tol:1e-8 x_sparse x_dense)

let test_sparse_cholesky_rejects_indefinite () =
  let a =
    Linalg.Sparse.of_triplets ~nrows:2 ~ncols:2
      [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 2.0); (1, 1, 1.0) ]
  in
  Alcotest.(check bool) "indefinite raises" true
    (try
       ignore (Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Natural a);
       false
     with Linalg.Sparse_cholesky.Not_positive_definite _ -> true)

let test_sparse_cholesky_precomputed_perm () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 40 ~extra_edges:60 in
  let perm = Linalg.Ordering.compute Linalg.Ordering.Min_degree a in
  let b = Helpers.random_vec rng 40 in
  let x1 = Linalg.Sparse_cholesky.solve (Linalg.Sparse_cholesky.factor ~perm a) b in
  let x2 = Linalg.Sparse_cholesky.solve (Linalg.Sparse_cholesky.factor a) b in
  Alcotest.(check bool) "same solution via ?perm" true (Linalg.Vec.approx_equal ~tol:1e-9 x1 x2)

let test_solve_in_place () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 30 ~extra_edges:30 in
  let f = Linalg.Sparse_cholesky.factor a in
  let b = Helpers.random_vec rng 30 in
  let x = Linalg.Sparse_cholesky.solve f b in
  let b2 = Array.copy b in
  Linalg.Sparse_cholesky.solve_in_place_ws f ~work:(Array.make 30 0.0) b2;
  Helpers.check_vec ~eps:0.0 "in-place matches" x b2;
  Alcotest.check_raises "a short right-hand side names solve_in_place_ws"
    (Invalid_argument "Sparse_cholesky.solve_in_place_ws: dimension mismatch") (fun () ->
      Linalg.Sparse_cholesky.solve_in_place_ws f ~work:(Array.make 30 0.0) (Array.make 29 0.0));
  Alcotest.check_raises "a short workspace names solve_in_place_ws"
    (Invalid_argument "Sparse_cholesky.solve_in_place_ws: workspace dimension mismatch")
    (fun () -> Linalg.Sparse_cholesky.solve_in_place_ws f ~work:(Array.make 29 0.0) b2)

(* Words a factor's own arrays occupy, headers included: [p] and [lp]
   hold about n words each, [li] and [lx] nnz(L). *)
let own_words f =
  let n = Linalg.Sparse_cholesky.dim f and nnz = Linalg.Sparse_cholesky.nnz_l f in
  (n + 1) + (n + 2) + (nnz + 1) + (nnz + 1)

(* A factor is its permutation and the arrays of [L] under one record:
   no workspace of its own, and no solve leaves anything in it, however
   it is called — every workspace belongs to the caller. *)
let test_factor_holds_only_its_arrays () =
  let rng = Helpers.rng () in
  let n = 600 in
  let a = Helpers.random_sparse_spd rng n ~extra_edges:1200 in
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
  let e = Util.Codec.encoder () in
  Linalg.Sparse_cholesky.encode f e;
  let decoded =
    Linalg.Sparse_cholesky.decode (Util.Codec.decoder_of_string (Util.Codec.contents e))
  in
  let b = Helpers.random_vec rng n in
  let reference = Linalg.Sparse_cholesky.solve f b in
  let bitwise u v =
    Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) u v
  in
  List.iter
    (fun (what, g) ->
      let overhead () = Obj.reachable_words (Obj.repr g) - own_words g in
      let holds_its_arrays after =
        Alcotest.(check bool) (what ^ ": holds only its arrays " ^ after) true (overhead () <= 16)
      in
      let solved how x =
        Alcotest.(check bool) (what ^ ": " ^ how ^ " is bitwise the reference") true
          (bitwise reference x);
        holds_its_arrays ("after " ^ how)
      in
      holds_its_arrays "before any solve";
      solved "solve" (Linalg.Sparse_cholesky.solve g b);
      let work = Array.make n 0.0 in
      let in_place ?domains () =
        let x = Array.copy b in
        Linalg.Sparse_cholesky.solve_in_place_ws g ?domains ~work x;
        x
      in
      solved "solve_in_place_ws" (in_place ());
      solved "solve_in_place_ws ~domains:2" (in_place ~domains:2 ());
      let k = 3 in
      let src = Array.concat (List.init k (fun _ -> b)) and dst = Array.make (k * n) 0.0 in
      let bwork = Array.make (Linalg.Sparse_cholesky.block_work_dim g ~k) 0.0 in
      Linalg.Sparse_cholesky.solve_block_ws g ~work:bwork ~cols:(Array.init k Fun.id) ~lo:0 ~hi:k
        ~src ~dst;
      for c = 0 to k - 1 do
        solved (Printf.sprintf "solve_block_ws column %d" c) (Array.sub dst (c * n) n)
      done;
      let p = Linalg.Precond.of_factor g in
      let ws = Linalg.Precond.create_ws p in
      let applied ?domains () =
        let x = Array.copy b in
        Linalg.Precond.apply_in_place p ws ?domains x;
        x
      in
      solved "Precond.apply_in_place" (applied ());
      solved "Precond.apply_in_place ~domains:2" (applied ~domains:2 ()))
    [ ("fresh", f); ("decoded", decoded) ]

(* ---- the factor is bitwise its reference ------------------------------

   [factor]'s column update runs unrolled and unchecked; every case here
   compares its encoded factor with {!Helpers.reference_cholesky_bytes},
   the checked one-entry-at-a-time loop it replaced. *)

let encoded f =
  let e = Util.Codec.encoder () in
  Linalg.Sparse_cholesky.encode f e;
  Util.Codec.contents e

let check_bitwise what ?ordering ?perm a =
  let got = encoded (Linalg.Sparse_cholesky.factor ?ordering ?perm a) in
  let want = Helpers.reference_cholesky_bytes ?ordering ?perm a in
  if not (String.equal want got) then
    Alcotest.failf "%s: factor differs from the reference (%d vs %d bytes, digests %s vs %s)"
      what (String.length got) (String.length want)
      (Digest.to_hex (Digest.string got))
      (Digest.to_hex (Digest.string want));
  got

(* Strict-lower entry counts of [L]'s columns, read back from the
   encoded factor. *)
let column_lengths bytes =
  let d = Util.Codec.decoder_of_string bytes in
  let n = Util.Codec.read_int d in
  ignore (Util.Codec.read_int_array d);
  let lp = Util.Codec.read_int_array d in
  Array.init n (fun j -> lp.(j + 1) - lp.(j) - 1)

let test_factor_bitwise_random () =
  let rng = Helpers.rng () in
  let tails = Array.make 4 false and unrolled = ref false in
  List.iter
    (fun (n, extra_edges) ->
      let a = Helpers.random_sparse_spd rng n ~extra_edges in
      List.iter
        (fun (name, ordering) ->
          let bytes =
            check_bitwise (Printf.sprintf "random n=%d +%d edges, %s" n extra_edges name)
              ~ordering a
          in
          Array.iter
            (fun len ->
              tails.(len mod 4) <- true;
              if len >= 8 then unrolled := true)
            (column_lengths bytes))
        (orderings @ [ ("nd", Linalg.Ordering.Nested_dissection) ]))
    [ (1, 0); (2, 1); (3, 3); (5, 4); (9, 20); (17, 40); (30, 60); (60, 300); (150, 1200) ];
  Alcotest.(check (array bool)) "column lengths end at every remainder mod 4"
    [| true; true; true; true |] tails;
  Alcotest.(check bool) "some column runs the unrolled body twice" true !unrolled

let test_factor_bitwise_grids () =
  List.iter
    (fun nodes ->
      let a = Helpers.grid_g nodes in
      List.iter
        (fun (name, ordering) ->
          ignore (check_bitwise (Printf.sprintf "%d-node grid, %s" nodes name) ~ordering a))
        [ ("nd", Linalg.Ordering.Nested_dissection); ("mmd", Linalg.Ordering.Min_degree) ])
    [ 600; 3_000 ]

(* The augmented operators the direct route factors, under the block
   ordering the engine gives them, and one st point's stepping matrix. *)
let test_factor_bitwise_augmented () =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 150 in
  let circuit = Powergrid.Grid_gen.generate spec in
  let h = 125e-12 in
  List.iter
    (fun order ->
      let model =
        Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default
          ~vdd:spec.Powergrid.Grid_spec.vdd circuit
      in
      let perm = Opera.Galerkin.block_ordering model in
      let gt = Opera.Galerkin.assemble_g model in
      let mt = Linalg.Sparse.axpy ~alpha:(1.0 /. h) (Opera.Galerkin.assemble_c model) gt in
      ignore (check_bitwise (Printf.sprintf "Gt, order %d" order) ~perm gt);
      ignore (check_bitwise (Printf.sprintf "Gt + Ct/h, order %d" order) ~perm mt);
      if order = 2 then begin
        let points = Opera.St_solver.select_points model.Opera.Stochastic_model.basis in
        let perm =
          Linalg.Ordering.compute Linalg.Ordering.Nested_dissection
            (Opera.Stochastic_model.node_pattern model)
        in
        ignore
          (check_bitwise "st point 0 stepping matrix" ~perm
             (Opera.St_solver.step_matrix model points 0 ~h))
      end)
    [ 1; 2; 3 ]

(* An indefinite matrix fails at the same pivot as the reference: once
   through a negative diagonal entry, once through a matrix whose
   diagonal is positive but whose couplings outweigh it. *)
let test_factor_indefinite_same_pivot () =
  let rng = Helpers.rng () in
  let n = 80 in
  let a = Helpers.random_sparse_spd rng n ~extra_edges:300 in
  let pivot f =
    match f () with
    | _ -> Alcotest.fail "indefinite matrix factored"
    | exception Linalg.Sparse_cholesky.Not_positive_definite k -> k
  in
  let d = Linalg.Sparse.diag a in
  let negative_diag =
    Linalg.Sparse.add a
      (Linalg.Sparse.of_triplets ~nrows:n ~ncols:n [ (n / 2, n / 2, -.d.(n / 2) -. 1.0) ])
  in
  let strong_coupling =
    Linalg.Sparse.of_triplets ~nrows:n ~ncols:n
      (List.map
         (fun (i, j, v) -> if i = j then (i, j, v) else (i, j, 3.0 *. v))
         (Linalg.Sparse.to_triplets a))
  in
  List.iter
    (fun (what, m) ->
      List.iter
        (fun (name, ordering) ->
          let want =
            pivot (fun () -> ignore (Helpers.reference_cholesky_bytes ~ordering m))
          in
          let got = pivot (fun () -> ignore (Linalg.Sparse_cholesky.factor ~ordering m)) in
          Alcotest.(check int) (Printf.sprintf "%s, %s: pivot" what name) want got;
          Alcotest.(check bool) (Printf.sprintf "%s, %s: past the first pivot" what name) true
            (got > 0))
        orderings)
    [ ("negative diagonal", negative_diag); ("strong coupling", strong_coupling) ]

let test_sparse_lu_random () =
  let rng = Helpers.rng () in
  for _ = 1 to 5 do
    let n = 30 in
    (* General non-symmetric matrix: SPD base plus asymmetric noise. *)
    let base = Helpers.random_sparse_spd rng n ~extra_edges:40 in
    let noise =
      Linalg.Sparse.of_triplets ~nrows:n ~ncols:n
        (List.init 20 (fun _ ->
             (Prob.Rng.int rng n, Prob.Rng.int rng n, Prob.Rng.float_range rng (-0.3) 0.3)))
    in
    let a = Linalg.Sparse.add base noise in
    let x_true = Helpers.random_vec rng n in
    let b = Linalg.Sparse.mul_vec a x_true in
    let f = Linalg.Sparse_lu.factor a in
    let x = Linalg.Sparse_lu.solve f b in
    Alcotest.(check bool) "sparse lu accurate" true
      (Linalg.Vec.rel_error x ~reference:x_true < 1e-8)
  done

let test_sparse_lu_matches_dense () =
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 20 ~extra_edges:25 in
  let b = Helpers.random_vec rng 20 in
  let x_sparse = Linalg.Sparse_lu.solve (Linalg.Sparse_lu.factor a) b in
  let x_dense = Linalg.Lu.solve (Linalg.Lu.factor (Linalg.Sparse.to_dense a)) b in
  Alcotest.(check bool) "matches dense lu" true
    (Linalg.Vec.approx_equal ~tol:1e-8 x_sparse x_dense)

let test_sparse_lu_needs_pivoting () =
  (* Zero diagonal forces row exchanges. *)
  let a =
    Linalg.Sparse.of_triplets ~nrows:3 ~ncols:3
      [ (0, 1, 1.0); (1, 0, 2.0); (1, 2, 1.0); (2, 1, 1.0); (2, 2, 3.0); (0, 0, 0.0) ]
  in
  let b = [| 1.0; 2.0; 3.0 |] in
  let x = Linalg.Sparse_lu.solve (Linalg.Sparse_lu.factor ~ordering:Linalg.Ordering.Natural a) b in
  let r = Linalg.Vec.sub (Linalg.Sparse.mul_vec a x) b in
  Alcotest.(check bool) "pivoted solve works" true (Linalg.Vec.norm2 r < 1e-10)

let test_sparse_lu_singular () =
  let a = Linalg.Sparse.of_triplets ~nrows:2 ~ncols:2 [ (0, 0, 1.0); (1, 0, 1.0) ] in
  Alcotest.(check bool) "singular raises" true
    (try
       ignore (Linalg.Sparse_lu.factor a);
       false
     with Linalg.Sparse_lu.Singular _ -> true)

let prop_chol_mesh =
  Helpers.qcheck_case ~count:20 "cholesky solves mesh systems" QCheck.(int_range 3 9)
    (fun k ->
      let n = k * k in
      let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
      for r = 0 to k - 1 do
        for c = 0 to k - 1 do
          let here = (r * k) + c in
          Linalg.Sparse_builder.add b here here 0.05;
          if c + 1 < k then
            Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + 1)) 1.0;
          if r + 1 < k then
            Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + k)) 1.0
        done
      done;
      let a = Linalg.Sparse_builder.to_csc b in
      let rng = Helpers.rng () in
      let x_true = Helpers.random_vec rng n in
      let rhs = Linalg.Sparse.mul_vec a x_true in
      let x = Linalg.Sparse_cholesky.solve (Linalg.Sparse_cholesky.factor a) rhs in
      Linalg.Vec.rel_error x ~reference:x_true < 1e-8)

let suite =
  [
    Alcotest.test_case "orderings are permutations" `Quick test_perm_validity;
    Alcotest.test_case "perm operations" `Quick test_perm_ops;
    Alcotest.test_case "rcm reduces bandwidth" `Quick test_rcm_reduces_bandwidth;
    Alcotest.test_case "min-degree reduces fill" `Quick test_min_degree_reduces_fill;
    Alcotest.test_case "cholesky under all orderings" `Quick test_sparse_cholesky_all_orderings;
    Alcotest.test_case "cholesky matches dense" `Quick test_sparse_cholesky_matches_dense;
    Alcotest.test_case "cholesky rejects indefinite" `Quick test_sparse_cholesky_rejects_indefinite;
    Alcotest.test_case "cholesky precomputed perm" `Quick test_sparse_cholesky_precomputed_perm;
    Alcotest.test_case "solve in place" `Quick test_solve_in_place;
    Alcotest.test_case "a factor holds only its arrays" `Quick test_factor_holds_only_its_arrays;
    Alcotest.test_case "factor is bitwise its reference: random SPD" `Quick
      test_factor_bitwise_random;
    Alcotest.test_case "factor is bitwise its reference: grids" `Quick test_factor_bitwise_grids;
    Alcotest.test_case "factor is bitwise its reference: augmented and st" `Quick
      test_factor_bitwise_augmented;
    Alcotest.test_case "indefinite matrix fails at the reference's pivot" `Quick
      test_factor_indefinite_same_pivot;
    Alcotest.test_case "sparse lu random" `Quick test_sparse_lu_random;
    Alcotest.test_case "sparse lu matches dense" `Quick test_sparse_lu_matches_dense;
    Alcotest.test_case "sparse lu pivoting" `Quick test_sparse_lu_needs_pivoting;
    Alcotest.test_case "sparse lu singular" `Quick test_sparse_lu_singular;
    prop_chol_mesh;
  ]

let test_orderings_on_disconnected_graph () =
  (* Two components: every ordering must handle the disconnect. *)
  let b = Linalg.Sparse_builder.create ~nrows:10 ~ncols:10 () in
  for i = 0 to 9 do
    Linalg.Sparse_builder.add b i i 2.0
  done;
  for i = 0 to 3 do
    Linalg.Sparse_builder.stamp_conductance b (Some i) (Some (i + 1)) 1.0
  done;
  for i = 6 to 8 do
    Linalg.Sparse_builder.stamp_conductance b (Some i) (Some (i + 1)) 1.0
  done;
  let a = Linalg.Sparse_builder.to_csc b in
  List.iter
    (fun kind ->
      let p = Linalg.Ordering.compute kind a in
      Alcotest.(check bool) "valid permutation" true (Linalg.Perm.is_valid p);
      let rng = Helpers.rng () in
      let x_true = Helpers.random_vec rng 10 in
      let rhs = Linalg.Sparse.mul_vec a x_true in
      let x = Linalg.Sparse_cholesky.solve (Linalg.Sparse_cholesky.factor ~perm:p a) rhs in
      Alcotest.(check bool) "solves" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-9))
    [ Linalg.Ordering.Rcm; Linalg.Ordering.Min_degree; Linalg.Ordering.Nested_dissection ]

let test_lu_on_indefinite_full_mna () =
  (* The full MNA of an inductor circuit is symmetric indefinite; the LU
     path must solve it where Cholesky necessarily fails. *)
  let text = "V1 a 0 1.0 RS=0.5\nL1 a b 2n\nR1 b 0 1\nI1 b 0 0.1\n.end\n" in
  let c = (Powergrid.Netlist.parse_string text).Powergrid.Netlist.circuit in
  let sys = Powergrid.Mna.Full.assemble c in
  Alcotest.(check bool) "cholesky rejects" true
    (try
       ignore (Linalg.Sparse_cholesky.factor sys.Powergrid.Mna.Full.a);
       false
     with Linalg.Sparse_cholesky.Not_positive_definite _ -> true);
  let x = Linalg.Sparse_lu.solve (Linalg.Sparse_lu.factor sys.Powergrid.Mna.Full.a)
      (sys.Powergrid.Mna.Full.rhs 0.0)
  in
  let r =
    Linalg.Vec.sub (Linalg.Sparse.mul_vec sys.Powergrid.Mna.Full.a x) (sys.Powergrid.Mna.Full.rhs 0.0)
  in
  Alcotest.(check bool) "lu residual small" true (Linalg.Vec.norm2 r < 1e-10)

let suite =
  suite
  @ [
      Alcotest.test_case "orderings on disconnected graphs" `Quick test_orderings_on_disconnected_graph;
      Alcotest.test_case "lu on indefinite full mna" `Quick test_lu_on_indefinite_full_mna;
    ]
