(* Multi-vector kernels: the block forms of the triangular solve, the
   sparse product, the AMG V-cycle and the preconditioner apply.

   The contract under test: every column of a block result equals the
   single-vector kernel on that column bit for bit, for any block width
   (k = 1 .. 16, which crosses every panel split), any selection and
   order of columns, in place or not, on random SPD matrices, generated
   grids and factors or hierarchies that went through the codec; the
   columns outside the selection are untouched; and the callers that
   split columns across domains give the same bits at 1, 2 and 4
   domains. *)

let bits v = Int64.bits_of_float v

let check_same what ~expected ~actual =
  Array.iteri
    (fun i v ->
      if bits v <> bits actual.(i) then
        Alcotest.failf "%s: entry %d differs: %.17g vs %.17g" what i v actual.(i))
    expected

(* A column selection of width [k] out of [total] columns, in a scrambled
   order, so panels never see contiguous or ascending columns only. *)
let scrambled_cols ~total k = Array.init k (fun c -> ((c * 7) + 3) mod total)

let widths = List.init 16 (fun i -> i + 1)

let total = 17 (* columns in the block vectors; 7 is coprime to it *)

(* [single b] solves or multiplies one column in place; the block form
   runs on the selected columns of [src] into [dst] ([dst == src] when
   [in_place]).  Unselected columns of [dst] must keep their bits. *)
let check_block ~what ~n ~single ~block ~in_place =
  let rng = Helpers.rng () in
  List.iter
    (fun k ->
      let cols = scrambled_cols ~total k in
      let src = Helpers.random_vec rng (total * n) in
      let dst = if in_place then src else Helpers.random_vec rng (total * n) in
      let expected = Array.copy dst in
      Array.iter
        (fun c ->
          let col = Array.sub src (c * n) n in
          single col;
          Array.blit col 0 expected (c * n) n)
        cols;
      block ~src ~dst ~cols ~lo:0 ~hi:k;
      check_same (Printf.sprintf "%s, k = %d" what k) ~expected ~actual:dst)
    widths

let roundtrip_factor f =
  let enc = Util.Codec.encoder () in
  Linalg.Sparse_cholesky.encode f enc;
  Linalg.Sparse_cholesky.decode (Util.Codec.decoder_of_string (Util.Codec.contents enc))

let test_triangular_block () =
  let rng = Helpers.rng () in
  let cases =
    [
      ("random SPD", Helpers.random_sparse_spd rng 120 ~extra_edges:240);
      ("generated grid", Helpers.grid_g 1_200);
    ]
  in
  List.iter
    (fun (name, a) ->
      let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
      List.iter
        (fun (how, f) ->
          let n = Linalg.Sparse_cholesky.dim f in
          let single_work = Array.make n 0.0 in
          let single b = Linalg.Sparse_cholesky.solve_in_place_ws f ~work:single_work b in
          let work = Array.make (Linalg.Sparse_cholesky.block_work_dim f ~k:16) 0.0 in
          let block ~src ~dst ~cols ~lo ~hi =
            Linalg.Sparse_cholesky.solve_block_ws f ~work ~cols ~lo ~hi ~src ~dst
          in
          List.iter
            (fun in_place ->
              check_block ~n ~single ~block ~in_place
                ~what:
                  (Printf.sprintf "%s (%s%s)" name how (if in_place then ", in place" else "")))
            [ true; false ])
        [ ("fresh factor", f); ("decoded factor", roundtrip_factor f) ])
    cases;
  (* A workspace below the block's width is refused, not overrun. *)
  let f = Linalg.Sparse_cholesky.factor (Helpers.grid_g 200) in
  let n = Linalg.Sparse_cholesky.dim f in
  let v = Array.make (2 * n) 1.0 in
  match
    Linalg.Sparse_cholesky.solve_block_ws f ~work:(Array.make n 0.0) ~cols:[| 0; 1 |] ~lo:0 ~hi:2
      ~src:v ~dst:v
  with
  | () -> Alcotest.fail "a one-column workspace served two columns"
  | exception Invalid_argument _ -> ()

let test_product_block () =
  let rng = Helpers.rng () in
  (* y starts from its own values, x is another block; exact zeros in x
     exercise the per-column skip. *)
  List.iter
    (fun (name, a) ->
      let n, _ = Linalg.Sparse.dims a in
      List.iter
        (fun k ->
          let cols = scrambled_cols ~total k in
          let x = Helpers.random_vec rng (total * n) in
          (* exact zeros: every third entry of the first selected
             column, and one whole column *)
          for i = 0 to n - 1 do
            if i mod 3 = 0 then x.((cols.(0) * n) + i) <- 0.0;
            if k > 1 then x.((cols.(k - 1) * n) + i) <- 0.0
          done;
          let y = Helpers.random_vec rng (total * n) in
          let expected = Array.copy y in
          Array.iter
            (fun c ->
              let yc = Array.sub y (c * n) n in
              Linalg.Sparse.mul_vec_acc ~alpha:(-0.75) a (Array.sub x (c * n) n) yc;
              Array.blit yc 0 expected (c * n) n)
            cols;
          Linalg.Sparse.mul_block_acc ~alpha:(-0.75) a ~x ~y ~cols ~lo:0 ~hi:k;
          check_same (Printf.sprintf "%s, k = %d" name k) ~expected ~actual:y)
        widths)
    [
      ("random SPD", Helpers.random_sparse_spd rng 90 ~extra_edges:200);
      ("generated grid", Helpers.grid_g 1_200);
    ]

let test_vcycle_block () =
  let rng = Helpers.rng () in
  let cases =
    [
      ("generated grid", Linalg.Amg.build (Helpers.grid_g 2_000));
      ("two cycles", Linalg.Amg.build ~cycles:2 (Helpers.grid_g 1_200));
      ("random SPD", Linalg.Amg.build (Helpers.random_sparse_spd rng 300 ~extra_edges:600));
      ("coarsest only", Linalg.Amg.build (Helpers.random_sparse_spd rng 40 ~extra_edges:60));
    ]
  in
  let cases =
    cases @ [ ("mapped hierarchy", fst (Test_amg.roundtrip ~map:true (snd (List.hd cases)))) ]
  in
  List.iter
    (fun (name, t) ->
      let n = Linalg.Amg.dim t in
      let ws = Linalg.Amg.create_block_ws t ~k:1 in
      let single b = Linalg.Amg.apply_block t ws ~src:b ~dst:b ~cols:[| 0 |] ~lo:0 ~hi:1 in
      let bws = Linalg.Amg.create_block_ws t ~k:16 in
      let block ~src ~dst ~cols ~lo ~hi = Linalg.Amg.apply_block t bws ~src ~dst ~cols ~lo ~hi in
      List.iter
        (fun in_place ->
          check_block ~n ~single ~block ~in_place
            ~what:(Printf.sprintf "%s%s" name (if in_place then ", in place" else "")))
        [ true; false ])
    cases;
  let t = snd (List.hd cases) in
  let n = Linalg.Amg.dim t in
  let v = Array.make (3 * n) 1.0 in
  match
    Linalg.Amg.apply_block t (Linalg.Amg.create_block_ws t ~k:2) ~src:v ~dst:v
      ~cols:[| 0; 1; 2 |] ~lo:0 ~hi:3
  with
  | () -> Alcotest.fail "a two-column workspace served three columns"
  | exception Invalid_argument _ -> ()

let test_precond_block () =
  let a = Helpers.grid_g 1_500 in
  let n, _ = Linalg.Sparse.dims a in
  List.iter
    (fun kind ->
      let p = Linalg.Precond.make kind a in
      let ws = Linalg.Precond.create_ws p in
      let single b = Linalg.Precond.apply_in_place p ws b in
      let bws = Linalg.Precond.create_block_ws p ~k:16 in
      let block ~src ~dst ~cols ~lo ~hi =
        Linalg.Precond.apply_block p bws ~src ~dst ~cols ~lo ~hi
      in
      List.iter
        (fun in_place ->
          check_block ~n ~single ~block ~in_place
            ~what:(Linalg.Precond.to_string kind ^ if in_place then ", in place" else ""))
        [ true; false ])
    [ Linalg.Precond.Cholesky; Linalg.Precond.Ic0; Linalg.Precond.Amg ]

(* --- callers at 1, 2 and 4 domains ---------------------------------- *)

let check_responses what r1 rd =
  let n = r1.Opera.Response.n and steps = r1.Opera.Response.steps in
  for step = 0 to steps do
    for node = 0 to n - 1 do
      let m1 = Opera.Response.mean_at r1 ~step ~node
      and md = Opera.Response.mean_at rd ~step ~node in
      let v1 = Opera.Response.std_at r1 ~step ~node and vd = Opera.Response.std_at rd ~step ~node in
      if bits m1 <> bits md || bits v1 <> bits vd then
        Alcotest.failf "%s: step %d node %d differs (%.17g vs %.17g)" what step node m1 md
    done
  done

let test_callers_across_domains () =
  (* Real worker domains claim the column chunks. *)
  Helpers.with_pool_cap (Some 3) (fun () ->
      let circuit = Powergrid.Grid_gen.generate Helpers.small_grid_spec in
      let m = Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd:1.2 circuit in
      let h = 0.25e-9 and steps = 4 in
      List.iter
        (fun precond ->
          let pname = Linalg.Precond.to_string precond in
          (* the mean-block preconditioner (pcg, matrix-free), the
             matrix-free matvec and the st lockstep *)
          List.iter
            (fun (route, solver) ->
              let solve domains =
                let options =
                  { Opera.Galerkin.default_options with Opera.Galerkin.solver; domains; precond }
                in
                fst (Opera.Galerkin.solve_transient ~options m ~h ~steps)
              in
              let r1 = solve 1 in
              List.iter
                (fun d ->
                  check_responses (Printf.sprintf "%s/%s at %d domains" route pname d) r1 (solve d))
                [ 2; 4 ])
            [
              ("pcg", Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 });
              ("matrix-free", Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 });
              ("st", Opera.Galerkin.default_st);
            ])
        [ Linalg.Precond.Cholesky; Linalg.Precond.Amg ];
      let spec =
        { Helpers.small_grid_spec with Powergrid.Grid_spec.regions_x = 2; regions_y = 2 }
      in
      let circuit = Powergrid.Grid_gen.generate spec in
      let leaks =
        Array.init
          (spec.Powergrid.Grid_spec.rows * spec.Powergrid.Grid_spec.cols)
          (fun node -> (node, Powergrid.Grid_gen.region_of_node spec node, 5e-6))
      in
      let sc = Opera.Special_case.make ~order:2 ~regions:4 ~lambda:0.5 ~leaks ~vdd:1.2 circuit in
      let solve domains = fst (Opera.Special_case.solve ~domains sc ~h ~steps ~probes:[||]) in
      let r1 = solve 1 in
      List.iter
        (fun d -> check_responses (Printf.sprintf "special case at %d domains" d) r1 (solve d))
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "triangular block solve = single solves" `Quick test_triangular_block;
    Alcotest.test_case "block product = single products" `Quick test_product_block;
    Alcotest.test_case "block V-cycle = single applies" `Quick test_vcycle_block;
    Alcotest.test_case "precond block apply = single applies" `Quick test_precond_block;
    Alcotest.test_case "block callers bitwise at 1, 2 and 4 domains" `Quick
      test_callers_across_domains;
  ]
