(* The transient hot path: warm-started PCG stepping must agree with
   cold starts while spending fewer iterations (at least 30% fewer on a
   500-node order-3 run), the in-place CG variant must reproduce the
   allocating one operation-for-operation, the persistent pool must be
   reused across dispatches and survive exceptions, the kernels
   documented as allocation-free must allocate nothing, and codec and
   store I/O must keep their allocation bounds. *)

let exact_vec what expected actual =
  (* Structural equality on float arrays: the in-place contract is
     bitwise identity, not closeness. *)
  Alcotest.(check bool) (what ^ " (bitwise equal)") true (expected = actual) (* opera-lint: exact *)

(* --- warm-started transient stepping --------------------------------- *)

let transient ?(spec = Helpers.small_grid_spec) ?(order = 2) ?(steps = 12) ~warm_start () =
  let circuit = Powergrid.Grid_gen.generate spec in
  let model =
    Opera.Stochastic_model.build ~order Opera.Varmodel.paper_default
      ~vdd:spec.Powergrid.Grid_spec.vdd circuit
  in
  let options =
    {
      Opera.Galerkin.default_options with
      Opera.Galerkin.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 2000 };
      probes = [| Powergrid.Grid_gen.center_node spec |];
      policy = Opera.Galerkin.Fail;
      warm_start;
    }
  in
  Opera.Galerkin.solve_transient ~options model ~h:125e-12 ~steps

let test_warm_start_fewer_iterations () =
  let r_cold, s_cold = transient ~warm_start:false () in
  let r_warm, s_warm = transient ~warm_start:true () in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d pcg iterations" s_warm.Opera.Galerkin.pcg_iterations
       s_cold.Opera.Galerkin.pcg_iterations)
    true
    (s_warm.Opera.Galerkin.pcg_iterations < s_cold.Opera.Galerkin.pcg_iterations);
  (* Same converged answer within solver tolerance: warm starting moves
     only the starting iterate, never the convergence test. *)
  let drift = ref 0.0 in
  Array.iteri
    (fun i m -> drift := Float.max !drift (Float.abs (m -. r_cold.Opera.Response.mean.(i))))
    r_warm.Opera.Response.mean;
  Alcotest.(check bool)
    (Printf.sprintf "mean drift %.3e within tolerance" !drift)
    true (!drift < 1e-6);
  (* On a longer order-3 transient the extrapolated start saves at
     least 30% of the iterations. *)
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 500 in
  let iterations ~warm_start =
    (snd (transient ~spec ~order:3 ~steps:24 ~warm_start ())).Opera.Galerkin.pcg_iterations
  in
  let cold = iterations ~warm_start:false and warm = iterations ~warm_start:true in
  Alcotest.(check bool)
    (Printf.sprintf "500 nodes, order 3: warm %d <= 70%% of cold %d pcg iterations" warm cold)
    true
    (10 * warm <= 7 * cold)

(* --- in-place CG ------------------------------------------------------ *)

let test_cg_in_place_bitwise () =
  let rng = Helpers.rng () in
  let n = 50 in
  let a = Helpers.random_sparse_spd rng n ~extra_edges:80 in
  let b = Helpers.random_vec rng n in
  let matvec = Linalg.Sparse.mul_vec a in
  let precond = Linalg.Cg.jacobi a in
  let x0 = Helpers.random_vec rng n in
  let x_ref, rep_ref = Linalg.Cg.solve_report ~precond ~tol:1e-12 ~matvec ~b ~x0 () in
  let ws = Linalg.Cg.workspace_create n in
  let x = Array.copy x0 in
  let rep = Linalg.Cg.solve_report_in_place ~precond ~tol:1e-12 ~ws ~matvec ~b ~x () in
  exact_vec "in-place CG solution" x_ref x;
  Alcotest.(check int) "same iteration count" rep_ref.Linalg.Solve_report.iterations
    rep.Linalg.Solve_report.iterations;
  Alcotest.(check bool) "converged" true rep.Linalg.Solve_report.converged;
  (* Workspace reuse: a second solve through the same scratch is
     unaffected by the first one's leftovers. *)
  let x2 = Array.copy x0 in
  let _ = Linalg.Cg.solve_report_in_place ~precond ~tol:1e-12 ~ws ~matvec ~b ~x:x2 () in
  exact_vec "workspace reuse" x_ref x2

(* --- persistent pool --------------------------------------------------- *)

let test_pool_reuse_and_determinism () =
  Helpers.with_pool_cap (Some 2) (fun () ->
      let n = 1000 in
      let out = Array.make n 0.0 in
      let body ~chunk:_ ~lo ~hi =
        for i = lo to hi - 1 do
          out.(i) <- out.(i) +. float_of_int i
        done
      in
      (* First dispatch creates the pool... *)
      Util.Parallel.for_chunks ~domains:3 n body;
      Alcotest.(check int) "pool holds 2 workers" 2 (Util.Parallel.pool_workers ());
      let d0 = Util.Parallel.pool_dispatches () in
      (* ...and later dispatches reuse it: the counter grows by exactly
         one per call, with no per-call domain churn to observe. *)
      for _ = 1 to 10 do
        Util.Parallel.for_chunks ~domains:3 n body
      done;
      Alcotest.(check int) "10 more dispatches through the same pool" (d0 + 10)
        (Util.Parallel.pool_dispatches ());
      (* Every index was touched exactly once per dispatch, regardless of
         which domain claimed its chunk. *)
      Array.iteri
        (fun i v ->
          if v <> float_of_int (11 * i) (* opera-lint: exact *) then
            Alcotest.failf "index %d ran %g times, expected 11" i (v /. Float.max 1.0 (float_of_int i)))
        out)

let test_pool_exception_safety () =
  Helpers.with_pool_cap (Some 2) (fun () ->
      let raised =
        try
          Util.Parallel.for_chunks ~domains:4 8 (fun ~chunk ~lo:_ ~hi:_ ->
              failwith (Printf.sprintf "chunk %d failed" chunk));
          None
        with Failure msg -> Some msg
      in
      (* All chunks raise; the barrier re-raises the lowest-numbered
         chunk's exception deterministically. *)
      Alcotest.(check (option string)) "lowest chunk's exception wins" (Some "chunk 0 failed")
        raised;
      (* The pool survives: the next dispatch runs normally. *)
      let hits = Array.make 4 0 in
      Util.Parallel.for_chunks ~domains:4 4 (fun ~chunk:_ ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d after failure" i) 1 h)
        hits)

(* --- allocation discipline ------------------------------------------------

   The kernels documented as allocation-free must stay so in the build
   users run: the default profile compiles with -opaque, where a
   cross-module helper taking a float boxes its argument on every call. *)

(* Minor words one call of [f] allocates, net of the measurement itself;
   one warm-up call first. *)
let words_per_call f =
  let calls = 8 in
  f ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  let w2 = Gc.minor_words () in
  (w2 -. w1 -. (w1 -. w0)) /. float_of_int calls

let test_kernels_allocate_nothing () =
  let a = Helpers.grid_g 2_500 in
  let n = fst (Linalg.Sparse.dims a) in
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng n in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let zero what f = Helpers.check_float ~eps:0.0 (what ^ ": words per call") 0.0 (words_per_call f) in
  let amg = Linalg.Amg.build a in
  List.iter
    (fun kind ->
      let p = Linalg.Precond.make kind a in
      let ws = Linalg.Precond.create_ws p in
      zero
        ("Precond.apply_in_place " ^ Linalg.Precond.to_string kind)
        (fun () ->
          Array.blit b 0 x 0 n;
          Linalg.Precond.apply_in_place p ws x))
    [ Linalg.Precond.Amg; Linalg.Precond.Cholesky; Linalg.Precond.Ic0 ];
  zero "Sparse.mul_vec_acc" (fun () -> Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) a b y);
  zero "Sparse.mul_vec_into" (fun () -> Linalg.Sparse.mul_vec_into a b y);
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
  let work = Array.make n 0.0 in
  zero "Sparse_cholesky.solve_in_place_ws" (fun () ->
      Array.blit b 0 x 0 n;
      Linalg.Sparse_cholesky.solve_in_place_ws f ~work x);
  (* The block kernels, at widths that take every panel shape. *)
  let k = 15 in
  let cols = Array.init k Fun.id in
  let src = Array.init (k * n) (fun i -> b.(i mod n)) and dst = Array.make (k * n) 0.0 in
  let bwork = Array.make (Linalg.Sparse_cholesky.block_work_dim f ~k) 0.0 in
  let amg_bws = Linalg.Amg.create_block_ws amg ~k in
  List.iter
    (fun hi ->
      let at what = Printf.sprintf "%s (%d columns)" what hi in
      zero (at "Sparse_cholesky.solve_block_ws") (fun () ->
          Linalg.Sparse_cholesky.solve_block_ws f ~work:bwork ~cols ~lo:0 ~hi ~src ~dst);
      zero (at "Sparse.mul_block_acc") (fun () ->
          Linalg.Sparse.mul_block_acc ~alpha:(-1.0) a ~x:src ~y:dst ~cols ~lo:0 ~hi);
      zero (at "Amg.apply_block") (fun () ->
          Linalg.Amg.apply_block amg amg_bws ~src ~dst ~cols ~lo:0 ~hi))
    [ 1; 2; 3; 4; 5; 6; k ];
  List.iter
    (fun kind ->
      let p = Linalg.Precond.make kind a in
      let bws = Linalg.Precond.create_block_ws p ~k in
      zero
        ("Precond.apply_block " ^ Linalg.Precond.to_string kind)
        (fun () -> Linalg.Precond.apply_block p bws ~src ~dst ~cols ~lo:0 ~hi:k))
    [ Linalg.Precond.Amg; Linalg.Precond.Cholesky; Linalg.Precond.Ic0 ]

(* Bulk arrays cross the codec in one loop per array: no closure and no
   boxed [int64] per element, so a call allocates a few words whatever
   the array's length (the arrays themselves are major-heap blocks). *)
let test_codec_bulk_allocation () =
  let n = 100_000 in
  let fa = Array.init n (fun i -> sin (float_of_int i)) and ia = Array.init n (fun i -> i - 7) in
  let size = (16 * n) + 16 in
  let bounded what words =
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words per call" what words) true
      (words < 64.0)
  in
  bounded "encode 100k floats + 100k ints"
    (words_per_call (fun () ->
         let e = Util.Codec.encoder ~initial_size:size () in
         Util.Codec.write_float_array e fa;
         Util.Codec.write_int_array e ia));
  let e = Util.Codec.encoder ~initial_size:size () in
  Util.Codec.write_float_array e fa;
  Util.Codec.write_int_array e ia;
  let bytes = Util.Codec.contents e in
  bounded "decode 100k floats + 100k ints"
    (words_per_call (fun () ->
         let d = Util.Codec.decoder_of_string bytes in
         ignore (Util.Codec.read_float_array d);
         ignore (Util.Codec.read_int_array d)))

(* A store miss streams its artifact to disk: what it allocates stays
   below the payload's own size (no encoder buffer grown to the payload,
   no copy of the whole frame). *)
let test_store_miss_allocation () =
  let dir =
    let marker = Filename.temp_file "opera_hot_store" "" in
    Sys.remove marker;
    marker ^ ".d"
  in
  let store = Scenario.Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some dir) () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let payload = Array.init 1_000_000 (fun i -> float_of_int i *. 0.25) in
      let miss key =
        Scenario.Store.find_or_build store ~kind:"hot" ~version:1 ~key
          ~encode:(fun v e -> Util.Codec.write_float_array e v)
          ~decode:Util.Codec.read_float_array
          ~build:(fun () -> payload)
      in
      ignore (miss "warm-up");
      let a0 = Gc.allocated_bytes () in
      ignore (miss "measured");
      let allocated = Gc.allocated_bytes () -. a0 in
      let payload_bytes = float_of_int (8 * Array.length payload) in
      Alcotest.(check int) "both were misses" 2 (Scenario.Store.stats store).Scenario.Store.misses;
      Alcotest.(check bool)
        (Printf.sprintf "miss allocates %.2f MB for a %.2f MB payload" (allocated /. 1e6)
           (payload_bytes /. 1e6))
        true (allocated < payload_bytes))

let test_galerkin_op_allocation_flat_in_n () =
  (* Per-application bookkeeping (the metrics span, the per-term
     [~alpha]) is fine; anything per node is not. *)
  let words nodes =
    let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
    let m =
      Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default ~vdd:1.2
        (Powergrid.Grid_gen.generate spec)
    in
    let op = Opera.Galerkin_op.gt ~domains:1 m in
    let d = Opera.Galerkin_op.dim op in
    let x = Array.init d (fun i -> float_of_int (i mod 5)) and y = Array.make d 0.0 in
    words_per_call (fun () -> Opera.Galerkin_op.apply_into op x y)
  in
  let small = words 400 and large = words 4_000 in
  Alcotest.(check bool)
    (Printf.sprintf "words per apply %.0f at 4k nodes <= %.0f at 400" large small)
    true (large <= small)

let suite =
  [
    Alcotest.test_case "warm start saves pcg iterations" `Quick test_warm_start_fewer_iterations;
    Alcotest.test_case "in-place cg bitwise equals allocating cg" `Quick test_cg_in_place_bitwise;
    Alcotest.test_case "pool reuse is deterministic" `Quick test_pool_reuse_and_determinism;
    Alcotest.test_case "pool survives chunk exceptions" `Quick test_pool_exception_safety;
    Alcotest.test_case "allocation-free kernels allocate nothing" `Quick
      test_kernels_allocate_nothing;
    Alcotest.test_case "galerkin matvec allocation is flat in n" `Quick
      test_galerkin_op_allocation_flat_in_n;
    Alcotest.test_case "codec bulk arrays allocate O(1) words" `Quick test_codec_bulk_allocation;
    Alcotest.test_case "store miss allocates below its payload" `Quick test_store_miss_allocation;
  ]
