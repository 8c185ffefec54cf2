(* The transient hot path: level-scheduled triangular solves must be
   bitwise identical to the sequential sweeps, warm-started PCG stepping
   must agree with cold starts while spending strictly fewer iterations,
   the in-place CG variant must reproduce the allocating one
   operation-for-operation, and the persistent pool must be reused
   across dispatches and survive exceptions. *)

let exact_vec what expected actual =
  (* Structural equality on float arrays: the level-scheduled contract
     is bitwise identity, not closeness. *)
  Alcotest.(check bool) (what ^ " (bitwise equal)") true (expected = actual) (* opera-lint: exact *)

(* Restore the pool to its hardware default no matter how a test body
   exits; forced caps must not leak into unrelated suites. *)
let with_pool_cap cap f =
  Util.Parallel.set_pool_cap cap;
  Fun.protect ~finally:(fun () -> Util.Parallel.set_pool_cap None) f

(* --- level-scheduled triangular solves ------------------------------- *)

let solve_with f ~domains b =
  let work = Array.make (Linalg.Sparse_cholesky.dim f) 0.0 in
  let x = Array.copy b in
  Linalg.Sparse_cholesky.solve_in_place_ws f ~domains ~work x;
  x

let check_level_solve_matches ~name a =
  let rng = Helpers.rng () in
  let n, _ = Linalg.Sparse.dims a in
  List.iter
    (fun ordering ->
      let f = Linalg.Sparse_cholesky.factor ~ordering a in
      let b = Helpers.random_vec rng n in
      let x_seq = solve_with f ~domains:1 b in
      List.iter
        (fun domains ->
          exact_vec
            (Printf.sprintf "%s: domains=%d matches sequential" name domains)
            x_seq
            (solve_with f ~domains b))
        [ 2; 4 ];
      (* sanity: it actually solves the system *)
      let r = Linalg.Vec.sub (Linalg.Sparse.mul_vec a x_seq) b in
      Alcotest.(check bool) (name ^ ": residual small") true
        (Linalg.Vec.norm2 r /. Linalg.Vec.norm2 b < 1e-9))
    [ Linalg.Ordering.Natural; Linalg.Ordering.Min_degree; Linalg.Ordering.Nested_dissection ]

let test_level_solve_bitwise () =
  let rng = Helpers.rng () in
  (* Small and irregular: exercises the pure level path. *)
  check_level_solve_matches ~name:"random-60" (Helpers.random_sparse_spd rng 60 ~extra_edges:90);
  (* Mesh-like and big enough that fill-reducing orders leave a long
     narrow forward suffix, exercising the serial-tail hybrid. *)
  let k = 18 in
  let n = k * k in
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let here = (r * k) + c in
      Linalg.Sparse_builder.add b here here 0.05;
      if c + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + 1)) 1.0;
      if r + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + k)) 1.0
    done
  done;
  check_level_solve_matches ~name:"mesh-324" (Linalg.Sparse_builder.to_csc b)

let test_level_solve_with_forced_workers () =
  (* Same bitwise contract, but with real worker domains claiming the
     chunks rather than the inline single-core shortcut. *)
  with_pool_cap (Some 2) (fun () ->
      let rng = Helpers.rng () in
      check_level_solve_matches ~name:"forced-workers"
        (Helpers.random_sparse_spd rng 120 ~extra_edges:240))

let test_level_solve_survives_codec_roundtrip () =
  (* decode rebuilds the level schedule from the CSC arrays; the rebuilt
     factor must solve bitwise identically at every domain count. *)
  let rng = Helpers.rng () in
  let a = Helpers.random_sparse_spd rng 80 ~extra_edges:160 in
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
  let enc = Util.Codec.encoder () in
  Linalg.Sparse_cholesky.encode f enc;
  let f' = Linalg.Sparse_cholesky.decode (Util.Codec.decoder_of_string (Util.Codec.contents enc)) in
  let b = Helpers.random_vec rng 80 in
  exact_vec "decoded factor, sequential" (solve_with f ~domains:1 b) (solve_with f' ~domains:1 b);
  exact_vec "decoded factor, level-scheduled" (solve_with f ~domains:1 b)
    (solve_with f' ~domains:4 b)

(* --- warm-started transient stepping --------------------------------- *)

let transient ~warm_start =
  let spec = Helpers.small_grid_spec in
  let circuit = Powergrid.Grid_gen.generate spec in
  let model =
    Opera.Stochastic_model.build ~order:2 Opera.Varmodel.paper_default
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
  Opera.Galerkin.solve_transient ~options model ~h:125e-12 ~steps:12

let test_warm_start_fewer_iterations () =
  let r_cold, s_cold = transient ~warm_start:false in
  let r_warm, s_warm = transient ~warm_start:true in
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
    true (!drift < 1e-6)

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
  with_pool_cap (Some 2) (fun () ->
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
  with_pool_cap (Some 2) (fun () ->
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
  let amg_ws = Linalg.Amg.create_ws amg in
  zero "Amg.apply" (fun () -> Linalg.Amg.apply amg amg_ws ~b ~x);
  List.iter
    (fun kind ->
      let p = Linalg.Precond.make kind a in
      let ws = Linalg.Precond.create_ws p in
      zero
        ("Precond.apply_in_place " ^ Linalg.Precond.to_string kind)
        (fun () ->
          Array.blit b 0 x 0 n;
          Linalg.Precond.apply_in_place p ws x))
    [ Linalg.Precond.Amg; Linalg.Precond.Cholesky ];
  zero "Sparse.mul_vec_acc" (fun () -> Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) a b y);
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
  let work = Array.make n 0.0 in
  zero "Sparse_cholesky.solve_in_place_ws" (fun () ->
      Array.blit b 0 x 0 n;
      Linalg.Sparse_cholesky.solve_in_place_ws f ~work x)

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
    Alcotest.test_case "level solve bitwise equals sequential" `Quick test_level_solve_bitwise;
    Alcotest.test_case "level solve with forced worker domains" `Quick
      test_level_solve_with_forced_workers;
    Alcotest.test_case "level solve survives codec roundtrip" `Quick
      test_level_solve_survives_codec_roundtrip;
    Alcotest.test_case "warm start saves pcg iterations" `Quick test_warm_start_fewer_iterations;
    Alcotest.test_case "in-place cg bitwise equals allocating cg" `Quick test_cg_in_place_bitwise;
    Alcotest.test_case "pool reuse is deterministic" `Quick test_pool_reuse_and_determinism;
    Alcotest.test_case "pool survives chunk exceptions" `Quick test_pool_exception_safety;
    Alcotest.test_case "allocation-free kernels allocate nothing" `Quick
      test_kernels_allocate_nothing;
    Alcotest.test_case "galerkin matvec allocation is flat in n" `Quick
      test_galerkin_op_allocation_flat_in_n;
  ]
