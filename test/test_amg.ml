(* Amg as a first-class preconditioner: deterministic setup/apply, PCG
   equivalence through Precond, v-cycle convergence on generated meshes
   (stationary and as a CG preconditioner), and the v2 section codec
   (roundtrip, damaged prolongator, stale version, mapped store
   replay). *)

let mesh_matrix k =
  let n = k * k in
  let b = Linalg.Sparse_builder.create ~nrows:n ~ncols:n () in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      let here = (r * k) + c in
      Linalg.Sparse_builder.add b here here 0.02;
      if c + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + 1)) 1.0;
      if r + 1 < k then Linalg.Sparse_builder.stamp_conductance b (Some here) (Some (here + k)) 1.0
    done
  done;
  Linalg.Sparse_builder.to_csc b

let check_bitwise what x y =
  Array.iteri
    (fun i v ->
      if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float y.(i))) then
        Alcotest.failf "%s: differs at %d: %.17g vs %.17g" what i v y.(i))
    x

(* A single vector is the one-column block. *)
let one_column = [| 0 |]

let create_ws amg = Linalg.Amg.create_block_ws amg ~k:1

let apply_one amg w ~b ~x =
  Linalg.Amg.apply_block amg w ~src:b ~dst:x ~cols:one_column ~lo:0 ~hi:1

(* --- apply: reusable workspace, bitwise repeatable -------------------- *)

let test_apply_deterministic () =
  let a = mesh_matrix 24 in
  let n = 24 * 24 in
  let amg = Linalg.Amg.build a in
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng n in
  let apply () =
    let w = create_ws amg in
    let x = Array.make n 0.0 in
    apply_one amg w ~b ~x;
    x
  in
  let x1 = apply () and x2 = apply () in
  check_bitwise "fresh workspaces agree" x1 x2;
  (* A reused workspace must not leak state between applies. *)
  let w = create_ws amg in
  let x3 = Array.make n 0.0 and x4 = Array.make n 0.0 in
  apply_one amg w ~b ~x:x3;
  apply_one amg w ~b ~x:x4;
  check_bitwise "reused workspace agrees" x1 x3;
  check_bitwise "second reuse agrees" x1 x4

let test_apply_dim_mismatch () =
  let amg = Linalg.Amg.build (mesh_matrix 8) in
  let w = create_ws amg in
  Alcotest.(check bool) "wrong b rejected" true
    (try
       apply_one amg w ~b:(Array.make 7 0.0) ~x:(Array.make 64 0.0);
       false
     with Invalid_argument _ -> true);
  let other = Linalg.Amg.build (mesh_matrix 6) in
  Alcotest.(check bool) "foreign workspace rejected" true
    (try
       apply_one amg (create_ws other) ~b:(Array.make 64 0.0) ~x:(Array.make 64 0.0);
       false
     with Invalid_argument _ -> true)

(* --- Precond backend equivalence --------------------------------------- *)

let test_precond_matches_amg_apply () =
  let a = mesh_matrix 20 in
  let n = 20 * 20 in
  let p = Linalg.Precond.make Linalg.Precond.Amg a in
  Alcotest.(check bool) "backend resolved" true (Linalg.Precond.backend p = Linalg.Precond.Amg);
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng n in
  let amg = Linalg.Amg.build a in
  let expect = Array.make n 0.0 in
  apply_one amg (create_ws amg) ~b ~x:expect;
  let got = Array.copy b in
  Linalg.Precond.apply_in_place p (Linalg.Precond.create_ws p) got;
  check_bitwise "Precond(Amg) = Amg one-column apply" expect got

let test_precond_exact_matches_cholesky () =
  let a = mesh_matrix 12 in
  let n = 12 * 12 in
  let rng = Helpers.rng () in
  let b = Helpers.random_vec rng n in
  let p = Linalg.Precond.make Linalg.Precond.Cholesky a in
  let got = Array.copy b in
  Linalg.Precond.apply_in_place p (Linalg.Precond.create_ws p) got;
  let f = Linalg.Sparse_cholesky.factor ~ordering:Linalg.Ordering.Nested_dissection a in
  check_bitwise "Precond(Cholesky) = factor solve" (Linalg.Sparse_cholesky.solve f b) got

let test_precond_kind_vocabulary () =
  List.iter
    (fun k ->
      match Linalg.Precond.of_string (Linalg.Precond.to_string k) with
      | Some k' -> Alcotest.(check bool) (Linalg.Precond.to_string k ^ " roundtrips") true (k = k')
      | None -> Alcotest.failf "kind %s does not parse back" (Linalg.Precond.to_string k))
    Linalg.Precond.all;
  Alcotest.(check bool) "junk rejected" true (Linalg.Precond.of_string "ilu" = None);
  Alcotest.(check bool) "auto resolves small to cholesky" true
    (Linalg.Precond.resolve Linalg.Precond.Auto ~n:100 = Linalg.Precond.Cholesky);
  Alcotest.(check bool) "auto resolves large to amg" true
    (Linalg.Precond.resolve Linalg.Precond.Auto ~n:(Linalg.Precond.auto_threshold + 1)
    = Linalg.Precond.Amg);
  Alcotest.(check bool) "explicit kinds resolve to themselves" true
    (Linalg.Precond.resolve Linalg.Precond.Ic0 ~n:5 = Linalg.Precond.Ic0)

let test_pcg_with_amg_precond () =
  let a = mesh_matrix 32 in
  let n = 32 * 32 in
  let rng = Helpers.rng () in
  let x_true = Helpers.random_vec rng n in
  let b = Linalg.Sparse.mul_vec a x_true in
  let _, plain = Linalg.Cg.solve_sparse ~tol:1e-10 a b in
  let p = Linalg.Precond.make Linalg.Precond.Amg a in
  let x, stats =
    Linalg.Cg.solve_sparse ~precond:(Linalg.Precond.as_cg_preconditioner p) ~tol:1e-10 a b
  in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  Alcotest.(check bool) "accurate" true (Linalg.Vec.rel_error x ~reference:x_true < 1e-7);
  Alcotest.(check bool)
    (Printf.sprintf "amg-pcg %d iters < plain %d" stats.Linalg.Cg.iterations
       plain.Linalg.Cg.iterations)
    true
    (stats.Linalg.Cg.iterations < plain.Linalg.Cg.iterations)

(* --- scaling: flat iteration counts on generated grids ----------------- *)

let pcg_iters a =
  let n = fst (Linalg.Sparse.dims a) in
  let b = Array.make n 1e-3 in
  let p = Linalg.Precond.make Linalg.Precond.Amg a in
  let _, stats =
    Linalg.Cg.solve_sparse ~precond:(Linalg.Precond.as_cg_preconditioner p) ~tol:1e-9 a b
  in
  Alcotest.(check bool) "converged" true stats.Linalg.Cg.converged;
  stats.Linalg.Cg.iterations

let test_vcycle_convergence_10k () =
  let a = Helpers.grid_g 10_000 in
  let n = fst (Linalg.Sparse.dims a) in
  Alcotest.(check bool) "mesh is 10^4-node class" true (n >= 9_000);
  let small = pcg_iters (Helpers.grid_g 2_500) in
  let large = pcg_iters a in
  (* The multigrid promise: iterations stay roughly flat as n quadruples. *)
  Alcotest.(check bool)
    (Printf.sprintf "iters %d at 10k <= 2x iters %d at 2.5k" large small)
    true
    (large <= 2 * small)

(* One V-cycle must contract the error on its own: stationary sweeps
   reach 1e-10 within 100, the ST refinement cap — a check on the
   prolongator independent of CG. *)
let test_stationary_vcycle_converges_10k () =
  let a = Helpers.grid_g 10_000 in
  let n = fst (Linalg.Sparse.dims a) in
  let amg = Linalg.Amg.build a in
  let w = create_ws amg in
  let b = Array.init n (fun i -> 1e-3 *. (1.0 +. float_of_int (i mod 7))) in
  let x = Array.make n 0.0 and r = Array.make n 0.0 and z = Array.make n 0.0 in
  let bnorm = Linalg.Vec.norm2 b in
  let rel () =
    Array.blit b 0 r 0 n;
    Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) a x r;
    Linalg.Vec.norm2 r /. bnorm
  in
  let sweeps = ref 0 in
  while rel () > 1e-10 && !sweeps < 100 do
    apply_one amg w ~b:r ~x:z;
    Linalg.Vec.axpy ~alpha:1.0 z x;
    incr sweeps
  done;
  let final = rel () in
  Alcotest.(check bool)
    (Printf.sprintf "relative residual %.2e after %d sweeps reaches 1e-10" final !sweeps)
    true (final <= 1e-10)

let test_pcg_iterations_10k () =
  (* 13 measured at this tolerance; the bound leaves room for rounding
     drift, not for a weaker hierarchy. *)
  let iters = pcg_iters (Helpers.grid_g 10_000) in
  Alcotest.(check bool) (Printf.sprintf "amg-pcg %d iterations <= 20" iters) true (iters <= 20)

(* --- v2 section codec --------------------------------------------------- *)

let frame_of amg =
  let meta, sections = Linalg.Amg.to_frame amg in
  Util.Codec.frame_v2 ~kind:Linalg.Amg.artifact_kind ~version:Linalg.Amg.artifact_version ~meta
    ~sections

let check_same_apply what amg amg' b =
  let n = Array.length b in
  let x = Array.make n 0.0 and x' = Array.make n 0.0 in
  apply_one amg (create_ws amg) ~b ~x;
  apply_one amg' (create_ws amg') ~b ~x:x';
  check_bitwise what x x'

let roundtrip ~map amg =
  let dir = Filename.temp_file "opera-amg" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "amg.opra" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      Util.Codec.write_file file (frame_of amg);
      match
        Util.Codec.read_frame_v2 ~map ~kind:Linalg.Amg.artifact_kind
          ~version:Linalg.Amg.artifact_version file
      with
      | None -> Alcotest.fail "artifact unreadable"
      | Some (d, sections) ->
          let amg' = Linalg.Amg.of_frame_sections d sections in
          (amg', Util.Codec.sections_mapped sections))

let test_codec_roundtrip_copying () =
  let a = mesh_matrix 18 in
  let amg = Linalg.Amg.build a in
  let amg', mapped = roundtrip ~map:false amg in
  Alcotest.(check bool) "copying load" false mapped;
  Alcotest.(check int) "levels survive" (Linalg.Amg.levels amg) (Linalg.Amg.levels amg');
  Alcotest.(check int) "dim survives" (Linalg.Amg.dim amg) (Linalg.Amg.dim amg');
  let rng = Helpers.rng () in
  check_same_apply "decoded hierarchy applies bitwise" amg amg'
    (Helpers.random_vec rng (18 * 18))

let test_codec_roundtrip_mapped () =
  let a = mesh_matrix 18 in
  let amg = Linalg.Amg.build a in
  let amg', mapped = roundtrip ~map:true amg in
  if not mapped then
    (* Foreign host (big-endian or 32-bit): the fallback already ran. *)
    Alcotest.(check pass) "mapping unavailable on this host" () ()
  else begin
    let rng = Helpers.rng () in
    check_same_apply "mapped hierarchy applies bitwise" amg amg'
      (Helpers.random_vec rng (18 * 18))
  end

let test_codec_rejects_truncation () =
  let amg = Linalg.Amg.build (mesh_matrix 10) in
  let bytes = frame_of amg in
  let file = Filename.temp_file "opera-amg" ".opra" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Util.Codec.write_file file (String.sub bytes 0 (String.length bytes - 9));
      Alcotest.(check bool) "truncated frame rejected" true
        (try
           ignore
             (Util.Codec.read_frame_v2 ~kind:Linalg.Amg.artifact_kind
                ~version:Linalg.Amg.artifact_version file);
           false
         with Util.Codec.Corrupt _ -> true))

(* Level 0's prolongator sections follow its four operator sections. *)
let prolongator_rowind_section = 5

let test_codec_rejects_bad_prolongator () =
  let amg = Linalg.Amg.build (mesh_matrix 10) in
  let meta, sections = Linalg.Amg.to_frame amg in
  let damaged =
    List.mapi
      (fun i sec ->
        match sec with
        | Util.Codec.I_big rows when i = prolongator_rowind_section ->
            let rows' = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Bigarray.Array1.dim rows) in
            Bigarray.Array1.blit rows rows';
            Bigarray.Array1.set rows' 0 (Linalg.Amg.dim amg);
            Util.Codec.I_big rows'
        | sec -> sec)
      sections
  in
  let file = Filename.temp_file "opera-amg" ".opra" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Util.Codec.write_file file
        (Util.Codec.frame_v2 ~kind:Linalg.Amg.artifact_kind ~version:Linalg.Amg.artifact_version
           ~meta ~sections:damaged);
      match
        Util.Codec.read_frame_v2 ~kind:Linalg.Amg.artifact_kind
          ~version:Linalg.Amg.artifact_version file
      with
      | None -> Alcotest.fail "artifact unreadable"
      | Some (d, s) ->
          Alcotest.(check bool) "out-of-range prolongator row rejected" true
            (try
               ignore (Linalg.Amg.of_frame_sections d s);
               false
             with Util.Codec.Corrupt _ -> true))

let with_store_dir f =
  let dir = Filename.temp_file "opera-amg-store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let store_key = "0123456789abcdef"

let fetch_amg store ~builds a =
  Scenario.Store.find_or_build_sections store ~kind:Linalg.Amg.artifact_kind
    ~version:Linalg.Amg.artifact_version ~key:store_key ~encode:Linalg.Amg.to_frame
    ~decode:Linalg.Amg.of_frame_sections ~build:(fun () ->
      incr builds;
      Linalg.Amg.build a)

let test_store_rebuilds_version_1 () =
  (* A version-1 artifact (aggregate maps, no prolongators) must be
     rebuilt, never handed to the decoder. *)
  let a = mesh_matrix 16 in
  with_store_dir (fun dir ->
      let metrics = Util.Metrics.create () in
      let store = Scenario.Store.create ~metrics ~dir:(Some dir) () in
      let file =
        match Scenario.Store.path store ~kind:Linalg.Amg.artifact_kind ~key:store_key with
        | Some f -> f
        | None -> Alcotest.fail "store has no directory"
      in
      let meta, sections = Linalg.Amg.to_frame (Linalg.Amg.build a) in
      Util.Codec.write_file file
        (Util.Codec.frame_v2 ~kind:Linalg.Amg.artifact_kind ~version:1 ~meta ~sections);
      let builds = ref 0 in
      let rebuilt = fetch_amg store ~builds a in
      Alcotest.(check int) "version-1 artifact rebuilt" 1 !builds;
      Alcotest.(check int) "never a hit" 0 (Util.Metrics.counter metrics "store.hits");
      let again = fetch_amg store ~builds a in
      Alcotest.(check int) "the rewritten artifact is reused" 1 !builds;
      let rng = Helpers.rng () in
      check_same_apply "rebuilt hierarchy applies bitwise" rebuilt again
        (Helpers.random_vec rng (16 * 16)))

let test_store_mapped_replay () =
  let a = mesh_matrix 16 in
  let n = 16 * 16 in
  with_store_dir (fun dir ->
      let metrics = Util.Metrics.create () in
      let store = Scenario.Store.create ~metrics ~dir:(Some dir) () in
      let builds = ref 0 in
      let cold = fetch_amg store ~builds a in
      let warm = fetch_amg store ~builds a in
      Alcotest.(check int) "one build" 1 !builds;
      let count k = Util.Metrics.counter metrics k in
      Alcotest.(check int) "one hit" 1 (count "store.hits");
      Alcotest.(check int) "no decode of the whole artifact on a mappable host"
        (if count "store.map_hits" = 1 then 0 else 1)
        (count "store.full_decodes");
      let rng = Helpers.rng () in
      check_same_apply "replayed hierarchy applies bitwise" cold warm (Helpers.random_vec rng n))

let suite =
  [
    Alcotest.test_case "apply is bitwise deterministic across workspaces" `Quick
      test_apply_deterministic;
    Alcotest.test_case "apply validates dimensions and workspaces" `Quick test_apply_dim_mismatch;
    Alcotest.test_case "Precond amg backend = Amg.apply" `Quick test_precond_matches_amg_apply;
    Alcotest.test_case "Precond cholesky backend = factor solve" `Quick
      test_precond_exact_matches_cholesky;
    Alcotest.test_case "precond kind vocabulary and auto resolution" `Quick
      test_precond_kind_vocabulary;
    Alcotest.test_case "amg-preconditioned CG beats plain CG" `Quick test_pcg_with_amg_precond;
    Alcotest.test_case "iterations stay flat from 2.5k to 10k nodes" `Slow
      test_vcycle_convergence_10k;
    Alcotest.test_case "stationary V-cycles reach 1e-10 on 10k nodes" `Slow
      test_stationary_vcycle_converges_10k;
    Alcotest.test_case "amg-pcg needs at most 20 iterations on 10k nodes" `Slow
      test_pcg_iterations_10k;
    Alcotest.test_case "v2 codec roundtrip (copying)" `Quick test_codec_roundtrip_copying;
    Alcotest.test_case "v2 codec roundtrip (mapped)" `Quick test_codec_roundtrip_mapped;
    Alcotest.test_case "v2 codec rejects truncation" `Quick test_codec_rejects_truncation;
    Alcotest.test_case "v2 codec rejects a damaged prolongator" `Quick
      test_codec_rejects_bad_prolongator;
    Alcotest.test_case "store rebuilds a version-1 hierarchy" `Quick test_store_rebuilds_version_1;
    Alcotest.test_case "store replay of the hierarchy is mapped and bitwise" `Quick
      test_store_mapped_replay;
  ]
