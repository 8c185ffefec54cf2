(* Million-node scaling bench: streaming assembly + AMG mean-block
   preconditioning.

   For each grid size the MNA system is assembled through the streaming
   path (Grid_gen.stream_mna — CSC built directly from stamp emission,
   no triplet lists), then the mean conductance block is solved with
   AMG-preconditioned CG and, up to 2e5 nodes, IC(0)-preconditioned CG
   for contrast.  At the flagship size the AMG setup state is round-
   tripped through the v2 artifact store twice to show a warm replay is
   a mapped load, not a decode.  Writes BENCH_scale.json:

     { "host": { "domains": Domain.recommended_domain_count (),
                 "commit": short hash, or "unknown" outside a git checkout },
       "scale": { "sizes": [...],
         "records": [
           { "nodes": N, "assemble_s": ..., "stream_stamps": ...,
             "stream_nnz": ..., "stream_bytes": ..., "bytes_per_node": ...,
             "heap_mb": ... (major-heap words of one assembly),
             "solves": [
               { "precond": "amg"|"ic0", "setup_s": ..., "solve_s": ...,
                 "iters": ..., "stored_nnz": ... }, ... ] }, ... ],
         "replay": { "nodes": N, "map_hits": ..., "full_decodes": ... } },
       "metrics": { ... } }

   Every time is the best of --reps repetitions; beside each, a
   "<name>_slowest" field holds the slowest, so the spread shows.

   regenerated by `make bench-scale` (`make ci` runs --quick).  The
   bench *asserts* the scaling contracts — streaming-assembly
   scratch stays under 320 bytes/node at every size (the triplet path
   burns kilobytes per stamp in list cells), AMG-PCG iterations stay
   within 2x across a 10x size jump where IC(0) iterations keep
   climbing, AMG beats IC(0) on solve wall-clock at 1e5 nodes (the
   recurring cost — setup runs once per operator group and amortizes
   over the transient), every solve converges, and the warm artifact
   replay performs zero full decodes —
   so a scaling regression fails the target rather than just skewing
   the numbers.  Each record also times one block V-cycle on
   [block_columns] right-hand sides against as many one-column applies
   of the same kernel on the mean block ("block_vcycle": seconds per
   column and the computed bytes each form moves; the "single" fields
   are the one-column applies); the bench dies if any column of the
   block result differs from its one-column apply in one bit, and sets
   no timing bound. *)

let sizes = ref [ 10_000; 100_000; 1_000_000 ]
let quick = ref false
let reps = ref 1
let out_file = ref "BENCH_scale.json"
let cache_dir = ref "_bench_scale_cache"

(* IC(0) iteration counts grow with mesh diameter; past this size the
   contrast run costs minutes without adding information. *)
let ic0_cutoff = 200_000

(* Streaming-assembly scratch budget, bytes per node: ~11 stamps/node at
   16 bytes plus two column counters per of_stamps pass. *)
let bytes_per_node_bound = 320.0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("scale_bench: " ^ s); exit 1) fmt

(* One time over --reps repetitions: the best is the figure, the slowest
   shows the spread. *)
type timing = { best : float; slowest : float }

type solve = {
  precond : string;
  setup_s : timing;
  solve_s : timing;
  iters : int;
  stored_nnz : int;
}

type block = {
  block_s : timing;  (* per column, one block apply of [block_columns] *)
  single_s : timing;  (* per column, [block_columns] one-column applies *)
  block_bytes : float;
  single_bytes : float;
}

type record = {
  nodes : int;
  assemble_s : timing;
  stream_stamps : int;
  stream_nnz : int;
  stream_bytes : int;
  heap_mb : float;
  solves : solve list;
  block : block;
}

(* The chaos-block count of the paper's order-2, two-variable model. *)
let block_columns = 6

let best_of ?(prepare = ignore) f =
  let best = ref infinity and slowest = ref 0.0 and keep = ref None in
  for _ = 1 to Int.max 1 !reps do
    prepare ();
    let t0 = Util.Timer.start () in
    let r = f () in
    let elapsed = Util.Timer.elapsed_s t0 in
    slowest := Float.max !slowest elapsed;
    if elapsed < !best then begin
      best := elapsed;
      keep := Some r
    end
  done;
  (Option.get !keep, { best = !best; slowest = !slowest })

(* The recommended domain count and the commit the figures come from. *)
let host_json () =
  let commit =
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown")
  in
  Util.Json.Obj
    [
      ("domains", Util.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("commit", Util.Json.Str commit);
    ]

let run_solve ~label ~kind g b =
  let n = Array.length b in
  let precond, setup_s = best_of (fun () -> Linalg.Precond.make kind g) in
  let (x, stats), solve_s =
    best_of (fun () ->
        Linalg.Cg.solve
          ~precond:(Linalg.Precond.as_cg_preconditioner precond)
          ~tol:1e-8 ~max_iter:5000
          ~matvec:(Linalg.Sparse.mul_vec g)
          ~b ~x0:(Array.make n 0.0) ())
  in
  ignore x;
  if not stats.Linalg.Cg.converged then
    die "%d nodes: %s-pcg did not converge in %d iterations (residual %.3e)" n label
      stats.Linalg.Cg.iterations stats.Linalg.Cg.residual_norm;
  Printf.printf "  %s-pcg %4d iters  setup_s=%.3f solve_s=%.3f\n%!" label
    stats.Linalg.Cg.iterations setup_s.best solve_s.best;
  {
    precond = label;
    setup_s;
    solve_s;
    iters = stats.Linalg.Cg.iterations;
    stored_nnz = Linalg.Precond.stored_nnz precond;
  }

(* Computed bytes of one V(1,1)-cycle serving [k] columns: each level's
   operator is swept for the two residuals and each prolongator for the
   restriction and the prolongation (one stored float and one index per
   entry, counted here as the hierarchy's stored entries twice), plus
   about eight vector passes per level and column. *)
let vcycle_bytes amg ~k =
  let dims = Linalg.Amg.level_dims amg in
  float_of_int (Linalg.Amg.cycles amg)
  *. ((2.0 *. 16.0 *. float_of_int (Linalg.Amg.stored_nnz amg))
     +. (8.0 *. 8.0 *. float_of_int (k * List.fold_left ( + ) 0 dims)))

(* One block V-cycle on [block_columns] right-hand sides against as many
   one-column applies, on the mean block; every column must match
   bitwise. *)
let bench_block g =
  let n, _ = Linalg.Sparse.dims g in
  let k = block_columns in
  let amg = Linalg.Amg.build g in
  let src = Array.init (k * n) (fun i -> sin (float_of_int (i + 1))) in
  let dst = Array.make (k * n) 0.0 in
  let cols = Array.init k Fun.id in
  let bws = Linalg.Amg.create_block_ws amg ~k in
  let ws = Linalg.Amg.create_block_ws amg ~k:1 in
  let singles = Array.make (k * n) 0.0 in
  let (), block_s =
    best_of (fun () -> Linalg.Amg.apply_block amg bws ~src ~dst ~cols ~lo:0 ~hi:k)
  in
  let (), single_s =
    best_of (fun () ->
        for c = 0 to k - 1 do
          Linalg.Amg.apply_block amg ws ~src ~dst:singles ~cols ~lo:c ~hi:(c + 1)
        done)
  in
  for i = 0 to (k * n) - 1 do
    if Int64.bits_of_float dst.(i) <> Int64.bits_of_float singles.(i) then
      die "%d nodes: block V-cycle column %d differs from its one-column apply at row %d" n (i / n)
        (i mod n)
  done;
  let per t = { best = t.best /. float_of_int k; slowest = t.slowest /. float_of_int k } in
  Printf.printf "  block v-cycle x%d: %.3f ms/column vs %.3f ms/column single\n%!" k
    (1e3 *. (per block_s).best) (1e3 *. (per single_s).best);
  {
    block_s = per block_s;
    single_s = per single_s;
    block_bytes = vcycle_bytes amg ~k;
    single_bytes = float_of_int k *. vcycle_bytes amg ~k:1;
  }

let major_words () = (Gc.quick_stat ()).Gc.major_words

let bench_size n =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default n in
  (* A fresh registry per repetition: the stream counters are a
     per-assembly fact, not something to accumulate across reps.  So is
     the heap figure: the words one assembly puts in the major heap
     (promoted or allocated there directly), counted from a compacted
     heap, whose minor heap is empty — the growth the assembly asks of
     the major heap.  Neither earlier sizes nor earlier repetitions show
     in it; a heap-size delta would, since the runtime reuses the major
     memory they freed. *)
  let major = ref 0.0 in
  let (mna, metrics), assemble_s =
    best_of ~prepare:Gc.compact (fun () ->
        let w0 = major_words () in
        let metrics = Util.Metrics.create () in
        let mna = Powergrid.Grid_gen.stream_mna ~metrics spec in
        major := Float.max !major (major_words () -. w0);
        (mna, metrics))
  in
  let nodes = mna.Powergrid.Mna.n in
  let stream_stamps = Util.Metrics.counter metrics "sparse.stream_stamps" in
  let stream_nnz = Util.Metrics.counter metrics "sparse.stream_nnz" in
  let stream_bytes = int_of_float (Util.Metrics.total metrics "sparse.stream_peak_bytes") in
  let heap_mb = !major *. 8.0 /. 1048576.0 in
  Printf.printf "%d nodes: assemble_s=%.3f stamps=%d nnz=%d scratch=%.1f B/node heap=%.0f MB\n%!"
    nodes assemble_s.best stream_stamps stream_nnz
    (float_of_int stream_bytes /. float_of_int nodes)
    heap_mb;
  let bytes_per_node = float_of_int stream_bytes /. float_of_int nodes in
  if bytes_per_node > bytes_per_node_bound then
    die "%d nodes: streaming scratch %.0f B/node exceeds the %.0f B/node budget" nodes
      bytes_per_node bytes_per_node_bound;
  let g = Powergrid.Mna.g_total mna in
  let b = mna.Powergrid.Mna.u_pad in
  let solves =
    run_solve ~label:"amg" ~kind:Linalg.Precond.Amg g b
    :: (if nodes <= ic0_cutoff then [ run_solve ~label:"ic0" ~kind:Linalg.Precond.Ic0 g b ]
        else [])
  in
  let block = bench_block g in
  ({ nodes; assemble_s; stream_stamps; stream_nnz; stream_bytes; heap_mb; solves; block }, g)

let amg_of r =
  match List.find_opt (fun s -> s.precond = "amg") r.solves with
  | Some s -> s
  | None -> die "%d nodes: no amg solve recorded" r.nodes

(* Warm replay of the AMG setup artifact: the second lookup must be a
   mapped load of the stored hierarchy, not a decode of its bytes. *)
let bench_replay g nodes =
  let metrics = Util.Metrics.create () in
  let store = Scenario.Store.create ~metrics ~dir:(Some !cache_dir) () in
  let key = Scenario.Store.key_of_bytes (Printf.sprintf "scale-amg-%d" nodes) in
  let lookup () =
    Scenario.Store.find_or_build_sections store ~kind:Linalg.Amg.artifact_kind
      ~version:Linalg.Amg.artifact_version ~key ~encode:Linalg.Amg.to_frame
      ~decode:Linalg.Amg.of_frame_sections
      ~build:(fun () -> Linalg.Amg.build g)
  in
  let cold = lookup () in
  let _, warm = best_of (fun () -> lookup ()) in
  ignore cold;
  let map_hits = Util.Metrics.counter metrics "store.map_hits" in
  let full_decodes = Util.Metrics.counter metrics "store.full_decodes" in
  Printf.printf "replay %d nodes: warm_s=%.4f map_hits=%d full_decodes=%d\n%!" nodes warm.best
    map_hits full_decodes;
  if full_decodes > 0 then
    die "warm replay decoded %d artifact(s) instead of mapping them" full_decodes;
  if map_hits < 1 then die "warm replay never hit the mapped artifact";
  (map_hits, full_decodes)

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        sizes := [ 2_000; 10_000 ];
        parse rest
    | "--reps" :: v :: rest ->
        reps := int_of_string v;
        parse rest
    | "--out" :: v :: rest ->
        out_file := v;
        parse rest
    | "--cache-dir" :: v :: rest ->
        cache_dir := v;
        parse rest
    | arg :: _ ->
        Printf.eprintf "scale_bench: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let results = List.map bench_size !sizes in
  let records = List.map fst results in
  (* AMG-PCG iteration counts must stay roughly flat across the sweep
     while IC(0)'s climb with the mesh diameter. *)
  (match records with
  | first :: (_ :: _ as rest) ->
      let base = (amg_of first).iters in
      List.iter
        (fun r ->
          let it = (amg_of r).iters in
          if it > 2 * base then
            die "amg iterations not flat: %d at %d nodes vs %d at %d nodes" it r.nodes base
              first.nodes)
        rest
  | _ -> ());
  (* The recurring cost is the solve: setup runs once per operator
     group and amortizes over every transient step and chaos block, so
     the flagship contract is on solve wall-clock, not setup+solve. *)
  if not !quick then
    List.iter
      (fun r ->
        match List.find_opt (fun s -> s.precond = "ic0") r.solves with
        | Some ic0 when r.nodes >= 100_000 ->
            let amg = amg_of r in
            if amg.solve_s.best >= ic0.solve_s.best then
              die "%d nodes: amg solve (%.3fs) did not beat ic0 solve (%.3fs)" r.nodes
                amg.solve_s.best ic0.solve_s.best
        | _ -> ())
      records;
  (* Replay at the largest size that still ran both preconditioners —
     the flagship 1e5 grid on the full sweep. *)
  let replay_record, replay_g =
    List.fold_left
      (fun acc (r, g) -> if r.nodes <= ic0_cutoff then (r, g) else acc)
      (List.hd results) results
  in
  let map_hits, full_decodes = bench_replay replay_g replay_record.nodes in
  let num v = Util.Json.Num v in
  let timed name t = [ (name, num t.best); (name ^ "_slowest", num t.slowest) ] in
  let solve_json s =
    Util.Json.Obj
      ([ ("precond", Util.Json.Str s.precond) ]
      @ timed "setup_s" s.setup_s
      @ timed "solve_s" s.solve_s
      @ [
          ("iters", num (float_of_int s.iters));
          ("stored_nnz", num (float_of_int s.stored_nnz));
        ])
  in
  let record_json r =
    Util.Json.Obj
      ([ ("nodes", num (float_of_int r.nodes)) ]
      @ timed "assemble_s" r.assemble_s
      @ [
        ("stream_stamps", num (float_of_int r.stream_stamps));
        ("stream_nnz", num (float_of_int r.stream_nnz));
        ("stream_bytes", num (float_of_int r.stream_bytes));
        ("bytes_per_node", num (float_of_int r.stream_bytes /. float_of_int r.nodes));
        ("heap_mb", num r.heap_mb);
        ("solves", Util.Json.List (List.map solve_json r.solves));
        ( "block_vcycle",
          Util.Json.Obj
            ([ ("columns", num (float_of_int block_columns)) ]
            @ timed "block_s_per_column" r.block.block_s
            @ timed "single_s_per_column" r.block.single_s
            @ [
                ("block_bytes", num r.block.block_bytes);
                ("single_bytes", num r.block.single_bytes);
              ]) );
      ])
  in
  let metrics =
    match Util.Json.parse (Util.Metrics.to_json Util.Metrics.global) with
    | Ok j -> j
    | Error e -> die "metrics registry is not valid JSON: %s" e
  in
  let doc =
    Util.Json.Obj
      [
        ("host", host_json ());
        ( "scale",
          Util.Json.Obj
            [
              ("sizes", Util.Json.List (List.map (fun n -> num (float_of_int n)) !sizes));
              ("records", Util.Json.List (List.map record_json records));
              ( "replay",
                Util.Json.Obj
                  [
                    ("nodes", num (float_of_int replay_record.nodes));
                    ("map_hits", num (float_of_int map_hits));
                    ("full_decodes", num (float_of_int full_decodes));
                  ] );
            ] );
        ("metrics", metrics);
      ]
  in
  let oc = open_out !out_file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Util.Json.render doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" !out_file
