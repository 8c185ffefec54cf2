(* Batch-engine throughput + crash-safety bench.

   Runs one mixed batch (transient excitation corners sharing a single
   Galerkin operator, plus special-case leakage corners sharing one
   deterministic factor pair) four times against one artifact store:

     cold   jobs_parallel=1   (factors built and written)
     warm   jobs_parallel=1   (factors read back, zero factorizations)
     warm   jobs_parallel=2
     warm   jobs_parallel=4

   plus a cold run at jobs_parallel=2 and at 4, each on its own fresh
   store, where domains build factors concurrently with each other and
   with jobs: each must stream the cold run's JSONL and factor exactly
   as often as it,

   then exercises the crash-safety machinery on fresh stores:

     resume      kill the batch mid-stream (the emit callback raises
                 after KILL_AFTER records), then rerun with --resume
                 semantics: the replayed+executed stream must be
                 byte-identical to the uninterrupted one, with zero
                 factorizations (everything was cached before the kill)
     shard-i/2   run shards 0/2 and 1/2 against one shared store: the
                 two streams must partition the cold stream exactly
                 (every job once, nothing twice) and together factor no
                 more than one cold run does

   and writes BENCH_batch.json:

     { "batch": { "jobs": J, "groups": G, "runs": [
         { "label": "cold", "jobs_parallel": 1, "factorizations": F,
           "cache_hits": H, "cache_misses": M, "replayed": P,
           "journaled": W, "elapsed_s": S, "jobs_per_s": R }, ... ] },
       "metrics": { ... } }

   validated by validate_metrics.exe (the `make bench-batch` target,
   and `make ci` in --quick mode).  Every guarantee above is asserted,
   so a caching/journaling regression fails the target rather than just
   skewing the numbers. *)

let nodes = ref 600
let steps = ref 6
let out_file = ref "BENCH_batch.json"

let transient_job name drain_scale =
  {
    Scenario.Job.name;
    source = Scenario.Job.Generated { nodes = !nodes };
    analysis = Scenario.Job.Transient;
    order = 2;
    h = 125e-12;
    steps = !steps;
    solver = Opera.Galerkin.Direct;
    policy = Opera.Galerkin.Warn;
    sigma_scale = 1.0;
    drain_scale;
    leak_scale = 1.0;
    probe = None;
  }

let special_job name leak_scale =
  {
    (transient_job name 1.0) with
    Scenario.Job.analysis = Scenario.Job.Special { regions = 4; lambda = 0.5 };
    leak_scale;
  }

let batch () =
  Array.append
    (Array.init 6 (fun i -> transient_job (Printf.sprintf "tr%d" i) (0.8 +. (0.1 *. float_of_int i))))
    (Array.init 4 (fun i -> special_job (Printf.sprintf "sp%d" i) (0.7 +. (0.2 *. float_of_int i))))

let clear_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let jsonl_of results =
  String.concat "\n"
    (Array.to_list (Array.map (fun r -> Util.Json.render r.Scenario.Engine.record) results))

let config ~cache_dir ~jobs_parallel ?(resume = false) ?shard () =
  {
    Scenario.Engine.cache_dir = Some cache_dir;
    jobs_parallel;
    domains = 1;
    metrics = Util.Metrics.global;
    warm_start = true;
    precond = Linalg.Precond.Cholesky;
    resume;
    shard;
  }

let run_once ~label ~cache_dir ~jobs_parallel ?resume ?shard jobs =
  let config = config ~cache_dir ~jobs_parallel ?resume ?shard () in
  let results, summary = Scenario.Engine.run ~config jobs in
  Printf.printf "%-9s jobs_parallel=%d  %s\n%!" label jobs_parallel
    (Scenario.Engine.summary_line summary);
  (summary, jsonl_of results)

let run_json ~label ~jobs_parallel (s : Scenario.Engine.summary) =
  Util.Json.Obj
    [
      ("label", Util.Json.Str label);
      ("jobs_parallel", Util.Json.Num (float_of_int jobs_parallel));
      ("factorizations", Util.Json.Num (float_of_int s.Scenario.Engine.factorizations));
      ("cache_hits", Util.Json.Num (float_of_int s.Scenario.Engine.cache_hits));
      ("cache_misses", Util.Json.Num (float_of_int s.Scenario.Engine.cache_misses));
      ("replayed", Util.Json.Num (float_of_int s.Scenario.Engine.replayed));
      ("journaled", Util.Json.Num (float_of_int s.Scenario.Engine.journaled));
      ("elapsed_s", Util.Json.Num s.Scenario.Engine.elapsed_seconds);
      ( "jobs_per_s",
        Util.Json.Num
          (if s.Scenario.Engine.elapsed_seconds > 0.0 then
             float_of_int s.Scenario.Engine.jobs /. s.Scenario.Engine.elapsed_seconds
           else 0.0) );
    ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("batch_bench: " ^ msg); exit 1) fmt

exception Killed

(* Simulated crash: the stream consumer dies after [kill_after] records.
   Returns the prefix that made it out before the kill. *)
let killed_run ~cache_dir ~kill_after jobs =
  let buf = Buffer.create 1024 in
  let emitted = ref 0 in
  let emit (r : Scenario.Engine.result) =
    incr emitted;
    if !emitted > kill_after then raise Killed;
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf (Util.Json.render r.Scenario.Engine.record)
  in
  match Scenario.Engine.run ~config:(config ~cache_dir ~jobs_parallel:1 ()) ~emit jobs with
  | _ -> die "killed run was not killed (emit callback never fired %d times)" (kill_after + 1)
  | exception Killed ->
      Printf.printf "%-9s jobs_parallel=1  killed after %d streamed record(s)\n%!" "killed"
        kill_after;
      Buffer.contents buf

let resume_scenario ~cold_stream jobs =
  let cache_dir = "_bench_batch_resume" in
  clear_dir cache_dir;
  let kill_after = 3 in
  let prefix = killed_run ~cache_dir ~kill_after jobs in
  let cold_lines = String.split_on_char '\n' cold_stream in
  let expected_prefix =
    String.concat "\n" (List.filteri (fun i _ -> i < kill_after) cold_lines)
  in
  if prefix <> expected_prefix then
    die "killed run streamed something other than the first %d records" kill_after;
  let s, stream =
    run_once ~label:"resume" ~cache_dir ~jobs_parallel:1 ~resume:true jobs
  in
  if stream <> cold_stream then die "resumed run's JSONL differs from the uninterrupted stream";
  if s.Scenario.Engine.factorizations <> 0 then
    die "resumed run factored %d times (the killed run cached every factor)"
      s.Scenario.Engine.factorizations;
  if s.Scenario.Engine.replayed < kill_after then
    die "resumed run replayed %d jobs; the killed run journaled at least %d"
      s.Scenario.Engine.replayed kill_after;
  if s.Scenario.Engine.replayed + s.Scenario.Engine.journaled <> Array.length jobs then
    die "resume accounting: %d replayed + %d journaled <> %d jobs" s.Scenario.Engine.replayed
      s.Scenario.Engine.journaled (Array.length jobs);
  s

let shard_scenario ~cold_stream ~cold_factorizations jobs =
  let cache_dir = "_bench_batch_shard" in
  clear_dir cache_dir;
  let cold_lines = Array.of_list (String.split_on_char '\n' cold_stream) in
  let njobs = Array.length jobs in
  if Array.length cold_lines <> njobs then die "cold stream has %d lines for %d jobs"
      (Array.length cold_lines) njobs;
  let shards = 2 in
  let runs =
    List.map
      (fun i ->
        let label = Printf.sprintf "shard-%d/%d" i shards in
        let s, stream = run_once ~label ~cache_dir ~jobs_parallel:1 ~shard:(i, shards) jobs in
        let expected =
          String.concat "\n"
            (List.filteri
               (fun idx _ -> Scenario.Engine.shard_of idx ~shards = i)
               (Array.to_list cold_lines))
        in
        if stream <> expected then
          die "%s streamed something other than its slice of the cold stream" label;
        (label, s))
      (List.init shards (fun i -> i))
  in
  (* Completeness + disjointness: the per-shard job counts partition the
     batch (each index hashes into exactly one shard), and the streams
     above matched disjoint slices of the cold stream. *)
  let covered = List.fold_left (fun acc (_, s) -> acc + s.Scenario.Engine.jobs) 0 runs in
  if covered <> njobs then die "shards covered %d of %d jobs" covered njobs;
  let factored =
    List.fold_left (fun acc (_, s) -> acc + s.Scenario.Engine.factorizations) 0 runs
  in
  (* Shared store, zero duplicated factorizations: the k runs together
     factor exactly what one cold run does. *)
  if factored <> cold_factorizations then
    die "2 shards factored %d times; one cold run factors %d" factored cold_factorizations;
  runs

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        nodes := 240;
        steps := 4;
        parse rest
    | "--nodes" :: v :: rest ->
        nodes := int_of_string v;
        parse rest
    | "--steps" :: v :: rest ->
        steps := int_of_string v;
        parse rest
    | "--out" :: v :: rest ->
        out_file := v;
        parse rest
    | arg :: _ ->
        Printf.eprintf "batch_bench: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = batch () in
  let cache_dir = "_bench_batch_cache" in
  clear_dir cache_dir;
  let cold, cold_stream = run_once ~label:"cold" ~cache_dir ~jobs_parallel:1 jobs in
  let runs =
    (("cold", 1), cold, cold_stream)
    :: List.map
         (fun jp ->
           let s, stream = run_once ~label:"warm" ~cache_dir ~jobs_parallel:jp jobs in
           (("warm", jp), s, stream))
         [ 1; 2; 4 ]
  in
  let runs =
    runs
    @ List.map
        (fun jp ->
          let dir = Printf.sprintf "_bench_batch_cold%d" jp in
          clear_dir dir;
          let s, stream = run_once ~label:"cold" ~cache_dir:dir ~jobs_parallel:jp jobs in
          (("cold", jp), s, stream))
        [ 2; 4 ]
  in
  (* The engine's contract, enforced: warm runs factor nothing, cold runs
     factor as often at any domain count, and every stream is
     byte-identical to the cold one. *)
  List.iter
    (fun ((label, jp), (s : Scenario.Engine.summary), stream) ->
      if label = "warm" && s.Scenario.Engine.factorizations <> 0 then begin
        Printf.eprintf "batch_bench: warm run (jobs_parallel=%d) factored %d times\n" jp
          s.Scenario.Engine.factorizations;
        exit 1
      end;
      if label = "cold" && s.Scenario.Engine.factorizations <> cold.Scenario.Engine.factorizations
      then begin
        Printf.eprintf "batch_bench: cold run (jobs_parallel=%d) factored %d times, not %d\n" jp
          s.Scenario.Engine.factorizations cold.Scenario.Engine.factorizations;
        exit 1
      end;
      if stream <> cold_stream then begin
        Printf.eprintf "batch_bench: %s run (jobs_parallel=%d) JSONL differs from cold stream\n"
          label jp;
        exit 1
      end)
    runs;
  let resume_summary = resume_scenario ~cold_stream jobs in
  let shard_runs =
    shard_scenario ~cold_stream ~cold_factorizations:cold.Scenario.Engine.factorizations jobs
  in
  let metrics =
    match Util.Json.parse (Util.Metrics.to_json Util.Metrics.global) with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "batch_bench: metrics registry is not valid JSON: %s\n" e;
        exit 1
  in
  let doc =
    Util.Json.Obj
      [
        ( "batch",
          Util.Json.Obj
            [
              ("jobs", Util.Json.Num (float_of_int (Array.length jobs)));
              ( "groups",
                Util.Json.Num (float_of_int (Array.length (Scenario.Engine.plan jobs))) );
              ( "runs",
                Util.Json.List
                  (List.map (fun ((label, jp), s, _) -> run_json ~label ~jobs_parallel:jp s) runs
                  @ [ run_json ~label:"resume" ~jobs_parallel:1 resume_summary ]
                  @ List.map
                      (fun (label, s) -> run_json ~label ~jobs_parallel:1 s)
                      shard_runs) );
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
