(* opera batch — run a JSON batch of jobs through the scenario engine.

   Jobs sharing an operator signature share one factorization; with
   --cache-dir the setup artifacts (orderings, Cholesky factors,
   triple-product tensors) persist across runs.  The JSONL stream goes
   to stdout (or --stream-out FILE) and is byte-identical across cold
   runs, warm runs and any --jobs-parallel; the human summary goes to
   stderr. *)

let run argv =
  let cache_dir = ref None
  and jobs_parallel = ref 0
  and domains = ref 0
  and stream_out = ref None
  and dry_run = ref false
  and metrics_out = ref None
  and warm_start = ref true
  and precond = ref Linalg.Precond.Cholesky
  and resume = ref false
  and shard_spec = ref None
  and gc_results = ref false
  and cache_max_bytes = ref None
  and log_level = ref Util.Log.Warn in
  let args =
    [
      Cli_common.cache_dir_arg cache_dir;
      Cli_common.int_at_least 0 [ "--jobs-parallel" ]
        ~doc:"Claim loops running the batch's factors and jobs (0 = the OPERA_DOMAINS \
              environment variable, default sequential), on the shared domain pool: loops \
              beyond its recommended_domain_count wait for a domain; inner solver \
              parallelism drops to 1 when > 1.  Spend cores here rather than on --domains: \
              the corner-sweep benchmark inputs (seeds 1 and 7919) take 2.93-2.99 s at \
              --jobs-parallel 2 --domains 1 against 4.85-4.93 s at --jobs-parallel 1 \
              --domains 2 on a 2-core host."
        jobs_parallel;
      Cli_common.int_at_least 0 [ "--domains" ]
        ~doc:"Domain count for the block-parallel solver paths (0 = the OPERA_DOMAINS \
              environment variable, default sequential).  With one claim loop it splits only \
              a cohort's block solves, never a factor task, so the factors of a cold batch \
              build one after another; see --jobs-parallel."
        domains;
      Util.Args.string_opt [ "--stream-out" ] ~docv:"FILE"
        ~doc:"Write the JSONL result stream to FILE instead of stdout." stream_out;
      Util.Args.flag [ "--dry-run" ]
        ~doc:"Only parse and plan: print the job groups sharing a factorization, solve nothing."
        dry_run;
      Util.Args.flag [ "--resume" ]
        ~doc:"Skip jobs whose results are journaled in --cache-dir and replay their records \
              bitwise; everything else runs (and journals) as usual."
        resume;
      Util.Args.string_opt [ "--shard" ] ~docv:"I/K"
        ~doc:"Run only shard I of K (0 <= I < K): jobs are partitioned deterministically by \
              their position in JOBS.json, so K processes sharing one --cache-dir cover the \
              batch exactly once."
        shard_spec;
      Util.Args.flag [ "--gc-results" ]
        ~doc:"After the run, drop journaled results in --cache-dir that belong to no job of \
              this batch under this run's --precond and --warm-start (factors and tensors \
              are kept)."
        gc_results;
      Util.Args.string_opt [ "--cache-max-bytes" ] ~docv:"SIZE"
        ~doc:"After the run, evict least-recently-used artifacts from --cache-dir until its \
              total size is under SIZE bytes (K/M/G suffixes allowed)."
        cache_max_bytes;
      Cli_common.metrics_out_arg metrics_out;
      Cli_common.warm_start_arg warm_start;
      Cli_common.precond_arg precond;
      Cli_common.log_level_arg log_level;
    ]
  in
  Cli_common.dispatch ~prog:"opera batch"
    ~summary:
      "Run a batch of analysis jobs from a JSON file; jobs sharing a grid and solver route share \
       one factorization, and --cache-dir persists the setup artifacts across runs."
    ~positional:"JOBS.json" ~args ~argv
  @@ fun positionals ->
  match positionals with
  | [] ->
      Printf.eprintf "opera batch: missing JOBS.json argument\nTry 'opera batch --help'.\n";
      2
  | _ :: _ :: _ ->
      Printf.eprintf "opera batch: expected exactly one JOBS.json argument\nTry 'opera batch --help'.\n";
      2
  | [ path ] -> (
      Cli_common.check_output "--stream-out" !stream_out;
      Cli_common.check_output "--metrics-out" !metrics_out;
      let usage_error msg =
        Printf.eprintf "opera batch: %s\nTry 'opera batch --help'.\n" msg;
        2
      in
      let shard =
        match !shard_spec with
        | None -> Ok None
        | Some s -> Result.map Option.some (Cli_common.parse_shard s)
      in
      let max_bytes =
        match !cache_max_bytes with
        | None -> Ok None
        | Some s -> Result.map Option.some (Cli_common.parse_bytes s)
      in
      match (shard, max_bytes) with
      | Error msg, _ | _, Error msg -> usage_error msg
      | Ok _, _ when !resume && !cache_dir = None ->
          usage_error "--resume needs --cache-dir (the journal lives there)"
      | Ok _, _ when !gc_results && !cache_dir = None ->
          usage_error "--gc-results needs --cache-dir (the journal lives there)"
      | Ok _, Ok (Some _) when !cache_dir = None ->
          usage_error "--cache-max-bytes needs --cache-dir (the artifacts live there)"
      | Ok shard, Ok max_bytes -> (
          let shard_filter jobs =
            match shard with
            | None -> jobs
            | Some (i, k) ->
                Array.to_list jobs
                |> List.filteri (fun idx _ -> Scenario.Engine.shard_of idx ~shards:k = i)
                |> Array.of_list
          in
          match Scenario.Job.batch_of_file path with
          | Error msg ->
              Printf.eprintf "opera batch: %s\n" msg;
              2
          | Ok jobs when !dry_run ->
              let total = Array.length jobs in
              let jobs = shard_filter jobs in
              let groups = Scenario.Engine.plan jobs in
              (match shard with
              | Some (i, k) ->
                  Printf.printf "shard %d/%d: %d of %d jobs in %d groups:\n" i k
                    (Array.length jobs) total (Array.length groups)
              | None -> Printf.printf "%d jobs in %d groups:\n" total (Array.length groups));
              Array.iteri
                (fun g members ->
                  let names =
                    members |> Array.to_list
                    |> List.map (fun i -> jobs.(i).Scenario.Job.name)
                    |> String.concat ", "
                  in
                  Printf.printf "  group %d: %d job%s sharing one operator: %s\n" g
                    (Array.length members)
                    (if Array.length members = 1 then "" else "s")
                    names)
                groups;
              0
          | Ok jobs ->
              Cli_common.with_health ~log_level:!log_level ~metrics_out:!metrics_out
              @@ fun () ->
              let config =
                {
                  Scenario.Engine.cache_dir = !cache_dir;
                  jobs_parallel = !jobs_parallel;
                  domains = !domains;
                  metrics = Util.Metrics.global;
                  warm_start = !warm_start;
                  precond = !precond;
                  resume = !resume;
                  shard;
                }
              in
              let run_jsonl oc =
                (* A refused batch names its jobs file; [Cli_common.dispatch]
                   reports it as a usage error. *)
                try Scenario.Engine.run_jsonl ~config oc jobs
                with Scenario.Engine.Invalid_batch msg ->
                  raise (Scenario.Engine.Invalid_batch (path ^ ": " ^ msg))
              in
              let summary =
                match !stream_out with
                | None -> run_jsonl stdout
                | Some file ->
                    let oc = Cli_common.writing "--stream-out" (fun () -> open_out file) in
                    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> run_jsonl oc)
              in
              prerr_endline (Scenario.Engine.summary_line summary);
              if !gc_results then begin
                (* Keep every job of the batch FILE, not just this
                   shard's slice — cooperating shard processes must not
                   collect each other's journal entries. *)
                let registry =
                  Scenario.Registry.create ~precond:!precond ~warm_start:!warm_start
                    ~dir:!cache_dir ()
                in
                let removed = Scenario.Registry.gc registry ~keep:jobs in
                if removed > 0 then
                  Printf.eprintf "gc: dropped %d stale journal entr%s\n" removed
                    (if removed = 1 then "y" else "ies")
              end;
              match (max_bytes, !cache_dir) with
              | Some cap, Some dir ->
                  let removed = Scenario.Store.evict_dir ~dir ~max_bytes:cap () in
                  if removed > 0 then
                    Printf.eprintf "evict: dropped %d artifact(s) over the %d-byte budget\n"
                      removed cap
              | _ -> ()))
