(* Shared plumbing of the opera subcommands: the flag vocabularies every
   parser reuses, the health/metrics harness, and the one error
   discipline — [--help] prints usage on stdout and exits 0, an unknown
   flag or malformed value prints the message (and a usage pointer) on
   stderr and exits 2, a solve diverging under [--solver-policy fail]
   exits 3. *)

let vdd_default = 1.2

(* ---- flag vocabularies ----------------------------------------------- *)

let solver_enum =
  [
    ("direct", Opera.Galerkin.Direct);
    ("pcg", Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 });
    ("matrix-free", Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 });
    ("st", Opera.Galerkin.default_st);
  ]

let policy_enum =
  [ ("fail", Opera.Galerkin.Fail); ("warn", Opera.Galerkin.Warn); ("fallback", Opera.Galerkin.Fallback) ]

let log_level_enum =
  [ ("error", Util.Log.Error); ("warn", Util.Log.Warn); ("info", Util.Log.Info); ("debug", Util.Log.Debug) ]

(* Counts and sizes are range-checked where they enter: a value below
   [min] fails the parse with the flag named (exit 2), the bounds
   Job.of_json applies to the same fields of a job file. *)
let int_at_least min names ~doc r =
  Util.Args.value names ~docv:"N" ~doc (fun s ->
      match int_of_string_opt (String.trim s) with
      | Some v when v >= min ->
          r := v;
          Ok ()
      | Some v -> Error (Printf.sprintf "must be >= %d, got %d" min v)
      | None -> Error (Printf.sprintf "expected an integer, got %S" s))

let positive_int names ~doc r = int_at_least 1 names ~doc r

let positive_float names ~doc r =
  Util.Args.value names ~docv:"X" ~doc (fun s ->
      match float_of_string_opt (String.trim s) with
      | Some v when v > 0.0 && Float.is_finite v ->
          r := v;
          Ok ()
      | Some _ -> Error (Printf.sprintf "must be a finite number > 0, got %S" s)
      | None -> Error (Printf.sprintf "expected a number, got %S" s))

let nodes_arg r =
  int_at_least Powergrid.Grid_spec.min_nodes [ "--nodes" ]
    ~doc:"Target node count of a generated synthetic grid." r

let netlist_arg r =
  Util.Args.string_opt [ "--netlist" ] ~docv:"FILE"
    ~doc:"Analyze this SPICE-subset netlist instead of a generated grid." r

let order_arg r = positive_int [ "--order" ] ~doc:"Polynomial-chaos expansion order (the paper uses 2-3)." r

let steps_arg r = positive_int [ "--steps" ] ~doc:"Number of transient steps." r

let step_ps_arg r = positive_float [ "--step-ps" ] ~doc:"Time step in picoseconds." r

let samples_arg r = positive_int [ "--samples" ] ~doc:"Monte-Carlo sample count." r

let seed_arg r = Util.Args.int [ "--seed" ] ~doc:"Random seed." r

let solver_arg r =
  Util.Args.enum [ "--solver" ]
    ~doc:"Augmented-system solver: direct, pcg (assembled, mean-block-preconditioned CG), \
          matrix-free (same CG, operator applied from the per-rank matrices, never assembled) \
          or st (stochastic-testing collocation: N+1 decoupled point solves on per-point \
          factors, coefficients recovered by a dense transform)."
    solver_enum r

(* The st knobs ride along as plain flags; they only matter when
   --solver st is selected, and rewrite the St payload in place so the
   solver value stays a single source of truth. *)
let st_candidates_arg r =
  Util.Args.int [ "--st-candidates" ]
    ~doc:"Candidate-pool bound for stochastic-testing point selection (0 = the full tensor \
          grid; larger values top the pool up with seeded random draws).  Only used by \
          --solver st." r

let st_seed_arg r =
  Util.Args.int [ "--st-seed" ]
    ~doc:"Seed of the stochastic-testing point-selection top-up draws.  Only used by --solver \
          st with --st-candidates beyond the tensor grid." r

let apply_st_knobs solver ~candidates ~seed =
  match solver with
  | Opera.Galerkin.St k ->
      Opera.Galerkin.St { k with candidates; seed = Int64.of_int seed }
  | s -> s

let precond_enum = List.map (fun k -> (Linalg.Precond.to_string k, k)) Linalg.Precond.all

let precond_arg r =
  Util.Args.enum [ "--precond" ]
    ~doc:"Mean-block preconditioner of the iterative solver paths (pcg, matrix-free, st): \
          cholesky (exact sparse factor, default), ic0 (incomplete Cholesky), amg \
          (smoothed-aggregation multigrid V-cycles; flat iteration counts on large meshes) \
          or auto (amg above 20k nodes).  Direct solves ignore it."
    precond_enum r

let domains_arg r =
  Util.Args.int [ "--domains" ]
    ~doc:"Domain count for the block-parallel solver paths (0 = the OPERA_DOMAINS environment \
          variable, default sequential)." r

let policy_arg r =
  Util.Args.enum [ "--solver-policy" ]
    ~doc:"What an iterative solve does on an exhausted iteration budget: fail (exit 3), warn \
          (keep the approximate iterate) or fallback (re-solve directly)."
    policy_enum r

let metrics_out_arg r =
  Util.Args.string_opt [ "--metrics-out" ] ~docv:"FILE"
    ~doc:"Write the run's metrics registry (counters + phase timers) to FILE as JSON." r

let log_level_arg r =
  Util.Args.enum [ "--log-level" ] ~doc:"Diagnostic verbosity on stderr: error, warn, info or debug."
    log_level_enum r

let warm_start_enum = [ ("on", true); ("off", false) ]

let warm_start_arg r =
  Util.Args.enum [ "--warm-start" ]
    ~doc:"Seed each transient step's iterative solve from the previous step (linearly \
          extrapolated): on (default) or off (zero guess every step).  Only iteration counts \
          change; converged results agree within solver tolerance."
    warm_start_enum r

let cache_dir_arg r =
  Util.Args.string_opt [ "--cache-dir" ] ~docv:"DIR"
    ~doc:"Artifact store for orderings, factors and tensors; warm runs skip setup entirely.  \
          Also holds the results journal of batch --resume/--shard." r

(* "I/K" shard specs, the vocabulary of batch --shard.  Validation lives
   here (not in the engine) so a typo surfaces as a normal exit-2 usage
   error with the flag's own spelling in the message. *)
let parse_shard s =
  let malformed () =
    Error (Printf.sprintf "--shard %s: expected I/K with integers 0 <= I < K (e.g. 0/4)" s)
  in
  match String.index_opt s '/' with
  | None -> malformed ()
  | Some slash -> (
      let i = String.sub s 0 slash in
      let k = String.sub s (slash + 1) (String.length s - slash - 1) in
      match (int_of_string_opt i, int_of_string_opt k) with
      | Some i, Some k when k >= 1 && i >= 0 && i < k -> Ok (i, k)
      | Some _, Some k when k < 1 ->
          Error (Printf.sprintf "--shard %s: shard count must be >= 1" s)
      | Some i, Some k -> Error (Printf.sprintf "--shard %s: index %d out of range [0, %d)" s i k)
      | _ -> malformed ())

(* "SIZE[K|M|G]" byte budgets, the vocabulary of --cache-max-bytes.
   Plain integers are bytes; a suffix scales by binary powers. *)
let parse_bytes s =
  let malformed () =
    Error
      (Printf.sprintf
         "--cache-max-bytes %s: expected a byte count with an optional K/M/G suffix (e.g. \
          512M)"
         s)
  in
  if s = "" then malformed ()
  else
    let scale, digits =
      match s.[String.length s - 1] with
      | ('k' | 'K') -> (1024, String.sub s 0 (String.length s - 1))
      | ('m' | 'M') -> (1024 * 1024, String.sub s 0 (String.length s - 1))
      | ('g' | 'G') -> (1024 * 1024 * 1024, String.sub s 0 (String.length s - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some n when n >= 0 -> Ok (n * scale)
    | Some _ -> Error (Printf.sprintf "--cache-max-bytes %s: must be >= 0" s)
    | None -> malformed ()

(* ---- input and output files -------------------------------------------- *)

(* Input a flag names that the program cannot use, such as an unreadable
   or malformed netlist, or an output file it cannot write; [dispatch]
   reports it as a usage error. *)
exception Bad_input of string

(* An output file must land in an existing directory.  Callers check
   every output flag before any work runs, so a mistyped path costs
   nothing. *)
let check_output flag = function
  | None -> ()
  | Some path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        raise (Bad_input (Printf.sprintf "%s %s: no such directory %s" flag path dir))

(* Run a write for [flag]; a failure the up-front check cannot see
   (permissions, a full disk) is reported the same way. *)
let writing flag f =
  try f () with Sys_error msg -> raise (Bad_input (Printf.sprintf "%s: %s" flag msg))

(* ---- run harness ------------------------------------------------------ *)

(* Set verbosity, check the metrics path, run the body, persist the
   metrics registry (also when the run aborts), map Solver_diverged to
   exit code 3. *)
let with_health ~log_level ~metrics_out f =
  Util.Log.set_level log_level;
  check_output "--metrics-out" metrics_out;
  let write_metrics () =
    match metrics_out with
    | None -> ()
    | Some path ->
        writing "--metrics-out" (fun () -> Util.Metrics.write_file Util.Metrics.global path);
        (* stderr so [batch]'s JSONL stream on stdout stays pure *)
        Printf.eprintf "wrote metrics to %s\n" path
  in
  match f () with
  | () ->
      write_metrics ();
      0
  | exception Opera.Galerkin.Solver_diverged (context, report) ->
      Printf.eprintf "opera: solver diverged at %s\n  %s\n" context
        (Linalg.Solve_report.summary report);
      write_metrics ();
      3

let print_health (stats : Opera.Galerkin.stats) =
  let agg = stats.Opera.Galerkin.health in
  if agg.Linalg.Solve_report.solves > 0 then
    Printf.printf "solver health: %s%s\n"
      (Linalg.Solve_report.agg_summary agg)
      (if Linalg.Solve_report.agg_healthy agg then "" else "  ** UNHEALTHY **")

let load_circuit netlist nodes =
  match netlist with
  | Some path -> (
      match Powergrid.Netlist.load_file path with
      | Ok parsed -> (parsed.Powergrid.Netlist.circuit, vdd_default, None)
      | Error msg -> raise (Bad_input ("netlist " ^ msg)))
  | None ->
      let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
      (Powergrid.Grid_gen.generate spec, spec.Powergrid.Grid_spec.vdd, Some spec)

(* ---- the shared usage / unknown-flag error path ----------------------- *)

(* Parse [argv] against [args]; on success check positionals and run the
   body.  Every subcommand flows through here, so help and error
   behavior cannot drift between parsers. *)
let dispatch ~prog ~summary ?positional ~args ~argv body =
  let run ps =
    try body ps
    with Bad_input msg ->
      Printf.eprintf "%s: %s\n" prog msg;
      2
  in
  match Util.Args.parse args argv with
  | Util.Args.Help ->
      print_string (Util.Args.usage ~prog ?positional ~summary args);
      0
  | Util.Args.Failed msg ->
      Printf.eprintf "%s: %s\nTry '%s --help'.\n" prog msg prog;
      2
  | Util.Args.Parsed positionals -> (
      match (positional, positionals) with
      | None, [] -> run []
      | None, extra :: _ ->
          Printf.eprintf "%s: unexpected argument %S\nTry '%s --help'.\n" prog extra prog;
          2
      | Some _, ps -> run ps)
