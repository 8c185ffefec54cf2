(* Scenario engine acceptance tests.

   The contract under test:
     - jobs sharing an operator signature share exactly one
       factorization per needed factor (asserted through the summary and
       the engine.factorizations metrics counter);
     - a warm run against the artifact store performs zero
       factorizations and reproduces the cold JSONL bitwise;
     - the JSONL stream is byte-identical for any jobs_parallel;
     - engine-owned solves match the library solvers they share factors
       with. *)

module Job = Scenario.Job
module Engine = Scenario.Engine

let nodes = 160

let base_job name =
  {
    Job.name;
    source = Job.Generated { nodes };
    analysis = Job.Dc;
    order = 2;
    h = 125e-12;
    steps = 4;
    solver = Opera.Galerkin.Direct;
    policy = Opera.Galerkin.Warn;
    sigma_scale = 1.0;
    drain_scale = 1.0;
    leak_scale = 1.0;
    probe = None;
  }

let fresh_dir () =
  let marker = Filename.temp_file "opera_engine_test" "" in
  Sys.remove marker;
  marker ^ ".d"

let records_of results =
  Array.to_list (Array.map (fun r -> Util.Json.render r.Engine.record) results)

let run ?cache_dir ?(jobs_parallel = 1) ?(resume = false) ?shard ?metrics ?emit jobs =
  let metrics = match metrics with Some m -> m | None -> Util.Metrics.create () in
  let config =
    {
      Engine.cache_dir;
      jobs_parallel;
      domains = 1;
      metrics;
      warm_start = true;
      precond = Linalg.Precond.Cholesky;
      resume;
      shard;
    }
  in
  Engine.run ~config ?emit jobs

(* --- planning ------------------------------------------------------- *)

let test_plan_groups () =
  let jobs =
    [|
      base_job "a";
      { (base_job "b") with Job.drain_scale = 2.0 } (* excitation: same operator *);
      { (base_job "c") with Job.source = Job.Generated { nodes = nodes * 2 } };
      { (base_job "d") with Job.solver = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 } };
      { (base_job "e") with Job.analysis = Job.Transient; steps = 9 } (* steps: same operator *);
    |]
  in
  let groups = Engine.plan jobs in
  Alcotest.(check (list (list int)))
    "3 operators; first-occurrence order, members in batch order"
    [ [ 0; 1; 4 ]; [ 2 ]; [ 3 ] ]
    (Array.to_list (Array.map Array.to_list groups))

let test_signature_excludes_excitation () =
  let a = base_job "a" in
  Alcotest.(check string)
    "drain_scale shares the operator"
    (Job.signature a)
    (Job.signature { a with Job.drain_scale = 3.0 });
  Alcotest.(check string)
    "h and steps share the operator (factors are keyed per h)"
    (Job.signature a)
    (Job.signature { a with Job.h = 250e-12; steps = 16 });
  Alcotest.(check bool)
    "sigma_scale changes the operator" true
    (Job.signature a <> Job.signature { a with Job.sigma_scale = 2.0 });
  Alcotest.(check bool)
    "order changes the operator" true
    (Job.signature a <> Job.signature { a with Job.order = 3 })

(* --- netlist sources are keyed by contents --------------------------- *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_signature_tracks_netlist_contents () =
  let path = Filename.temp_file "opera_netlist" ".sp" in
  write_file path "* v1\nR1 a 0 1.0\nV1 a 0 1.2 RS=0.1\n.end\n";
  let job = { (base_job "nl") with Job.source = Job.Netlist path } in
  let sig1 = Job.signature job in
  Alcotest.(check string) "signature is stable while the file is" sig1 (Job.signature job);
  write_file path "* v2\nR1 a 0 2.0\nV1 a 0 1.2 RS=0.1\n.end\n";
  Alcotest.(check bool)
    "editing the netlist in place changes the signature" true
    (sig1 <> Job.signature job);
  Sys.remove path;
  (* An unreadable path must not crash planning; parsing fails later. *)
  ignore (Job.signature job)

let test_netlist_edit_invalidates_cache () =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 60 in
  let circuit = Powergrid.Grid_gen.generate spec in
  let doubled =
    Powergrid.Circuit.make ~num_nodes:circuit.Powergrid.Circuit.num_nodes
      ~resistors:
        (Array.to_list circuit.Powergrid.Circuit.resistors
        |> List.map (fun (r : Powergrid.Circuit.resistor) ->
               { r with Powergrid.Circuit.ohms = r.Powergrid.Circuit.ohms *. 2.0 }))
      ~capacitors:(Array.to_list circuit.Powergrid.Circuit.capacitors)
      ~isources:(Array.to_list circuit.Powergrid.Circuit.isources)
      ~vsources:(Array.to_list circuit.Powergrid.Circuit.vsources)
      ~inductors:(Array.to_list circuit.Powergrid.Circuit.inductors)
      ()
  in
  let path = Filename.temp_file "opera_netlist" ".sp" in
  let jobs =
    [| { (base_job "nl") with Job.source = Job.Netlist path; analysis = Job.Transient } |]
  in
  let cache_dir = fresh_dir () in
  (* Cold run on v1 warms the cache for v1's operator... *)
  write_file path (Powergrid.Netlist.to_string circuit);
  let _, cold1 = run ~cache_dir jobs in
  Alcotest.(check bool) "v1 cold run factored" true (cold1.Engine.factorizations > 0);
  (* ...then the netlist is edited IN PLACE: same path, same dimension,
     different conductances.  The warm run must rebuild, not silently
     reuse v1's factors. *)
  write_file path (Powergrid.Netlist.to_string doubled);
  let edited_results, edited_summary = run ~cache_dir jobs in
  Alcotest.(check bool)
    "edited netlist forces refactorization" true
    (edited_summary.Engine.factorizations > 0);
  let fresh_results, _ = run jobs in
  Alcotest.(check (list string))
    "cached run on the edited netlist matches an uncached run bitwise"
    (records_of fresh_results)
    (records_of edited_results);
  Sys.remove path

(* --- the factor-once guarantee -------------------------------------- *)

let test_shared_grid_one_factorization () =
  let jobs =
    [|
      base_job "dc-a";
      { (base_job "dc-b") with Job.drain_scale = 1.5 };
      { (base_job "dc-c") with Job.drain_scale = 0.5 };
    |]
  in
  let metrics = Util.Metrics.create () in
  let results, summary = run ~metrics jobs in
  Alcotest.(check int) "3 jobs" 3 summary.Engine.jobs;
  Alcotest.(check int) "1 group" 1 summary.Engine.groups;
  Alcotest.(check int) "exactly one factorization" 1 summary.Engine.factorizations;
  Alcotest.(check int)
    "engine.factorizations counter agrees" 1
    (Util.Metrics.counter metrics "engine.factorizations");
  Alcotest.(check int)
    "engine.jobs counter" 3
    (Util.Metrics.counter metrics "engine.jobs");
  Array.iter
    (fun r ->
      Alcotest.(check bool) "dc jobs carry no response" true (r.Engine.response = None))
    results

(* --- cold/warm bitwise reproduction --------------------------------- *)

let test_warm_run_zero_factorizations_bitwise () =
  let jobs =
    [|
      { (base_job "tr") with Job.analysis = Job.Transient };
      { (base_job "tr-drain") with Job.analysis = Job.Transient; drain_scale = 1.3 };
      base_job "dc";
      { (base_job "sp") with Job.analysis = Job.Special { regions = 4; lambda = 0.5 } };
      { (base_job "yld") with Job.analysis = Job.Yield { budget_pct = 5.0 } };
    |]
  in
  let cache_dir = fresh_dir () in
  let _, cold_summary = run ~cache_dir jobs in
  let cold = run ~cache_dir jobs in
  Alcotest.(check bool)
    "cold run factored" true
    (cold_summary.Engine.factorizations > 0);
  Alcotest.(check bool) "cold run missed the store" true (cold_summary.Engine.cache_misses > 0);
  let warm_results, warm_summary = cold in
  Alcotest.(check int) "warm run: zero factorizations" 0 warm_summary.Engine.factorizations;
  Alcotest.(check int) "warm run: zero misses" 0 warm_summary.Engine.cache_misses;
  Alcotest.(check bool) "warm run: hits" true (warm_summary.Engine.cache_hits > 0);
  (* rerun truly cold (no cache) and compare record-for-record *)
  let nocache_results, _ = run jobs in
  Alcotest.(check (list string))
    "warm records match uncached run bitwise"
    (records_of nocache_results)
    (records_of warm_results)

let test_corrupt_artifact_recovers_bitwise () =
  let jobs = [| { (base_job "tr") with Job.analysis = Job.Transient } |] in
  let cache_dir = fresh_dir () in
  let cold_results, _ = run ~cache_dir jobs in
  (* damage every cached artifact in place *)
  Array.iter
    (fun f ->
      let path = Filename.concat cache_dir f in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let bytes = really_input_string ic (len / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc)
    (Sys.readdir cache_dir);
  let damaged_results, damaged_summary = run ~cache_dir jobs in
  Alcotest.(check bool)
    "damage detected as corrupt" true
    (damaged_summary.Engine.cache_corrupt > 0);
  Alcotest.(check bool) "damage forced refactorization" true (damaged_summary.Engine.factorizations > 0);
  Alcotest.(check (list string))
    "rebuilt run matches the cold run bitwise"
    (records_of cold_results)
    (records_of damaged_results);
  (* and the store healed: next run is warm again *)
  let _, healed = run ~cache_dir jobs in
  Alcotest.(check int) "healed store: zero factorizations" 0 healed.Engine.factorizations

(* --- jobs_parallel determinism --------------------------------------- *)

let st_solver =
  match Job.solver_of_string "st" with Ok s -> s | Error e -> failwith e

(* Factors and jobs share the claim loop, so a cold run at several
   domains builds factors concurrently, through one store, while other
   jobs run: the stream, the factorization count and the store traffic
   must not depend on how many domains did that. *)
let test_jobs_parallel_deterministic () =
  let h2 = 250e-12 in
  let jobs =
    Array.append
      (Array.init 6 (fun i ->
           match i mod 3 with
           | 0 -> { (base_job (Printf.sprintf "tr%d" i)) with Job.analysis = Job.Transient;
                    drain_scale = 1.0 +. (0.1 *. float_of_int i) }
           | 1 -> { (base_job (Printf.sprintf "dc%d" i)) with Job.drain_scale = float_of_int i }
           | _ -> { (base_job (Printf.sprintf "sp%d" i)) with
                    Job.analysis = Job.Special { regions = 4; lambda = 0.5 };
                    leak_scale = 1.0 +. (0.2 *. float_of_int i) }))
      [|
        { (base_job "tr-h2") with Job.analysis = Job.Transient; h = h2 };
        { (base_job "sp-h2") with
          Job.analysis = Job.Special { regions = 4; lambda = 0.5 }; h = h2 };
        { (base_job "st-tr") with Job.analysis = Job.Transient; solver = st_solver };
        { (base_job "st-h2") with Job.analysis = Job.Transient; solver = st_solver; h = h2;
          drain_scale = 1.2 };
        { (base_job "st-dc") with Job.solver = st_solver };
      |]
  in
  let counts (s : Engine.summary) =
    (s.Engine.factorizations, s.Engine.cache_hits, s.Engine.cache_misses)
  in
  let runs =
    List.map
      (fun jp ->
        let cache_dir = fresh_dir () in
        let cold = run ~cache_dir ~jobs_parallel:jp jobs in
        let warm = run ~cache_dir ~jobs_parallel:jp jobs in
        (jp, cold, warm))
      [ 1; 2; 4 ]
  in
  let reference, ref_cold, ref_warm =
    match runs with
    | (_, (r, c), (_, w)) :: _ -> (records_of r, counts c, counts w)
    | [] -> assert false
  in
  let fact, _, _ = ref_cold in
  (* direct gt + 2 mt, special g + 2 be, st g0 + 6 points x 2 step sizes *)
  Alcotest.(check int) "cold factorizations" 19 fact;
  List.iter
    (fun (jp, (cold, cold_s), (warm, warm_s)) ->
      let tag what = Printf.sprintf "jobs_parallel=%d %s" jp what in
      Alcotest.(check (list string)) (tag "cold stream") reference (records_of cold);
      Alcotest.(check (list string)) (tag "warm stream") reference (records_of warm);
      Alcotest.(check (triple int int int)) (tag "cold counts") ref_cold (counts cold_s);
      Alcotest.(check (triple int int int)) (tag "warm counts") ref_warm (counts warm_s);
      Alcotest.(check int) (tag "warm factorizations") 0 warm_s.Engine.factorizations;
      Array.iteri
        (fun i r ->
          Alcotest.(check string) (tag "results indexed like inputs") jobs.(i).Job.name
            r.Engine.job.Job.name)
        cold)
    runs

(* --- engine solves match the library solvers ------------------------- *)

let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes

let test_transient_matches_galerkin () =
  let job = { (base_job "tr") with Job.analysis = Job.Transient } in
  let results, _ = run [| job |] in
  let resp =
    match results.(0).Engine.response with
    | Some r -> r
    | None -> Alcotest.fail "transient job must carry a response"
  in
  (* reference: the library transient solve on the same model *)
  let circuit = Powergrid.Grid_gen.generate spec in
  let model =
    Opera.Stochastic_model.build ~order:job.Job.order Opera.Varmodel.paper_default
      ~vdd:spec.Powergrid.Grid_spec.vdd circuit
  in
  let probe = Powergrid.Grid_gen.center_node spec in
  let options =
    { Opera.Galerkin.default_options with Opera.Galerkin.probes = [| probe |] }
  in
  let reference, _ =
    Opera.Galerkin.solve_transient ~options model ~h:job.Job.h ~steps:job.Job.steps
  in
  for step = 1 to job.Job.steps do
    Helpers.check_float ~eps:1e-12
      (Printf.sprintf "probe mean, step %d" step)
      (Opera.Response.mean_at reference ~step ~node:probe)
      (Opera.Response.mean_at resp ~step ~node:probe);
    Helpers.check_float ~eps:1e-12
      (Printf.sprintf "probe std, step %d" step)
      (Opera.Response.std_at reference ~step ~node:probe)
      (Opera.Response.std_at resp ~step ~node:probe)
  done

let test_special_matches_special_case () =
  let lambda = 0.5 in
  let job =
    { (base_job "sp") with Job.analysis = Job.Special { regions = 4; lambda } }
  in
  let results, _ = run [| job |] in
  let resp =
    match results.(0).Engine.response with
    | Some r -> r
    | None -> Alcotest.fail "special job must carry a response"
  in
  let sspec =
    { (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes) with
      Powergrid.Grid_spec.regions_x = 2; regions_y = 2 }
  in
  let circuit = Powergrid.Grid_gen.generate sspec in
  let leaks =
    Array.init
      (sspec.Powergrid.Grid_spec.rows * sspec.Powergrid.Grid_spec.cols)
      (fun node -> (node, Powergrid.Grid_gen.region_of_node sspec node, 5e-6))
  in
  let sc =
    Opera.Special_case.make ~order:job.Job.order ~regions:4 ~lambda ~leaks
      ~vdd:sspec.Powergrid.Grid_spec.vdd circuit
  in
  let probe = Powergrid.Grid_gen.center_node sspec in
  let reference, _ =
    Opera.Special_case.solve sc ~h:job.Job.h ~steps:job.Job.steps ~probes:[| probe |]
  in
  for step = 1 to job.Job.steps do
    Helpers.check_float ~eps:1e-12
      (Printf.sprintf "special probe mean, step %d" step)
      (Opera.Response.mean_at reference ~step ~node:probe)
      (Opera.Response.mean_at resp ~step ~node:probe)
  done

(* --- job JSON parsing ------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let parse_batch s =
  match Util.Json.parse s with
  | Ok j -> Job.batch_of_json j
  | Error e -> Error ("json: " ^ e)

let test_job_json () =
  (match
     parse_batch
       {|{"defaults": {"nodes": 160, "solver": "direct"},
          "jobs": [{"name": "a", "analysis": "dc"},
                   {"analysis": "transient", "steps": 3, "drain_scale": 1.5}]}|}
   with
  | Ok jobs ->
      Alcotest.(check int) "two jobs" 2 (Array.length jobs);
      Alcotest.(check string) "named job" "a" jobs.(0).Job.name;
      Alcotest.(check string) "nameless job gets an index name" "job1" jobs.(1).Job.name;
      Alcotest.(check int) "defaults flow into jobs" 160
        (match jobs.(0).Job.source with Job.Generated { nodes } -> nodes | _ -> -1);
      Alcotest.(check int) "per-job override" 3 jobs.(1).Job.steps
  | Error e -> Alcotest.failf "batch rejected: %s" e);
  let expect_error what s =
    match parse_batch s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  expect_error "unknown job field" {|{"jobs": [{"analysis": "dc", "nodez": 100}]}|};
  expect_error "unknown batch field" {|{"jobs": [], "jbos": []}|};
  expect_error "empty jobs" {|{"jobs": []}|};
  expect_error "bad analysis" {|{"jobs": [{"analysis": "frequency"}]}|};
  expect_error "bad solver" {|{"jobs": [{"analysis": "dc", "solver": "lu"}]}|};
  expect_error "special needs a generated grid"
    {|{"jobs": [{"analysis": "special", "netlist": "x.sp"}]}|};
  expect_error "duplicate job names"
    {|{"jobs": [{"name": "a", "analysis": "dc"}, {"name": "a", "analysis": "dc"}]}|};
  expect_error "explicit name colliding with an index name"
    {|{"jobs": [{"name": "job1", "analysis": "dc"}, {"analysis": "dc"}]}|};
  expect_error "non-tileable region count"
    {|{"jobs": [{"analysis": "special", "regions": 5}]}|};
  (* Non-finite numbers would render as null in the record; a 1/h that
     overflows does too; a negative probe would silently fall back to
     the default node. *)
  List.iter
    (fun (what, job) ->
      let s = Printf.sprintf {|{"jobs": [{%s}]}|} job in
      match parse_batch s with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error e ->
          let field = List.hd (String.split_on_char ' ' what) in
          Alcotest.(check bool)
            (what ^ ": message names the field") true
            (contains e (Printf.sprintf "%S" field)))
    [
      ("step_ps infinite", {|"step_ps": 1e999|});
      ("step_ps so small 1/h overflows", {|"step_ps": 1e-300|});
      ("sigma_scale infinite", {|"sigma_scale": 1e999|});
      ("drain_scale infinite", {|"drain_scale": 1e999|});
      ("leak_scale infinite", {|"analysis": "special", "leak_scale": 1e999|});
      ("lambda infinite", {|"analysis": "special", "lambda": -1e999|});
      ("budget_pct infinite", {|"analysis": "yield", "budget_pct": 1e999|});
      ("probe negative", {|"probe": -7|});
    ];
  (match parse_batch {|{"jobs": [{"analysis": "dc", "probe": 0}]}|} with
  | Ok jobs -> Alcotest.(check bool) "probe 0 is a node" true (jobs.(0).Job.probe = Some 0)
  | Error e -> Alcotest.failf "probe 0 rejected: %s" e);
  match parse_batch {|{"jobs": [{"analysis": "special", "regions": 6}]}|} with
  | Ok jobs ->
      Alcotest.(check bool) "tileable region count parses with the requested value" true
        (jobs.(0).Job.analysis = Job.Special { regions = 6; lambda = 0.5 })
  | Error e -> Alcotest.failf "regions 6 rejected: %s" e

let test_region_split () =
  List.iter
    (fun (regions, rx, ry) ->
      let gx, gy = Job.region_split regions in
      Alcotest.(check (pair int int))
        (Printf.sprintf "split of %d" regions)
        (rx, ry) (gx, gy))
    [ (1, 1, 1); (2, 1, 2); (4, 2, 2); (6, 2, 3); (9, 3, 3); (12, 3, 4); (16, 4, 4) ]

(* --- batch-level usage errors ---------------------------------------- *)

let test_invalid_batch () =
  (match run [||] with
  | _ -> Alcotest.fail "empty batch accepted"
  | exception Engine.Invalid_batch _ -> ());
  let emitted = ref [] in
  let emit r = emitted := r.Engine.job.Job.name :: !emitted in
  let expect_invalid what ~prefix ~records jobs =
    emitted := [];
    match run ~jobs_parallel:2 ~emit jobs with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Engine.Invalid_batch msg ->
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "%s: message %S does not start with %S" what msg prefix;
        Alcotest.(check (list string)) (what ^ ": records emitted first") records
          (List.rev !emitted)
  in
  (* An out-of-range probe must surface as Invalid_batch from the main
     domain before any job runs, even when jobs_parallel > 1. *)
  expect_invalid "out-of-range probe" ~prefix:"job bad: probe" ~records:[]
    [| base_job "ok"; { (base_job "bad") with Job.probe = Some 1_000_000 } |];
  (* An unreadable netlist fails the group's prelude the same way, naming
     the job and the file. *)
  expect_invalid "missing netlist" ~prefix:"job nl: netlist /nonexistent/grid.sp" ~records:[]
    [| base_job "ok"; { (base_job "nl") with Job.source = Job.Netlist "/nonexistent/grid.sp" } |];
  (* An indefinite chaos operator fails its factor task: every job of its
     group fails, the earliest is re-raised, and no record at or past it
     leaves — on the direct and the st route. *)
  List.iter
    (fun (route, solver) ->
      expect_invalid
        ("sigma_scale 20, " ^ route)
        ~prefix:"job wild: sigma_scale 20 makes the operator not positive definite"
        ~records:[ "a"; "b" ]
        [|
          base_job "a";
          { (base_job "b") with Job.analysis = Job.Transient };
          { (base_job "wild") with Job.sigma_scale = 20.0; solver };
          { (base_job "c") with Job.drain_scale = 1.5 };
          { (base_job "wild-too") with Job.sigma_scale = 20.0; solver; drain_scale = 2.0 };
        |])
    [ ("direct", Opera.Galerkin.Direct); ("st", st_solver) ]

(* --- resume: journaled results replay bitwise ------------------------- *)

let truncate_in_place path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic (len / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_resume_replays_bitwise () =
  let jobs =
    [|
      { (base_job "tr") with Job.analysis = Job.Transient };
      base_job "dc";
      { (base_job "sp") with Job.analysis = Job.Special { regions = 4; lambda = 0.5 } };
    |]
  in
  let cache_dir = fresh_dir () in
  let cold_results, cold_summary = run ~cache_dir jobs in
  Alcotest.(check int) "cold run journals every job" 3 cold_summary.Engine.journaled;
  Alcotest.(check int) "cold run replays nothing" 0 cold_summary.Engine.replayed;
  (* Resume: every record replays from the journal; no job executes. *)
  let metrics = Util.Metrics.create () in
  let resumed_results, resumed_summary = run ~cache_dir ~resume:true ~metrics jobs in
  Alcotest.(check int) "resume replays every job" 3 resumed_summary.Engine.replayed;
  Alcotest.(check int) "resume journals nothing new" 0 resumed_summary.Engine.journaled;
  Alcotest.(check int) "resume factors nothing" 0 resumed_summary.Engine.factorizations;
  Alcotest.(check int) "no job executed" 0 (Util.Metrics.counter metrics "engine.jobs");
  Alcotest.(check (list string))
    "replayed records match the cold run bitwise"
    (records_of cold_results) (records_of resumed_results);
  Array.iter
    (fun r -> Alcotest.(check bool) "replayed results carry no response" true (r.Engine.response = None))
    resumed_results;
  (* Truncate one journal entry mid-record: the damaged entry must be
     dropped and its job re-run, never trusted. *)
  let registry = Scenario.Registry.create ~dir:(Some cache_dir) () in
  (match Scenario.Registry.path registry jobs.(0) with
  | Some path -> truncate_in_place path
  | None -> Alcotest.fail "registry path missing");
  let damaged_results, damaged_summary = run ~cache_dir ~resume:true jobs in
  Alcotest.(check int) "two intact entries replay" 2 damaged_summary.Engine.replayed;
  Alcotest.(check int) "the damaged job re-runs and re-journals" 1 damaged_summary.Engine.journaled;
  Alcotest.(check int) "one corrupt journal entry dropped" 1 damaged_summary.Engine.registry_corrupt;
  Alcotest.(check (list string))
    "stream after journal damage still matches the cold run bitwise"
    (records_of cold_results) (records_of damaged_results);
  (* ...and the journal healed: a further resume replays everything. *)
  let _, healed = run ~cache_dir ~resume:true jobs in
  Alcotest.(check int) "healed journal replays every job" 3 healed.Engine.replayed;
  (* Zero-length journal entry (a crash between open and first write):
     Codec.read_file raises Corrupt, and the registry must take the same
     drop-and-re-run path, not crash or replay an empty record. *)
  (match Scenario.Registry.path registry jobs.(1) with
  | Some path -> close_out (open_out_bin path)
  | None -> Alcotest.fail "registry path missing");
  let zeroed_results, zeroed_summary = run ~cache_dir ~resume:true jobs in
  Alcotest.(check int) "zero-length entry dropped" 1 zeroed_summary.Engine.registry_corrupt;
  Alcotest.(check int) "its job re-runs and re-journals" 1 zeroed_summary.Engine.journaled;
  Alcotest.(check (list string))
    "stream after zero-length damage still matches the cold run bitwise"
    (records_of cold_results) (records_of zeroed_results)

(* --- a simulated kill mid-stream, then resume ------------------------- *)

exception Kill

let test_kill_then_resume () =
  let jobs =
    Array.init 5 (fun i ->
        { (base_job (Printf.sprintf "dc%d" i)) with Job.drain_scale = 0.5 +. (0.25 *. float_of_int i) })
  in
  let cache_dir = fresh_dir () in
  let reference_results, _ = run jobs in
  let emitted = ref 0 in
  let emit _ =
    incr emitted;
    if !emitted > 2 then raise Kill
  in
  (match run ~cache_dir ~emit jobs with
  | _ -> Alcotest.fail "killed run was not killed"
  | exception Kill -> ());
  Alcotest.(check int) "two records left; the third emit was the kill" 3 !emitted;
  (* The journal survived the kill: resume replays the finished prefix,
     runs the rest, and the full stream is bitwise identical to an
     uninterrupted run — with zero factorizations, because the killed
     run's group setup already cached the factor. *)
  let resumed_results, s = run ~cache_dir ~resume:true jobs in
  Alcotest.(check bool) "the killed run journaled its completions" true (s.Engine.replayed >= 2);
  Alcotest.(check int) "replays + reruns cover the batch" 5 (s.Engine.replayed + s.Engine.journaled);
  Alcotest.(check int) "nothing refactored on resume" 0 s.Engine.factorizations;
  Alcotest.(check (list string))
    "resumed stream is bitwise identical to an uninterrupted run"
    (records_of reference_results) (records_of resumed_results)

(* --- shard partitioning ----------------------------------------------- *)

let test_shard_partition () =
  let jobs =
    Array.init 7 (fun i ->
        { (base_job (Printf.sprintf "dc%d" i)) with Job.drain_scale = 1.0 +. (0.1 *. float_of_int i) })
  in
  let names jobs = Array.to_list (Array.map (fun (r : Engine.result) -> r.Engine.job.Job.name) jobs) in
  List.iter
    (fun k ->
      let slices =
        List.init k (fun i ->
            let results, s = run ~shard:(i, k) jobs in
            Alcotest.(check int)
              (Printf.sprintf "summary jobs = slice size (shard %d/%d)" i k)
              (Array.length results) s.Engine.jobs;
            (* Each shard keeps batch order and is exactly the subset the
               index hash assigns to it. *)
            let expected =
              List.filteri (fun idx _ -> Engine.shard_of idx ~shards:k = i) (Array.to_list jobs)
              |> List.map (fun (j : Job.t) -> j.Job.name)
            in
            Alcotest.(check (list string))
              (Printf.sprintf "shard %d/%d is its hash slice, in batch order" i k)
              expected (names results);
            names results)
        |> List.concat
      in
      (* Completeness and disjointness: k shards together are a
         permutation-free partition — every job exactly once. *)
      Alcotest.(check (list string))
        (Printf.sprintf "%d shards cover every job exactly once" k)
        (List.sort compare (Array.to_list (Array.map (fun (j : Job.t) -> j.Job.name) jobs)))
        (List.sort compare slices))
    [ 1; 2; 3 ];
  List.iter
    (fun shard ->
      match run ~shard jobs with
      | _ -> Alcotest.failf "invalid shard accepted"
      | exception Engine.Invalid_batch _ -> ())
    [ (2, 2); (-1, 3); (0, 0) ]

(* --- streamed JSONL survives a mid-batch abort ------------------------ *)

let test_streaming_prefix_survives_abort () =
  let diverging =
    {
      (base_job "diverge") with
      Job.solver = Opera.Galerkin.Mean_pcg { tol = 1e-30; max_iter = 1 };
      policy = Opera.Galerkin.Fail;
    }
  in
  let ok_a = base_job "a" and ok_b = { (base_job "b") with Job.drain_scale = 1.5 } in
  let jobs = [| ok_a; ok_b; diverging; { (base_job "d") with Job.drain_scale = 0.25 } |] in
  let path = Filename.temp_file "opera_stream" ".jsonl" in
  let oc = open_out path in
  let config = { Engine.default_config with Engine.metrics = Util.Metrics.create () } in
  (match
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Engine.run_jsonl ~config oc jobs)
   with
  | _ -> Alcotest.fail "diverging fail-policy job did not abort the batch"
  | exception Opera.Galerkin.Solver_diverged _ -> ());
  let ic = open_in_bin path in
  let streamed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (* Jobs before the failure were flushed as they completed; nothing at
     or past the failing index leaked out. *)
  let reference, _ = run [| ok_a; ok_b |] in
  Alcotest.(check string)
    "the flushed stream is exactly the pre-failure prefix"
    (String.concat "" (List.map (fun r -> r ^ "\n") (records_of reference)))
    streamed

(* --- journal GC ------------------------------------------------------- *)

let test_registry_gc () =
  let keep = base_job "keep" in
  let drop = { (base_job "drop") with Job.drain_scale = 2.0 } in
  let cache_dir = fresh_dir () in
  let _, s = run ~cache_dir [| keep; drop |] in
  Alcotest.(check int) "both jobs journaled" 2 s.Engine.journaled;
  let registry = Scenario.Registry.create ~dir:(Some cache_dir) () in
  Alcotest.(check int) "gc drops the job that left the batch" 1
    (Scenario.Registry.gc registry ~keep:[| keep |]);
  Alcotest.(check int) "gc again: nothing left to drop" 0
    (Scenario.Registry.gc registry ~keep:[| keep |]);
  let _, kept = run ~cache_dir ~resume:true [| keep |] in
  Alcotest.(check int) "kept journal entry still replays" 1 kept.Engine.replayed;
  let _, dropped = run ~cache_dir ~resume:true [| drop |] in
  Alcotest.(check int) "dropped entry is gone (job re-runs)" 0 dropped.Engine.replayed;
  (* GC only touches journal entries: the shared factor is still cached. *)
  Alcotest.(check int) "factors survived the gc" 0 dropped.Engine.factorizations

(* --- result signature ------------------------------------------------- *)

let test_result_signature_covers_record_knobs () =
  let a = base_job "a" in
  Alcotest.(check string)
    "result signature is stable" (Job.result_signature a) (Job.result_signature a);
  List.iter
    (fun (what, b) ->
      Alcotest.(check bool) (what ^ " changes the result signature") true
        (Job.result_signature a <> Job.result_signature b))
    [
      ("name", { a with Job.name = "b" });
      ("drain_scale", { a with Job.drain_scale = 2.0 });
      ("leak_scale", { a with Job.leak_scale = 2.0 });
      ("steps", { a with Job.steps = 9 });
      ("h", { a with Job.h = 250e-12 });
      ("probe", { a with Job.probe = Some 3 });
      ("policy", { a with Job.policy = Opera.Galerkin.Fail });
      ("analysis payload", { a with Job.analysis = Job.Yield { budget_pct = 5.0 } });
    ];
  (* Convergence knobs stay out of the OPERATOR signature (same factors)
     but must key the RESULT journal: a looser tolerance can change the
     digits of an iterative record. *)
  let pcg tol = { a with Job.solver = Opera.Galerkin.Mean_pcg { tol; max_iter = 500 } } in
  Alcotest.(check string)
    "pcg tolerance shares the operator"
    (Job.signature (pcg 1e-10)) (Job.signature (pcg 1e-6));
  Alcotest.(check bool) "pcg tolerance changes the result signature" true
    (Job.result_signature (pcg 1e-10) <> Job.result_signature (pcg 1e-6))

let suite =
  [
    Alcotest.test_case "plan groups by operator signature" `Quick test_plan_groups;
    Alcotest.test_case "signature excludes excitation and h" `Quick
      test_signature_excludes_excitation;
    Alcotest.test_case "3 jobs, one grid, one factorization" `Quick
      test_shared_grid_one_factorization;
    Alcotest.test_case "warm run: 0 factorizations, bitwise equal" `Slow
      test_warm_run_zero_factorizations_bitwise;
    Alcotest.test_case "corrupt artifacts rebuild bitwise" `Slow
      test_corrupt_artifact_recovers_bitwise;
    Alcotest.test_case "jobs_parallel never changes the stream" `Slow
      test_jobs_parallel_deterministic;
    Alcotest.test_case "engine transient = Galerkin.solve_transient" `Quick
      test_transient_matches_galerkin;
    Alcotest.test_case "engine special = Special_case.solve" `Quick
      test_special_matches_special_case;
    Alcotest.test_case "job JSON parsing and rejection" `Quick test_job_json;
    Alcotest.test_case "netlist signature tracks file contents" `Quick
      test_signature_tracks_netlist_contents;
    Alcotest.test_case "editing a netlist invalidates its cache entries" `Slow
      test_netlist_edit_invalidates_cache;
    Alcotest.test_case "region_split near-square tilings" `Quick test_region_split;
    Alcotest.test_case "empty batch / bad probe raise Invalid_batch" `Quick test_invalid_batch;
    Alcotest.test_case "resume replays journaled records bitwise" `Slow
      test_resume_replays_bitwise;
    Alcotest.test_case "kill mid-stream, resume completes bitwise" `Slow test_kill_then_resume;
    Alcotest.test_case "shards partition the batch exactly once" `Slow test_shard_partition;
    Alcotest.test_case "streamed JSONL keeps the pre-abort prefix" `Quick
      test_streaming_prefix_survives_abort;
    Alcotest.test_case "registry gc drops only departed journal entries" `Quick
      test_registry_gc;
    Alcotest.test_case "result signature covers record-shaping knobs" `Quick
      test_result_signature_covers_record_knobs;
  ]
