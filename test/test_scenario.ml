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

let run ?cache_dir ?(jobs_parallel = 1) ?(domains = 1) ?(resume = false) ?shard ?metrics
    ?(precond = Linalg.Precond.Cholesky) ?(warm_start = true) ?emit jobs =
  let metrics = match metrics with Some m -> m | None -> Util.Metrics.create () in
  let config =
    { Engine.cache_dir; jobs_parallel; domains; metrics; warm_start; precond; resume; shard }
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

(* Direct, special and st jobs at two step sizes: 19 factor tasks
   shared across 11 jobs. *)
let mixed_batch () =
  let h2 = 250e-12 in
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

let counts (s : Engine.summary) =
  (s.Engine.factorizations, s.Engine.cache_hits, s.Engine.cache_misses)

(* Factors and jobs share the claim loop, so a cold run at several
   domains builds factors concurrently, through one store, while other
   jobs run: the stream, the factorization count and the store traffic
   must not depend on how many domains did that. *)
let test_jobs_parallel_deterministic () =
  let jobs = mixed_batch () in
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

(* --- claim loops on the persistent pool ------------------------------- *)

(* The emitted stream (not the result array) and the summary of one
   cold run in a fresh cache dir, plus the pool dispatches it made. *)
let streamed ~jobs_parallel jobs =
  let lines = ref [] in
  let emit r = lines := Util.Json.render r.Engine.record :: !lines in
  let before = Util.Parallel.pool_dispatches () in
  let _, summary = run ~cache_dir:(fresh_dir ()) ~jobs_parallel ~emit jobs in
  (List.rev !lines, summary, Util.Parallel.pool_dispatches () - before)

(* A batch's claim loops are one dispatch of the persistent pool: no
   domain is spawned per batch, and the stream is the sequential one. *)
let test_fanout_on_pool () =
  let jobs = mixed_batch () in
  Helpers.with_pool_cap (Some 1) (fun () ->
      let reference, ref_s, _ = streamed ~jobs_parallel:1 jobs in
      let stream, s, dispatches = streamed ~jobs_parallel:2 jobs in
      Alcotest.(check int) "one pool dispatch per batch" 1 dispatches;
      Alcotest.(check (list string)) "stream" reference stream;
      Alcotest.(check (triple int int int)) "counts" (counts ref_s) (counts s))

(* More claim loops than domains: with no worker the four loops run one
   after another on the caller, with one worker two at a time, so a
   loop may wait for a factor another loop is building, or start after
   every claim is taken.  Neither may change a record or a count. *)
let test_more_loops_than_domains () =
  let jobs = mixed_batch () in
  let reference, ref_s, _ = streamed ~jobs_parallel:1 jobs in
  List.iter
    (fun (cap, expected_dispatches) ->
      Helpers.with_pool_cap (Some cap) (fun () ->
          let tag what = Printf.sprintf "4 loops on %d worker(s): %s" cap what in
          let stream, s, dispatches = streamed ~jobs_parallel:4 jobs in
          Alcotest.(check int) (tag "pool dispatches") expected_dispatches dispatches;
          Alcotest.(check (list string)) (tag "stream") reference stream;
          Alcotest.(check (triple int int int)) (tag "counts") (counts ref_s) (counts s)))
    [ (0, 0); (1, 1) ]

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
  (* Every group that names a netlist shares one parse, and a missing
     one names the first job whose group reads it. *)
  expect_invalid "missing netlist, two groups" ~prefix:"job nl-st: netlist /nonexistent/grid.sp"
    ~records:[]
    [|
      base_job "ok";
      { (base_job "nl-st") with Job.source = Job.Netlist "/nonexistent/grid.sp"; solver = st_solver };
      { (base_job "nl") with Job.source = Job.Netlist "/nonexistent/grid.sp" };
    |];
  (* An indefinite chaos operator fails its factor task: every job that
     needs the failed factor fails, the earliest is re-raised, and no
     record at or past it leaves — on the direct and the st route. *)
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
  let cold_metrics = Util.Metrics.create () in
  let cold_results, cold_summary = run ~cache_dir ~metrics:cold_metrics jobs in
  Alcotest.(check int) "cold run journals every job" 3 cold_summary.Engine.journaled;
  Alcotest.(check int) "cold run replays nothing" 0 cold_summary.Engine.replayed;
  Alcotest.(check int) "one registry.write_s per journaled record"
    (Util.Metrics.counter cold_metrics "registry.writes")
    (Util.Metrics.observations cold_metrics "registry.write_s");
  (* Resume: every record replays from the journal; no job executes. *)
  let metrics = Util.Metrics.create () in
  let resumed_results, resumed_summary = run ~cache_dir ~resume:true ~metrics jobs in
  Alcotest.(check int) "resume replays every job" 3 resumed_summary.Engine.replayed;
  Alcotest.(check int) "resume journals nothing new" 0 resumed_summary.Engine.journaled;
  Alcotest.(check int) "resume factors nothing" 0 resumed_summary.Engine.factorizations;
  Alcotest.(check int) "no job executed" 0 (Util.Metrics.counter metrics "engine.jobs");
  Alcotest.(check int) "one registry.read_s per replayed record"
    (Util.Metrics.counter metrics "registry.replays")
    (Util.Metrics.observations metrics "registry.read_s");
  Alcotest.(check int) "journal reads stay out of store.read_s" 0
    (Util.Metrics.observations metrics "store.read_s");
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
  Alcotest.(check bool) "the summary line names the corrupt entry" true
    (contains (Engine.summary_line damaged_summary) "2 replayed (1 corrupt)");
  Alcotest.(check (list string))
    "stream after journal damage still matches the cold run bitwise"
    (records_of cold_results) (records_of damaged_results);
  (* ...and the journal healed: a further resume replays everything. *)
  let _, healed = run ~cache_dir ~resume:true jobs in
  Alcotest.(check int) "healed journal replays every job" 3 healed.Engine.replayed;
  (* Zero-length journal entry (a crash between open and first write):
     Codec.read_frame raises Corrupt, and the registry must take the same
     drop-and-re-run path, not crash or replay an empty record. *)
  (match Scenario.Registry.path registry jobs.(1) with
  | Some path -> close_out (open_out_bin path)
  | None -> Alcotest.fail "registry path missing");
  let zeroed_results, zeroed_summary = run ~cache_dir ~resume:true jobs in
  Alcotest.(check int) "zero-length entry dropped" 1 zeroed_summary.Engine.registry_corrupt;
  Alcotest.(check int) "its job re-runs and re-journals" 1 zeroed_summary.Engine.journaled;
  Alcotest.(check (list string))
    "stream after zero-length damage still matches the cold run bitwise"
    (records_of cold_results) (records_of zeroed_results);
  (* The preconditioner and warm starts move an iterative record's
     digits without touching the job, so they key the journal too: a
     record replays only under the settings that computed it. *)
  let mf = Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 } in
  let iterative =
    [|
      { (base_job "mf0") with Job.analysis = Job.Transient; solver = mf };
      { (base_job "mf1") with Job.analysis = Job.Transient; solver = mf; drain_scale = 1.5 };
    |]
  in
  let amg = Linalg.Precond.Amg and cholesky = Linalg.Precond.Cholesky in
  let _ = run ~cache_dir ~precond:amg iterative in
  List.iter
    (fun (what, precond, warm_start) ->
      let fresh, _ = run ~precond ~warm_start iterative in
      let resumed, s = run ~cache_dir ~resume:true ~precond ~warm_start iterative in
      Alcotest.(check int) (what ^ ": nothing replays across settings") 0 s.Engine.replayed;
      Alcotest.(check (list string))
        (what ^ ": the stream is a fresh run's") (records_of fresh) (records_of resumed))
    [ ("amg -> cholesky", cholesky, true); ("warm start on -> off", amg, false) ];
  let _, same = run ~cache_dir ~resume:true ~precond:amg iterative in
  Alcotest.(check int) "the journaling settings replay" 2 same.Engine.replayed;
  (* --gc-results keys the same way: under amg it keeps the two amg
     entries and drops the 3 + 2 + 2 journaled under other settings. *)
  Alcotest.(check int) "gc keeps only its own settings' entries" 7
    (Scenario.Registry.gc
       (Scenario.Registry.create ~precond:amg ~dir:(Some cache_dir) ())
       ~keep:(Array.append jobs iterative))

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
  (* DC, transient and special-case corners on one grid: three operator
     groups, so every shard needs factors another shard may have built. *)
  let jobs =
    Array.init 7 (fun i ->
        let analysis =
          match i mod 3 with
          | 0 -> Job.Dc
          | 1 -> Job.Transient
          | _ -> Job.Special { regions = 4; lambda = 0.5 }
        in
        {
          (base_job (Printf.sprintf "j%d" i)) with
          Job.analysis;
          drain_scale = 1.0 +. (0.1 *. float_of_int i);
        })
  in
  let names jobs = Array.to_list (Array.map (fun (r : Engine.result) -> r.Engine.job.Job.name) jobs) in
  let unsharded, cold = run ~cache_dir:(fresh_dir ()) jobs in
  let unsharded = records_of unsharded in
  Alcotest.(check bool) "the cold run factors" true (cold.Engine.factorizations > 0);
  List.iter
    (fun k ->
      (* The k shards cooperate through one cache dir, as k processes
         sharing --cache-dir do. *)
      let cache_dir = fresh_dir () in
      let factored = ref 0 in
      let slices =
        List.init k (fun i ->
            let results, s = run ~cache_dir ~shard:(i, k) jobs in
            factored := !factored + s.Engine.factorizations;
            Alcotest.(check int)
              (Printf.sprintf "summary jobs = slice size (shard %d/%d)" i k)
              (Array.length results) s.Engine.jobs;
            (* Each shard keeps batch order and is exactly the subset the
               index hash assigns to it, byte for byte the unsharded
               run's records. *)
            let mine l = List.filteri (fun idx _ -> Engine.shard_of idx ~shards:k = i) l in
            Alcotest.(check (list string))
              (Printf.sprintf "shard %d/%d is its hash slice, in batch order" i k)
              (List.map (fun (j : Job.t) -> j.Job.name) (mine (Array.to_list jobs)))
              (names results);
            Alcotest.(check (list string))
              (Printf.sprintf "shard %d/%d streams the unsharded records" i k)
              (mine unsharded) (records_of results);
            names results)
        |> List.concat
      in
      (* Completeness and disjointness: k shards together are a
         permutation-free partition — every job exactly once. *)
      Alcotest.(check (list string))
        (Printf.sprintf "%d shards cover every job exactly once" k)
        (List.sort compare (Array.to_list (Array.map (fun (j : Job.t) -> j.Job.name) jobs)))
        (List.sort compare slices);
      (* Shared store, no duplicated work: together the shards factor
         exactly as often as one cold run. *)
      Alcotest.(check int)
        (Printf.sprintf "%d shards factor as often as one cold run" k)
        cold.Engine.factorizations !factored)
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

(* --- cohorts never change a record ------------------------------------ *)

(* Jobs of one operator group that apply the same factors in the same
   order: two direct DC jobs, a direct transient/yield cohort of four, a
   transient at a second h and one at a second step count, three st
   transients and an st DC job — each with its own drain_scale and
   probe, interleaved in the batch. *)
let cohort_jobs () =
  let job name analysis solver drain probe =
    { (base_job name) with Job.analysis; solver; drain_scale = drain; probe = Some probe }
  in
  let direct = Opera.Galerkin.Direct and st = Opera.Galerkin.default_st in
  [|
    job "dc0" Job.Dc direct 0.9 3;
    job "tr0" Job.Transient direct 1.1 17;
    job "st0" Job.Transient st 0.8 40;
    job "dc1" Job.Dc direct 1.2 5;
    job "tr1" Job.Transient direct 0.7 60;
    { (job "tr-h2" Job.Transient direct 1.05 11) with Job.h = 250e-12 };
    job "y0" (Job.Yield { budget_pct = 5.0 }) direct 1.3 80;
    job "st1" Job.Transient st 1.15 7;
    job "tr2" Job.Transient direct 0.95 100;
    { (job "tr-s6" Job.Transient direct 0.85 21) with Job.steps = 6 };
    job "st-dc" Job.Dc st 1.25 33;
    job "st2" Job.Transient st 0.75 90;
  |]

(* The shape of the benchmark's corner sweep on a small generated grid:
   4 direct DC, 5 transient and 3 yield corners, 6 order-3 st
   transients, 4 matrix-free transients and 8 special-case corners. *)
let sweep_shape_jobs () =
  let drains = [| 0.85; 0.9; 1.0; 1.05; 1.1; 1.2 |] in
  let corner prefix count f =
    Array.init count (fun i ->
        let job = base_job (Printf.sprintf "%s%d" prefix i) in
        f { job with Job.drain_scale = drains.(i) } i)
  in
  let mf =
    match Job.solver_of_string "matrix-free" with Ok s -> s | Error e -> failwith e
  in
  Array.concat
    [
      corner "dc" 4 (fun j _ -> j);
      corner "tr" 5 (fun j _ -> { j with Job.analysis = Job.Transient });
      corner "y" 3 (fun j i ->
          { j with Job.analysis = Job.Yield { budget_pct = 5.0 +. (0.3 *. float_of_int i) } });
      corner "st" 6 (fun j _ ->
          { j with Job.analysis = Job.Transient; solver = st_solver; order = 3 });
      corner "mf" 4 (fun j _ -> { j with Job.analysis = Job.Transient; solver = mf });
      Array.init 8 (fun i ->
          {
            (base_job (Printf.sprintf "sp%d" i)) with
            Job.analysis = Job.Special { regions = 4; lambda = 0.2 +. (0.075 *. float_of_int i) };
            leak_scale = 0.5 +. (0.125 *. float_of_int i);
          });
    ]

(* Every job of the cohort batch, run in one batch at any
   jobs_parallel and domain count, has the record it has when it runs
   alone: a column of a block solve or of a lockstep is bitwise its
   single-vector solve. *)
let test_cohorts_never_change_a_record () =
  let jobs = cohort_jobs () in
  let alone =
    Array.to_list (Array.map (fun job -> List.hd (records_of (fst (run [| job |])))) jobs)
  in
  List.iter
    (fun (jobs_parallel, domains) ->
      let results, _ = run ~jobs_parallel ~domains jobs in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs_parallel=%d domains=%d: each record as run alone" jobs_parallel
           domains)
        alone (records_of results))
    [ (1, 1); (1, 3); (2, 1); (2, 3); (4, 1); (4, 3) ]

(* The corner sweep plans 16 claims: the four direct DC corners, the
   eight transient and yield corners as 4 + 4, the six st corners as
   one, and twelve claims of one.  The factorization and refinement
   counts are the ones recorded before cohorts existed. *)
let test_sweep_shape_claims () =
  let jobs = sweep_shape_jobs () in
  Alcotest.(check (list (list int)))
    "claims"
    ([ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9; 10; 11 ]; [ 12; 13; 14; 15; 16; 17 ] ]
    @ List.init 12 (fun i -> [ 18 + i ]))
    (Array.to_list
       (Array.map Array.to_list (Engine.cohorts ~precond:Linalg.Precond.Cholesky jobs)));
  let metrics = Util.Metrics.create () in
  let _ = run ~jobs_parallel:2 ~metrics jobs in
  let count = Util.Metrics.counter metrics in
  Alcotest.(check int) "engine.cohorts" 16 (count "engine.cohorts");
  Alcotest.(check int) "engine.jobs" 30 (count "engine.jobs");
  Alcotest.(check int) "engine.cohort_columns observations" 16
    (Util.Metrics.observations metrics "engine.cohort_columns");
  Helpers.check_float ~eps:0.0 "engine.cohort_columns sum" 30.0
    (Util.Metrics.total metrics "engine.cohort_columns");
  (* one DC block solve, then two transient chunks of 4 steps *)
  Alcotest.(check int) "engine.step_s: one per cohort step" 9
    (Util.Metrics.observations metrics "engine.step_s");
  Alcotest.(check int) "engine.factorizations" 15 (count "engine.factorizations");
  Alcotest.(check int) "st.refine_sweeps" 732 (count "st.refine_sweeps");
  (* under an approximate mean solver st jobs run alone *)
  Alcotest.(check int) "claims under --precond amg" 21
    (Array.length (Engine.cohorts ~precond:Linalg.Precond.Amg jobs))

(* --- a record waits only for the factors it applies -------------------- *)

let chol_files dir =
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix:"chol-" f && Filename.check_suffix f ".opra" then acc + 1
      else acc)
    0 (Sys.readdir dir)

(* At one domain the first record leaves as soon as the factors its own
   route applies exist: a direct DC corner needs Gt but not Gt + Ct/h,
   an st DC corner G(0) but no testing-point factor, and a transient at
   the smaller step neither step's factor at the larger one.  The
   factors on disk when the first record reaches [emit] show it.  A
   lone domain always has a factor task or a ready chunk to claim, so
   it never waits. *)
let test_record_waits_only_for_its_factors () =
  let tr name = { (base_job name) with Job.analysis = Job.Transient } in
  let sp name = { (base_job name) with Job.analysis = Job.Special { regions = 4; lambda = 0.5 } } in
  let st job = { job with Job.solver = st_solver } in
  let h2 = 250e-12 in
  List.iter
    (fun (what, jobs, want) ->
      let cache_dir = fresh_dir () in
      let at_first = ref None in
      let emit _ = if Option.is_none !at_first then at_first := Some (chol_files cache_dir) in
      let metrics = Util.Metrics.create () in
      let results, _ = run ~cache_dir ~metrics ~emit jobs in
      Alcotest.(check (option int))
        (what ^ ": factors on disk at the first record")
        (Some want) !at_first;
      Alcotest.(check int)
        (what ^ ": a lone domain never waits")
        0
        (Util.Metrics.observations metrics "engine.wait_s");
      let alone =
        List.concat_map (fun job -> records_of (fst (run [| job |]))) (Array.to_list jobs)
      in
      Alcotest.(check (list string)) (what ^ ": each record as run alone") alone (records_of results);
      Alcotest.(check (list string))
        (what ^ ": the stream at jobs_parallel 2")
        alone
        (records_of (fst (run ~jobs_parallel:2 jobs))))
    [
      ("direct [dc; tr]", [| base_job "dc"; tr "tr" |], 1);
      ("st [st-dc; st-tr]", [| st (base_job "st-dc"); st (tr "st-tr") |], 1);
      ("direct [tr at h1; tr at h2]", [| tr "tr"; { (tr "tr-h2") with Job.h = h2 } |], 2);
      ("special [sp at h1; sp at h2]", [| sp "sp"; { (sp "sp-h2") with Job.h = h2 } |], 2);
    ]

(* --- the one-loop schedule, pinned --------------------------------------- *)

(* At one loop the claim order is a pure function of the batch, and the
   factors on disk when each record reaches [emit] trace it.  The
   corner sweep's records, in input order: the DC cohort after [Gt];
   the transient and yield cohorts after [Gt + Ct/h]; the st cohort
   after [G(0)] and its ten point factors, the matrix-free corners
   (no factor) with it; the special corners after [G] and [G + C/h].
   Recorded before the claim loop became a scheduler module.  A loop
   that claimed factor tasks ahead of a ready head chunk would show
   all 15 factors at every record. *)
let pinned_sweep_schedule =
  List.concat
    [
      List.init 4 (fun _ -> 1);
      List.init 8 (fun _ -> 2);
      List.init 10 (fun _ -> 13);
      List.init 8 (fun _ -> 15);
    ]

let test_one_loop_schedule_pinned () =
  let cache_dir = fresh_dir () in
  let seen = ref [] in
  let emit _ = seen := chol_files cache_dir :: !seen in
  let _ = run ~cache_dir ~emit (sweep_shape_jobs ()) in
  Alcotest.(check (list int))
    "factors on disk as each record reaches emit" pinned_sweep_schedule (List.rev !seen)

(* --- one parse per netlist ---------------------------------------------- *)

let test_netlist_parsed_once () =
  let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default 60 in
  let path = Filename.temp_file "opera_netlist" ".sp" in
  write_file path (Powergrid.Netlist.to_string (Powergrid.Grid_gen.generate spec));
  let mf = Opera.Galerkin.Matrix_free_pcg { tol = 1e-10; max_iter = 500 } in
  let on_netlist name solver =
    { (base_job name) with Job.source = Job.Netlist path; analysis = Job.Transient; solver }
  in
  let jobs =
    [| on_netlist "direct" Opera.Galerkin.Direct; on_netlist "st" st_solver; on_netlist "mf" mf |]
  in
  let metrics = Util.Metrics.create () in
  let results, summary = run ~metrics jobs in
  Alcotest.(check int) "three operator groups" 3 summary.Engine.groups;
  Alcotest.(check int) "engine.netlists" 1 (Util.Metrics.counter metrics "engine.netlists");
  let alone = List.concat_map (fun job -> records_of (fst (run [| job |]))) (Array.to_list jobs) in
  Alcotest.(check (list string)) "each record as run alone" alone (records_of results);
  Sys.remove path

(* --- round-off routes pinned across commits ---------------------------- *)

(* The determinism cases above compare runs of one build; this one pins
   the bytes of the routes whose records are exact functions of their
   kernels' operation order — direct, special case, st and pcg, under
   the exact and the AMG mean solver — to digests recorded before the
   multi-vector kernels replaced the per-block loops.  A kernel that
   reorders one sum moves a record's last bit and fails here.
   Matrix-free is left out: its term-matrix pass reorders sums. *)
let pinned_roundoff_digests =
  [
    (Linalg.Precond.Cholesky, "ffd882efc469e5404e90fc667771e16c");
    (Linalg.Precond.Amg, "98e8422816c1d9b932ea518b597e732a");
  ]

(* The cohort batch's digests, recorded before jobs sharing a factor
   stepped together. *)
let pinned_cohort_digests =
  [
    (Linalg.Precond.Cholesky, "e695cebb56cf98a57879e4ffd291244f");
    (Linalg.Precond.Amg, "aa1bec635f01fadff46a8e3dd2df0712");
  ]

let test_roundoff_routes_pinned () =
  let pin name analysis solver =
    {
      (base_job name) with
      Job.source = Job.Generated { nodes = 400 };
      analysis;
      solver;
    }
  in
  let pcg = Opera.Galerkin.Mean_pcg { tol = 1e-10; max_iter = 500 } in
  let jobs =
    [|
      pin "dc" Job.Dc Opera.Galerkin.Direct;
      pin "tr" Job.Transient Opera.Galerkin.Direct;
      pin "sp" (Job.Special { regions = 4; lambda = 0.5 }) Opera.Galerkin.Direct;
      pin "st-dc" Job.Dc Opera.Galerkin.default_st;
      pin "st-tr" Job.Transient Opera.Galerkin.default_st;
      pin "pcg-dc" Job.Dc pcg;
      pin "pcg-tr" Job.Transient pcg;
    |]
  in
  List.iter
    (fun (precond, want) ->
      let results, _ = run ~precond jobs in
      Alcotest.(check string)
        ("records under --precond " ^ Linalg.Precond.to_string precond)
        want
        (Digest.to_hex (Digest.string (String.concat "\n" (records_of results)))))
    pinned_roundoff_digests;
  List.iter
    (fun (precond, want) ->
      let results, _ = run ~precond (cohort_jobs ()) in
      Alcotest.(check string)
        ("cohort batch under --precond " ^ Linalg.Precond.to_string precond)
        want
        (Digest.to_hex (Digest.string (String.concat "\n" (records_of results)))))
    pinned_cohort_digests

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
    Alcotest.test_case "round-off routes pinned across commits" `Slow
      test_roundoff_routes_pinned;
    Alcotest.test_case "cohorts never change a record" `Slow test_cohorts_never_change_a_record;
    Alcotest.test_case "corner-sweep shape: 16 claims" `Slow test_sweep_shape_claims;
    Alcotest.test_case "a record waits only for the factors it applies" `Slow
      test_record_waits_only_for_its_factors;
    Alcotest.test_case "the one-loop corner-sweep schedule is pinned" `Slow
      test_one_loop_schedule_pinned;
    Alcotest.test_case "each netlist is parsed once per run" `Quick test_netlist_parsed_once;
    Alcotest.test_case "claim loops are one pool dispatch" `Slow test_fanout_on_pool;
    Alcotest.test_case "more claim loops than domains" `Slow test_more_loops_than_domains;
  ]
