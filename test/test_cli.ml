(* CLI exit-code discipline, exercised on the real executable.

   Contract (shared by every subcommand through Cli_common.dispatch):
     0  success, --help, --version
     2  unknown subcommand, unknown flag, malformed or out-of-range value,
        unreadable or malformed netlist, bad job file, output file in a
        missing directory
   The tests shell out to the built opera binary (a test dep) with stdout
   sent to /dev/null.  An uncaught OCaml exception also exits 2, so every
   case also asserts that stderr carries no "Fatal error: exception". *)

let exe = "../bin/opera_cli.exe"

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [timeout] bounds a run that might start a daemon: coreutils'
   timeout stops it and exits 124, so the case fails instead of hanging. *)
let run ?timeout args =
  let err = Filename.temp_file "opera_cli_test" ".err" in
  let prefix = match timeout with Some s -> Printf.sprintf "timeout %d " s | None -> "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s%s %s >/dev/null 2>%s" prefix (Filename.quote exe) args
             (Filename.quote err))
      in
      (code, In_channel.with_open_bin err In_channel.input_all))

let check ?timeout ?names what expected args =
  let code, stderr = run ?timeout args in
  Alcotest.(check int) what expected code;
  if contains stderr "Fatal error: exception" then
    Alcotest.failf "%s: uncaught exception on stderr:\n%s" what stderr;
  match names with
  | Some name when not (contains stderr name) ->
      Alcotest.failf "%s: stderr does not name %s:\n%s" what name stderr
  | _ -> ()

let with_temp_file ?(suffix = ".json") contents f =
  let path = Filename.temp_file "opera_cli_test" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "opera_cli_cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_rf (fun () -> f dir)

let tiny_batch =
  {|{"defaults": {"nodes": 120, "steps": 2, "solver": "direct"},
     "jobs": [{"name": "a", "analysis": "dc"},
              {"name": "b", "analysis": "dc", "drain_scale": 1.5}]}|}

let test_help_exits_zero () =
  check "opera --help" 0 "--help";
  check "opera -h" 0 "-h";
  check "opera help" 0 "help";
  check "opera --version" 0 "--version";
  List.iter
    (fun sub -> check (sub ^ " --help") 0 (sub ^ " --help"))
    [ "generate"; "analyze"; "mc"; "compare"; "special"; "batch"; "walk" ];
  check "analyze -h" 0 "analyze -h"

let test_usage_errors_exit_two () =
  check "no arguments" 2 "";
  check "unknown subcommand" 2 "frobnicate";
  check "unknown flag" 2 "analyze --bogus";
  check "unknown flag (generate)" 2 "generate --bogus";
  check "malformed int" 2 "analyze --nodes many";
  check "malformed enum" 2 "analyze --solver qr";
  check "flag missing its value" 2 "analyze --nodes";
  check "unexpected positional" 2 "analyze stray";
  check "batch without a file" 2 "batch";
  check "batch with a missing file" 2 "batch /nonexistent/jobs.json";
  check "batch with extra positionals" 2 "batch a.json b.json";
  check "--resume without --cache-dir" 2 "batch --resume /nonexistent/jobs.json";
  check "--gc-results without --cache-dir" 2 "batch --gc-results /nonexistent/jobs.json";
  check "malformed --shard" 2 "batch --shard x /nonexistent/jobs.json";
  check "--shard missing the slash" 2 "batch --shard 2 /nonexistent/jobs.json";
  check "--shard index out of range" 2 "batch --shard 3/2 /nonexistent/jobs.json";
  check "--shard count of zero" 2 "batch --shard 0/0 /nonexistent/jobs.json";
  check "--shard=I/K malformed (= form)" 2 "batch --shard=3/2 /nonexistent/jobs.json";
  check "batch --cache-max-bytes without --cache-dir" 2
    "batch --cache-max-bytes 1M /nonexistent/jobs.json";
  check "batch malformed --cache-max-bytes" 2
    "batch --cache-dir /tmp --cache-max-bytes lots /nonexistent/jobs.json";
  check "analyze --order 0" 2 "analyze --order 0";
  check "compare --order 0" 2 "compare --order 0";
  check "analyze --steps -3" 2 "analyze --steps -3";
  check "mc --samples 0" 2 "mc --samples 0";
  check "mc --step-ps 0" 2 "mc --step-ps 0";
  check "special --regions -2" 2 "special --regions -2";
  check "generate --nodes 3" 2 "generate --nodes 3";
  check "analyze missing --netlist" 2 "analyze --netlist /nonexistent.sp";
  check "mc missing --netlist" 2 "mc --netlist /nonexistent.sp";
  (* Counts are >= 0 everywhere: a negative one is not "use the
     environment". *)
  let small = "--nodes 100 --steps 2 " in
  check ~names:"--domains" "analyze --domains -3" 2 ("analyze " ^ small ^ "--domains -3");
  check ~names:"--domains" "compare --domains -1" 2
    ("compare " ^ small ^ "--samples 4 --domains -1");
  check ~names:"--domains" "special --domains -2" 2 ("special " ^ small ^ "--domains -2");
  check ~names:"--st-candidates" "analyze --st-candidates -1" 2
    ("analyze " ^ small ^ "--solver st --st-candidates -1");
  check ~names:"--st-candidates" "compare --st-candidates -5" 2
    ("compare " ^ small ^ "--samples 4 --solver st --st-candidates -5");
  (* A candidate bound below the tensor grid that cannot span the
     order-3 basis, and region counts the near-square split cannot
     tile: usage errors naming the flag, not a crash or another run. *)
  check ~names:"--st-candidates" "analyze --st-candidates 2 at order 3" 2
    ("analyze " ^ small ^ "--solver st --order 3 --st-candidates 2");
  check ~names:"--st-candidates" "compare --st-candidates 2 at order 3" 2
    ("compare " ^ small ^ "--samples 4 --solver st --order 3 --st-candidates 2");
  check ~names:"--regions" "special --regions 5" 2 ("special " ^ small ^ "--samples 2 --regions 5");
  check ~names:"--regions" "special --regions 7" 2 ("special " ^ small ^ "--samples 2 --regions 7");
  with_temp_file tiny_batch (fun path ->
      check ~names:"--domains" "batch --domains -1" 2
        ("batch --domains -1 " ^ Filename.quote path);
      check ~names:"--jobs-parallel" "batch --jobs-parallel -2" 2
        ("batch --jobs-parallel -2 " ^ Filename.quote path));
  (* Output files in a missing directory: a usage error naming the path,
     raised before anything is solved. *)
  let out ext = "/nonexistent-dir/out." ^ ext in
  let analyze = "analyze --nodes 100 --steps 2 " in
  check ~names:(out "sp") "generate --out in a missing directory" 2
    ("generate --nodes 100 --out " ^ out "sp");
  check ~names:(out "csv") "analyze --csv in a missing directory" 2 (analyze ^ "--csv " ^ out "csv");
  check ~names:(out "svg") "analyze --svg in a missing directory" 2 (analyze ^ "--svg " ^ out "svg");
  check ~names:(out "json") "analyze --metrics-out in a missing directory" 2
    (analyze ^ "--metrics-out " ^ out "json");
  with_temp_file tiny_batch (fun path ->
      check ~names:(out "jsonl") "batch --stream-out in a missing directory" 2
        ("batch --stream-out " ^ out "jsonl" ^ " " ^ Filename.quote path);
      check ~names:(out "json") "batch --metrics-out in a missing directory" 2
        ("batch --metrics-out " ^ out "json" ^ " " ^ Filename.quote path))

let test_batch_rejects_malformed_jobs () =
  with_temp_file "{ not json" (fun path ->
      check "malformed JSON" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "nodez": 10}]}|} (fun path ->
      check "unknown job field" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": []}|} (fun path ->
      check "empty batch" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"name": "a", "analysis": "dc"}, {"name": "a", "analysis": "dc"}]}|}
    (fun path -> check "duplicate job names" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "special", "regions": 5}]}|} (fun path ->
      check "non-tileable region count" 2 ("batch " ^ Filename.quote path));
  with_temp_file
    {|{"jobs":[{"name":"a","nodes":100,"steps":2,"solver":"st","order":3,"st_candidates":2}]}|}
    (fun path ->
      check ~names:"st_candidates" "st candidates that cannot span the basis" 2
        ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "nodes": 60, "probe": 1000000}]}|} (fun path ->
      check "out-of-range probe" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "nodes": 3}]}|} (fun path ->
      check "grid below the generator minimum" 2 ("batch " ^ Filename.quote path));
  with_temp_file {|{"jobs": [{"analysis": "dc", "netlist": "/nonexistent/grid.sp"}]}|}
    (fun path -> check "missing netlist" 2 ("batch " ^ Filename.quote path));
  (* An indefinite chaos operator fails its factorization: a usage error
     naming the job and its sigma_scale, on the direct and st routes. *)
  List.iter
    (fun (what, solver) ->
      with_temp_file
        (Printf.sprintf {|{"jobs":[{"nodes":100,"steps":2,"sigma_scale":20%s}]}|} solver)
        (fun path -> check ~names:"sigma_scale 20" what 2 ("batch " ^ Filename.quote path)))
    [ ("indefinite operator (direct)", ""); ("indefinite operator (st)", {|,"solver":"st"|}) ];
  (* Numbers that would run to a record of nulls or a silent default. *)
  List.iter
    (fun (field, job) ->
      with_temp_file
        (Printf.sprintf {|{"jobs":[{"nodes":100,"steps":2,%s}]}|} job)
        (fun path -> check ~names:field (field ^ " rejected") 2 ("batch " ^ Filename.quote path)))
    [
      ("step_ps", {|"step_ps":1e999|});
      ("step_ps", {|"step_ps":1e-300|});
      ("sigma_scale", {|"sigma_scale":1e999|});
      ("drain_scale", {|"drain_scale":1e999|});
      ("leak_scale", {|"analysis":"special","leak_scale":1e999|});
      ("lambda", {|"analysis":"special","lambda":-1e999|});
      ("budget_pct", {|"analysis":"yield","budget_pct":1e999|});
      ("probe", {|"probe":-7|});
    ];
  with_temp_file ~suffix:".sp" "R1 n1 n2 1k\nI1 n1 0 PULSE(0 1m\n" (fun netlist ->
      with_temp_file
        (Printf.sprintf {|{"jobs": [{"analysis": "dc", "netlist": %S}]}|} netlist)
        (fun path -> check "malformed netlist" 2 ("batch " ^ Filename.quote path)))

(* serve flag validation: every malformed form must exit 2 before any
   socket is bound (the daemon never starts). *)
let test_serve_usage_errors_exit_two () =
  check "serve --help" 0 "serve --help";
  check "serve unknown flag" 2 "serve --bogus";
  check "serve unexpected positional" 2 "serve stray";
  check "serve --queue 0" 2 "serve --queue 0 --cache-dir /tmp";
  check "serve --queue=0 (= form)" 2 "serve --queue=0 --cache-dir /tmp";
  check "serve --queue=: empty value" 2 "serve --queue= --cache-dir /tmp";
  check "serve malformed --tcp" 2 "serve --tcp nope";
  check "serve --tcp port out of range" 2 "serve --tcp 70000";
  check "serve --cache-max-bytes without --cache-dir" 2 "serve --cache-max-bytes 1M";
  check "serve malformed --cache-max-bytes" 2 "serve --cache-dir /tmp --cache-max-bytes lots";
  check "serve --cache-max-bytes=-1" 2 "serve --cache-dir /tmp --cache-max-bytes=-1";
  check "serve --max-results without --cache-dir" 2 "serve --max-results 100";
  check "serve malformed --max-results" 2 "serve --cache-dir /tmp --max-results some";
  check "serve empty --listen" 2 "serve --listen= --cache-dir /tmp --queue 0";
  (* a listen path occupied by a regular file is refused (Invalid_config -> 2) *)
  with_temp_file "not a socket" (fun path ->
      check "serve --listen over a regular file" 2 ("serve --listen " ^ Filename.quote path));
  (* Negative counts: were one accepted, the daemon would start and
     serve until the timeout stops it. *)
  with_temp_dir (fun dir ->
      let listen = "serve --listen " ^ Filename.quote (Filename.concat dir "s.sock") in
      List.iter
        (fun (flag, value) ->
          check ~timeout:10 ~names:flag
            (Printf.sprintf "serve %s %s" flag value)
            2
            (Printf.sprintf "%s %s %s" listen flag value))
        [ ("--jobs-parallel", "-2"); ("--domains", "-1"); ("--gc-every", "-1") ])

let test_batch_runs_a_tiny_batch () =
  with_temp_file tiny_batch (fun path ->
      check "tiny batch runs clean" 0 ("batch " ^ Filename.quote path);
      check "dry-run plans without solving" 0 ("batch --dry-run " ^ Filename.quote path))

let test_batch_resume_and_shard_exit_zero () =
  with_temp_file
    {|{"defaults": {"nodes": 120, "steps": 2, "solver": "direct"},
       "jobs": [{"name": "a", "analysis": "dc"},
                {"name": "b", "analysis": "dc", "drain_scale": 1.5}]}|}
    (fun path ->
      with_temp_dir (fun dir ->
          let d = Filename.quote dir and p = Filename.quote path in
          check "cold cached batch" 0 (Printf.sprintf "batch --cache-dir %s %s" d p);
          check "resumed batch" 0 (Printf.sprintf "batch --cache-dir %s --resume %s" d p);
          (* with 2 jobs one of the 2 shards may be empty; both must still
             succeed, and together they cover the batch *)
          check "shard 0/2" 0 (Printf.sprintf "batch --cache-dir %s --shard 0/2 %s" d p);
          check "shard 1/2" 0 (Printf.sprintf "batch --cache-dir %s --shard 1/2 %s" d p);
          check "gc keeps a live batch" 0
            (Printf.sprintf "batch --cache-dir %s --resume --gc-results %s" d p)))

let suite =
  [
    Alcotest.test_case "--help and --version exit 0" `Quick test_help_exits_zero;
    Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors_exit_two;
    Alcotest.test_case "bad job files exit 2" `Quick test_batch_rejects_malformed_jobs;
    Alcotest.test_case "serve usage errors exit 2" `Quick test_serve_usage_errors_exit_two;
    Alcotest.test_case "a tiny batch exits 0" `Slow test_batch_runs_a_tiny_batch;
    Alcotest.test_case "resume and shard flags exit 0" `Slow test_batch_resume_and_shard_exit_zero;
  ]
