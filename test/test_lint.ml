(* Tests for opera-lint v2 (tools/lint): typedtree-driven rule
   catalogue over seeded fixture families, per-closure race accounting,
   waiver handling, the incremental cache, report schemas (JSON v2 and
   SARIF 2.1.0, round-tripped through Util.Json), and the repo's own
   tree staying lint-clean. *)

module L = Lint_engine
module Report = L.Report

(* Tests run from _build/default/test.  The project scan needs the real
   source root (dune files are not copied into _build); from there,
   find_build_root resolves the cmi directories under _build/default.
   Guarded so a sandboxed runner without the source tree skips rather
   than fails. *)
let root =
  let is_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib/util/dune")
  in
  let rec search dir depth =
    if depth > 6 then None
    else if is_root dir then Some dir
    else search (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  match search Filename.current_dir_name 0 with Some d -> d | None -> "."

let fixtures = "test/lint_fixtures"

let have_fixtures =
  Sys.file_exists (Filename.concat root "dune-project")
  && Sys.file_exists (Filename.concat root fixtures)
  && Sys.is_directory (Filename.concat root fixtures)

let when_fixtures f = if have_fixtures then f ()

let run_fixtures ?(config = L.default_config) ?cache_dir paths =
  L.run ~config ?cache_dir ~root paths

let fixture_run = lazy (run_fixtures [ fixtures ])

let counts findings id =
  match List.assoc_opt id (L.summarize findings).Report.per_rule with
  | Some uw -> uw
  | None -> Alcotest.failf "rule %s missing from summary" id

let check_rule findings id expected =
  Alcotest.(check (pair int int)) (id ^ " (unwaived, waived)") expected (counts findings id)

(* --- Findings per rule over the fixture families --------------------- *)

let test_fixture_findings () =
  when_fixtures @@ fun () ->
  let r = Lazy.force fixture_run in
  Alcotest.(check int) "fixture files scanned" 9 r.L.files_scanned;
  check_rule r.L.findings "exact-float" (3, 1);
  check_rule r.L.findings "domain-race" (6, 2);
  check_rule r.L.findings "banned-construct" (4, 1);
  check_rule r.L.findings "unsafe-index" (3, 1);
  check_rule r.L.findings "determinism" (5, 1);
  check_rule r.L.findings "hot-alloc" (3, 1);
  check_rule r.L.findings "resource-safety" (2, 1);
  (* Orphan fixtures are exempt from the missing-mli rule, and all
     fixtures must parse and typecheck. *)
  check_rule r.L.findings "missing-mli" (0, 0);
  check_rule r.L.findings "parse-error" (0, 0);
  check_rule r.L.findings "type-error" (0, 0);
  let s = L.summarize r.L.findings in
  Alcotest.(check int) "total" 34 s.Report.total;
  Alcotest.(check int) "unwaived" 26 s.Report.unwaived;
  Alcotest.(check int) "waived" 8 s.Report.waived;
  Alcotest.(check int) "exit code on seeded violations" 1 (L.exit_code r.L.findings)

let test_finding_positions () =
  when_fixtures @@ fun () ->
  let r = Lazy.force fixture_run in
  List.iter
    (fun (f : L.finding) ->
      Alcotest.(check bool) "file under the fixtures dir" true
        (String.starts_with ~prefix:fixtures f.L.file);
      Alcotest.(check bool) "line >= 1" true (f.L.line >= 1);
      Alcotest.(check bool) "col >= 0" true (f.L.col >= 0))
    r.L.findings;
  let rec sorted = function
    | a :: (b :: _ as rest) -> L.finding_order a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly sorted, duplicate-free" true (sorted r.L.findings)

(* --- Per-closure race accounting ------------------------------------- *)

let test_race_stats () =
  when_fixtures @@ fun () ->
  let r = Lazy.force fixture_run in
  Alcotest.(check int) "closures analyzed" 13 r.L.race.Report.closures;
  Alcotest.(check int) "closures proven disjoint" 5 r.L.race.Report.proven;
  Alcotest.(check int) "closures waived" 2 r.L.race.Report.waived_closures

let test_proven_fixture_is_clean () =
  when_fixtures @@ fun () ->
  (* Every write in fixture_race_proven.ml is provably chunk-disjoint:
     direct parallel-index writes, strided slices, chunk-owned buffers,
     stride-matched Array.fill.  Zero findings, all closures proven. *)
  let r = run_fixtures [ fixtures ^ "/fixture_race_proven.ml" ] in
  Alcotest.(check int) "no findings" 0 (List.length r.L.findings);
  Alcotest.(check int) "closures" 4 r.L.race.Report.closures;
  Alcotest.(check int) "all proven" 4 r.L.race.Report.proven;
  Alcotest.(check int) "none waived" 0 r.L.race.Report.waived_closures

let test_waived_fixture_counts_closures () =
  when_fixtures @@ fun () ->
  let r = run_fixtures [ fixtures ^ "/fixture_race_waived.ml" ] in
  Alcotest.(check bool) "every finding waived" true
    (List.for_all (fun (f : L.finding) -> f.L.waived) r.L.findings);
  Alcotest.(check int) "exit 0 when all waived" 0 (L.exit_code r.L.findings);
  Alcotest.(check int) "closures" 2 r.L.race.Report.closures;
  Alcotest.(check int) "none proven" 0 r.L.race.Report.proven;
  Alcotest.(check int) "both waived" 2 r.L.race.Report.waived_closures

(* --- Config allowlists ------------------------------------------------ *)

let test_unsafe_allowlist () =
  when_fixtures @@ fun () ->
  let config = { L.default_config with L.unsafe_allowlist = [ "fixture_unsafe.ml" ] } in
  let r = run_fixtures ~config [ fixtures ^ "/fixture_unsafe.ml" ] in
  check_rule r.L.findings "unsafe-index" (0, 0)

let test_clock_allowlist () =
  when_fixtures @@ fun () ->
  let config =
    { L.default_config with L.clock_allowlist = [ "fixture_determinism.ml" ] }
  in
  let r = run_fixtures ~config [ fixtures ^ "/fixture_determinism.ml" ] in
  (* Only the wall-clock finding is excused; Hashtbl order and ambient
     Random stay flagged. *)
  check_rule r.L.findings "determinism" (4, 1)

(* --- Single-source behaviours (no cache, hand-built plans) ----------- *)

let adhoc_plan ?(mli = false) ?(exe = false) rel_path =
  {
    L.Project.rel_path;
    unit_name = String.capitalize_ascii (Filename.remove_extension (Filename.basename rel_path));
    alias_opens = [];
    load_dirs = [];
    is_exe = exe;
    mli_exists = mli;
  }

let lint_src ?(config = L.default_config) ?mli ?exe name src =
  let findings, closures, _, _ = L.lint_source config ~plan:(adhoc_plan ?mli ?exe name) src in
  (findings, closures)

let test_clean_source () =
  let findings, closures = lint_src ~mli:true "clean.ml" "let f x = x + 1\n" in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  Alcotest.(check int) "no parallel closures" 0 (List.length closures);
  Alcotest.(check int) "exit 0" 0 (L.exit_code findings)

let test_missing_mli () =
  let findings, _ = lint_src "bare.ml" "let f x = x + 1\n" in
  (match findings with
  | [ f ] ->
      Alcotest.(check bool) "missing-mli rule" true (f.L.rule = L.Missing_mli);
      Alcotest.(check bool) "unwaived" false f.L.waived
  | fs -> Alcotest.failf "expected exactly the missing-mli finding, got %d" (List.length fs));
  (* ... which the 'mli' waiver key excuses ... *)
  let findings, _ = lint_src "bare.ml" "(* opera-lint: mli *)\nlet f x = x + 1\n" in
  Alcotest.(check bool) "waivable" true (List.for_all (fun f -> f.L.waived) findings);
  (* ... and executables are exempt. *)
  let findings, _ = lint_src ~exe:true "main.ml" "let f x = x + 1\n" in
  Alcotest.(check int) "exe exempt" 0 (List.length findings)

let test_exe_exemptions () =
  (* Prints and exit are the whole point of a CLI main. *)
  let findings, _ = lint_src ~exe:true "main.ml" "let () = print_endline \"ok\"\n" in
  Alcotest.(check int) "exe may print" 0 (List.length findings);
  let findings, _ = lint_src ~mli:true "m.ml" "let f () = print_endline \"no\"\n" in
  check_rule findings "banned-construct" (1, 0)

let test_waived_only_exits_zero () =
  let findings, _ = lint_src ~mli:true "w.ml" "let g x = x = 0.0 (* opera-lint: exact *)\n" in
  (match findings with
  | [ f ] -> Alcotest.(check bool) "waived" true f.L.waived
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 0 when all waived" 0 (L.exit_code findings)

let test_waiver_on_previous_line () =
  let findings, _ =
    lint_src ~mli:true "w.ml" "(* opera-lint: exact *)\nlet g x = x = 0.0\n"
  in
  Alcotest.(check bool) "waived via preceding line" true (List.hd findings).L.waived

let test_parse_error () =
  let findings, _ = lint_src ~mli:true "broken.ml" "let = (\n" in
  (match findings with
  | [ f ] -> Alcotest.(check bool) "parse-error rule" true (f.L.rule = L.Parse_failure)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 1 (unwaivable)" 1 (L.exit_code findings)

let test_type_error () =
  let findings, _ = lint_src ~mli:true "ill.ml" "let x : int = \"s\"\n" in
  (match findings with
  | [ f ] -> Alcotest.(check bool) "type-error rule" true (f.L.rule = L.Type_failure)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  (* Parse and type failures have no waiver key: a comment cannot
     excuse a file the analysis could not even read. *)
  let findings, _ =
    lint_src ~mli:true "ill.ml" "let x : int = \"s\" (* opera-lint: type *)\n"
  in
  Alcotest.(check bool) "unwaivable" true
    (List.exists (fun (f : L.finding) -> not f.L.waived) findings)

(* --- Waiver comment parsing ------------------------------------------ *)

let test_line_waives () =
  let check what expected line key =
    Alcotest.(check bool) what expected (L.line_waives line key)
  in
  check "simple" true "x = 0.0 (* opera-lint: exact *)" "exact";
  check "multi-key, first" true "(* opera-lint: exact, unsafe *)" "exact";
  check "multi-key, second" true "(* opera-lint: exact, unsafe *)" "unsafe";
  check "justification text ignored" true
    "(* opera-lint: race — j owns slice [j*n, (j+1)*n) *)" "race";
  check "wrong key" false "(* opera-lint: exact *)" "race";
  check "no marker" false "let x = 0.0" "exact";
  check "prefix does not match" false "(* opera-lint: exacting *)" "exact"

(* --- Incremental cache ------------------------------------------------ *)

let fresh_dir () =
  let marker = Filename.temp_file "opera_lint_test" "" in
  Sys.remove marker;
  let dir = marker ^ ".d" in
  Sys.mkdir dir 0o755;
  dir

let write_src dir name text =
  let oc = open_out_bin (Filename.concat dir name) in
  output_string oc text;
  close_out oc

let finding_keys r =
  List.map
    (fun (f : L.finding) -> (f.L.file, f.L.line, L.rule_id f.L.rule, f.L.waived))
    r.L.findings

let test_incremental_cache () =
  (* A scratch project of two orphan sources with its own cache dir:
     second run is all hits; editing one file re-analyzes exactly that
     file; changing the config re-analyzes everything. *)
  let dir = fresh_dir () in
  let cache_dir = Filename.concat dir "_cache" in
  write_src dir "alpha.ml" "let a x = x + 1\n";
  write_src dir "beta.ml" "let b x = x = 0.0\n";
  let go ?(config = L.default_config) () =
    L.run ~config ~cache_dir ~root:dir [ "." ]
  in
  let cold = go () in
  Alcotest.(check int) "cold: misses" 2 cold.L.cache.Report.misses;
  Alcotest.(check int) "cold: hits" 0 cold.L.cache.Report.hits;
  check_rule cold.L.findings "exact-float" (1, 0);
  let warm = go () in
  Alcotest.(check int) "warm: hits" 2 warm.L.cache.Report.hits;
  Alcotest.(check int) "warm: misses" 0 warm.L.cache.Report.misses;
  Alcotest.(check bool) "cached findings replay identically" true
    (finding_keys cold = finding_keys warm);
  (* Edit one source: exactly one re-analysis. *)
  write_src dir "beta.ml" "let b x = x = 1.0\n";
  let edited = go () in
  Alcotest.(check int) "after edit: hits" 1 edited.L.cache.Report.hits;
  Alcotest.(check int) "after edit: misses" 1 edited.L.cache.Report.misses;
  check_rule edited.L.findings "exact-float" (1, 0);
  (* Flip the rule config: the config digest changes, full re-analysis. *)
  let config = { L.default_config with L.check_mli = false } in
  let flipped = go ~config () in
  Alcotest.(check int) "after config flip: hits" 0 flipped.L.cache.Report.hits;
  Alcotest.(check int) "after config flip: misses" 2 flipped.L.cache.Report.misses;
  (* ... and the flipped config warms its own entries. *)
  let rewarmed = go ~config () in
  Alcotest.(check int) "rewarmed: hits" 2 rewarmed.L.cache.Report.hits

let test_cache_survives_damage () =
  (* A zero-length or truncated cache entry must be dropped and the file
     re-analyzed — the Codec.read_frame Corrupt contract end-to-end. *)
  let dir = fresh_dir () in
  let cache_dir = Filename.concat dir "_cache" in
  write_src dir "gamma.ml" "let c x = x = 0.5\n";
  let go () = L.run ~cache_dir ~root:dir [ "." ] in
  ignore (go ());
  (match Sys.readdir cache_dir with
  | [||] -> Alcotest.fail "cache entry not written"
  | entries ->
      Array.iter
        (fun e -> close_out (open_out_bin (Filename.concat cache_dir e)))
        entries);
  let healed = go () in
  Alcotest.(check int) "damaged entry is a miss, not a crash" 1
    healed.L.cache.Report.misses;
  check_rule healed.L.findings "exact-float" (1, 0)

(* --- JSON report v2, via Util.Json ----------------------------------- *)

let get_exn msg = function Some v -> v | None -> Alcotest.fail msg

let parse_json what text =
  match Util.Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s does not parse: %s" what e

let test_json_report () =
  when_fixtures @@ fun () ->
  let r = Lazy.force fixture_run in
  let report () =
    L.json_report ~files_scanned:r.L.files_scanned ~race:r.L.race ~cache:r.L.cache
      ~timings:r.L.timings r.L.findings
  in
  let text = report () in
  Alcotest.(check string) "deterministic for fixed inputs" text (report ());
  let json = parse_json "json report" text in
  let member k = get_exn ("missing key " ^ k) (Util.Json.member k json) in
  Alcotest.(check (option string)) "tool" (Some "opera-lint")
    (Util.Json.to_string (member "tool"));
  Alcotest.(check (option int)) "version" (Some 2) (Util.Json.to_int (member "version"));
  Alcotest.(check (option int)) "files_scanned" (Some r.L.files_scanned)
    (Util.Json.to_int (member "files_scanned"));
  let s = L.summarize r.L.findings in
  let summary = member "summary" in
  let sfield k = Util.Json.to_int (get_exn ("summary." ^ k) (Util.Json.member k summary)) in
  Alcotest.(check (option int)) "summary.total" (Some s.Report.total) (sfield "total");
  Alcotest.(check (option int)) "summary.unwaived" (Some s.Report.unwaived) (sfield "unwaived");
  Alcotest.(check (option int)) "summary.waived" (Some s.Report.waived) (sfield "waived");
  (* Every rule of the catalogue appears in the per-rule block with the
     summarizer's counts. *)
  let rules = member "rules" in
  List.iter
    (fun rule ->
      let id = L.rule_id rule in
      let entry = get_exn ("rules." ^ id) (Util.Json.member id rules) in
      let field k = Util.Json.to_int (get_exn k (Util.Json.member k entry)) in
      let eu, ew = counts r.L.findings id in
      Alcotest.(check (option int)) (id ^ ".unwaived") (Some eu) (field "unwaived");
      Alcotest.(check (option int)) (id ^ ".waived") (Some ew) (field "waived"))
    L.all_rules;
  (* Race and cache counter blocks. *)
  let race = member "race" in
  let rfield k = Util.Json.to_int (get_exn ("race." ^ k) (Util.Json.member k race)) in
  Alcotest.(check (option int)) "race.closures" (Some r.L.race.Report.closures)
    (rfield "closures");
  Alcotest.(check (option int)) "race.proven" (Some r.L.race.Report.proven)
    (rfield "proven");
  Alcotest.(check (option int)) "race.waived_closures"
    (Some r.L.race.Report.waived_closures)
    (rfield "waived_closures");
  let cache = member "cache" in
  Alcotest.(check (option int)) "cache.hits" (Some r.L.cache.Report.hits)
    (Util.Json.to_int (get_exn "hits" (Util.Json.member "hits" cache)));
  Alcotest.(check (option int)) "cache.misses" (Some r.L.cache.Report.misses)
    (Util.Json.to_int (get_exn "misses" (Util.Json.member "misses" cache)));
  (* Timings are wall-clock and only validated as non-negative numbers. *)
  let timings = member "timings_s" in
  List.iter
    (fun k ->
      let v =
        get_exn ("timings_s." ^ k)
          (Util.Json.to_float (get_exn k (Util.Json.member k timings)))
      in
      Alcotest.(check bool) ("timings_s." ^ k ^ " >= 0") true (v >= 0.))
    [ "total"; "typecheck"; "rules"; "cache" ];
  (* Allowlists are recorded so the report shows what was exempt. *)
  let allowlists = member "allowlists" in
  let allow k =
    List.filter_map Util.Json.to_string
      (get_exn ("allowlists." ^ k)
         (Util.Json.to_list (get_exn ("allowlists." ^ k) (Util.Json.member k allowlists))))
  in
  List.iter
    (fun f -> Alcotest.(check bool) ("unsafe allowlist notes " ^ f) true (List.mem f (allow "unsafe")))
    L.default_config.L.unsafe_allowlist;
  List.iter
    (fun f -> Alcotest.(check bool) ("clock allowlist notes " ^ f) true (List.mem f (allow "clock")))
    L.default_config.L.clock_allowlist;
  let items = get_exn "findings list" (Util.Json.to_list (member "findings")) in
  Alcotest.(check int) "findings length" (List.length r.L.findings) (List.length items);
  let rule_ids = List.map L.rule_id L.all_rules in
  List.iter
    (fun item ->
      let field k = get_exn ("finding." ^ k) (Util.Json.member k item) in
      let rule = get_exn "finding.rule is a string" (Util.Json.to_string (field "rule")) in
      Alcotest.(check bool) ("finding rule " ^ rule ^ " is in the catalogue") true
        (List.mem rule rule_ids);
      List.iter
        (fun k -> ignore (get_exn ("finding." ^ k ^ " is a string") (Util.Json.to_string (field k))))
        [ "file"; "message" ];
      List.iter
        (fun k -> ignore (get_exn ("finding." ^ k ^ " is an integer") (Util.Json.to_int (field k))))
        [ "line"; "col" ];
      Alcotest.(check bool) "finding.waived is a boolean" true
        (match field "waived" with Util.Json.Bool _ -> true | _ -> false))
    items

(* --- SARIF 2.1.0 ------------------------------------------------------ *)

let test_sarif_report () =
  when_fixtures @@ fun () ->
  let r = Lazy.force fixture_run in
  let json = parse_json "sarif report" (L.sarif_report r.L.findings) in
  Alcotest.(check (option string)) "sarif version" (Some "2.1.0")
    (Util.Json.to_string (get_exn "version" (Util.Json.member "version" json)));
  let runs = get_exn "runs" (Util.Json.to_list (get_exn "runs" (Util.Json.member "runs" json))) in
  let run = match runs with [ r ] -> r | _ -> Alcotest.fail "expected exactly one run" in
  let driver =
    get_exn "driver"
      (Util.Json.member "driver" (get_exn "tool" (Util.Json.member "tool" run)))
  in
  Alcotest.(check (option string)) "driver name" (Some "opera-lint")
    (Util.Json.to_string (get_exn "name" (Util.Json.member "name" driver)));
  let rules =
    get_exn "driver rules" (Util.Json.to_list (get_exn "rules" (Util.Json.member "rules" driver)))
  in
  Alcotest.(check int) "one rule descriptor per catalogue rule"
    (List.length L.all_rules) (List.length rules);
  let results =
    get_exn "results" (Util.Json.to_list (get_exn "results" (Util.Json.member "results" run)))
  in
  Alcotest.(check int) "one result per finding" (List.length r.L.findings)
    (List.length results);
  List.iter2
    (fun (f : L.finding) result ->
      Alcotest.(check (option string)) "ruleId" (Some (L.rule_id f.L.rule))
        (Util.Json.to_string (get_exn "ruleId" (Util.Json.member "ruleId" result)));
      Alcotest.(check (option string)) "level"
        (Some (if f.L.waived then "note" else "error"))
        (Util.Json.to_string (get_exn "level" (Util.Json.member "level" result)));
      (* Waived findings carry an in-source suppression; unwaived must not. *)
      let suppressed =
        match Util.Json.member "suppressions" result with
        | Some (Util.Json.List (_ :: _)) -> true
        | _ -> false
      in
      Alcotest.(check bool) "suppression iff waived" f.L.waived suppressed;
      let loc =
        get_exn "locations"
          (Util.Json.to_list (get_exn "locations" (Util.Json.member "locations" result)))
      in
      Alcotest.(check int) "one location" 1 (List.length loc))
    r.L.findings results

(* --- Source collection ------------------------------------------------ *)

let test_collect_skips_fixtures () =
  when_fixtures @@ fun () ->
  let files = L.collect ~root [ "test" ] in
  Alcotest.(check bool) "finds test sources" true
    (List.exists (fun f -> Filename.basename f = "test_lint.ml") files);
  Alcotest.(check bool) "skips lint_fixtures" true
    (List.for_all
       (fun f -> not (String.starts_with ~prefix:(fixtures ^ "/") f))
       files)

(* --- The repo's own tree must be lint-clean --------------------------- *)

let test_repo_tree_clean () =
  let has d = Sys.file_exists (Filename.concat root d) && Sys.is_directory (Filename.concat root d) in
  if has "lib" && has "tools" then begin
    let r = L.run ~root [ "lib"; "tools" ] in
    let describe =
      String.concat "; "
        (List.filter_map
           (fun (f : L.finding) ->
             if f.L.waived then None
             else Some (Printf.sprintf "%s:%d %s" f.L.file f.L.line (L.rule_id f.L.rule)))
           r.L.findings)
    in
    Alcotest.(check string) "lib/ and tools/ have no unwaived findings" "" describe;
    Alcotest.(check int) "exit 0" 0 (L.exit_code r.L.findings);
    (* The kernel files carry analyzed parallel closures, and every one
       is either proven disjoint or waived — never silently dropped. *)
    let race = r.L.race in
    Alcotest.(check bool) "parallel closures analyzed" true (race.Report.closures > 0);
    let unaccounted =
      race.Report.closures - race.Report.proven - race.Report.waived_closures
    in
    Alcotest.(check int) "every closure proven or waived" 0 unaccounted;
    Alcotest.(check bool) "sanctioned waivers recorded" true
      ((L.summarize r.L.findings).Report.waived >= 1)
  end

let suite =
  [
    Alcotest.test_case "fixture findings per rule" `Quick test_fixture_findings;
    Alcotest.test_case "finding positions and ordering" `Quick test_finding_positions;
    Alcotest.test_case "per-closure race stats" `Quick test_race_stats;
    Alcotest.test_case "proven-disjoint fixture is clean" `Quick test_proven_fixture_is_clean;
    Alcotest.test_case "waived closures counted" `Quick test_waived_fixture_counts_closures;
    Alcotest.test_case "unsafe allowlist" `Quick test_unsafe_allowlist;
    Alcotest.test_case "clock allowlist" `Quick test_clock_allowlist;
    Alcotest.test_case "clean source" `Quick test_clean_source;
    Alcotest.test_case "missing-mli rule and exemptions" `Quick test_missing_mli;
    Alcotest.test_case "executables may print" `Quick test_exe_exemptions;
    Alcotest.test_case "waived-only exits zero" `Quick test_waived_only_exits_zero;
    Alcotest.test_case "waiver on previous line" `Quick test_waiver_on_previous_line;
    Alcotest.test_case "parse error is a finding" `Quick test_parse_error;
    Alcotest.test_case "type error is a finding" `Quick test_type_error;
    Alcotest.test_case "waiver comment parsing" `Quick test_line_waives;
    Alcotest.test_case "incremental cache" `Quick test_incremental_cache;
    Alcotest.test_case "damaged cache entries re-analyze" `Quick test_cache_survives_damage;
    Alcotest.test_case "json report v2 schema" `Quick test_json_report;
    Alcotest.test_case "sarif 2.1.0 schema" `Quick test_sarif_report;
    Alcotest.test_case "collect skips fixtures" `Quick test_collect_skips_fixtures;
    Alcotest.test_case "repo lib/ and tools/ are lint-clean" `Quick test_repo_tree_clean;
  ]
