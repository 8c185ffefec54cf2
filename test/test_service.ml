(* The analysis service: admission queue, wire protocol, store
   lifecycle (LRU eviction + registry sweep), the in-process daemon
   end-to-end over a real Unix-domain socket, and crash safety of the
   `opera serve` subprocess (kill mid-request, restart, resubmit —
   bitwise identical response, journal replays covering every job that
   finished before the kill). *)

module J = Util.Json

(* ---- bounded queue ---------------------------------------------------- *)

let test_queue_order_and_capacity () =
  let q = Service.Queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Service.Queue.push q 1);
  Alcotest.(check bool) "push 2" true (Service.Queue.push q 2);
  Alcotest.(check bool) "push 3 rejected (full)" false (Service.Queue.push q 3);
  Alcotest.(check int) "length" 2 (Service.Queue.length q);
  Alcotest.(check (option int)) "pop 1 (FIFO)" (Some 1) (Service.Queue.pop q);
  Alcotest.(check bool) "push 4 after pop" true (Service.Queue.push q 4);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Service.Queue.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Service.Queue.pop q)

let test_queue_close () =
  let q = Service.Queue.create ~capacity:4 in
  Alcotest.(check bool) "push before close" true (Service.Queue.push q 1);
  Service.Queue.close q;
  Alcotest.(check bool) "push after close rejected" false (Service.Queue.push q 2);
  Alcotest.(check (option int)) "queued item still delivered" (Some 1) (Service.Queue.pop q);
  Alcotest.(check (option int)) "drained + closed -> None" None (Service.Queue.pop q);
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Service.Queue.create: capacity must be >= 1") (fun () ->
      ignore (Service.Queue.create ~capacity:0))

let test_queue_blocking_pop () =
  let q = Service.Queue.create ~capacity:1 in
  let consumer = Domain.spawn (fun () -> Service.Queue.pop q) in
  (* The consumer blocks until this push wakes it. *)
  Unix.sleepf 0.02;
  Alcotest.(check bool) "push wakes consumer" true (Service.Queue.push q 42);
  Alcotest.(check (option int)) "consumer got the item" (Some 42) (Domain.join consumer);
  let q2 = Service.Queue.create ~capacity:1 in
  let consumer2 = Domain.spawn (fun () -> Service.Queue.pop q2) in
  Unix.sleepf 0.02;
  Service.Queue.close q2;
  Alcotest.(check (option int)) "close wakes consumer" None (Domain.join consumer2)

(* ---- protocol --------------------------------------------------------- *)

let dc_batch_doc () =
  J.Obj
    [
      ( "defaults",
        J.Obj
          [
            ("nodes", J.Num 60.0);
            ("order", J.Num 1.0);
            ("analysis", J.Str "dc");
            ("solver", J.Str "direct");
          ] );
      ( "jobs",
        J.List
          [
            J.Obj [ ("name", J.Str "a") ];
            J.Obj [ ("name", J.Str "b"); ("drain_scale", J.Num 1.25) ];
          ] );
    ]

let batch_line ?(reuse = true) doc =
  let fields = [ ("op", J.Str "batch"); ("batch", doc) ] in
  let fields = if reuse then fields else fields @ [ ("reuse", J.Bool false) ] in
  J.render (J.Obj fields)

let expect_error what line =
  match Service.Protocol.parse line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: parsed instead of failing" what

let test_protocol_parse () =
  (match Service.Protocol.parse {|{"op":"ping"}|} with
  | Ok Service.Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match Service.Protocol.parse {|{"op":"stats"}|} with
  | Ok Service.Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match Service.Protocol.parse {|{"op":"shutdown"}|} with
  | Ok Service.Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown");
  (match Service.Protocol.parse (batch_line (dc_batch_doc ())) with
  | Ok (Service.Protocol.Batch { jobs; reuse }) ->
      Alcotest.(check int) "jobs parsed" 2 (Array.length jobs);
      Alcotest.(check bool) "reuse defaults on" true reuse
  | _ -> Alcotest.fail "batch");
  (match Service.Protocol.parse (batch_line ~reuse:false (dc_batch_doc ())) with
  | Ok (Service.Protocol.Batch { reuse; _ }) ->
      Alcotest.(check bool) "reuse:false honored" false reuse
  | _ -> Alcotest.fail "batch reuse:false");
  expect_error "not json" "{ nope";
  expect_error "missing op" {|{"batch":{}}|};
  expect_error "non-string op" {|{"op":7}|};
  expect_error "unknown op" {|{"op":"solve-everything"}|};
  expect_error "batch without document" {|{"op":"batch"}|};
  expect_error "batch with a bad document" {|{"op":"batch","batch":{"jobs":[{"nodez":1}]}}|};
  expect_error "batch with an empty document" {|{"op":"batch","batch":{"jobs":[]}}|}

let test_protocol_render () =
  (match J.parse Service.Protocol.pong with
  | Ok j -> Alcotest.(check bool) "pong has pong" true (J.member "pong" j <> None)
  | Error e -> Alcotest.failf "pong unparsable: %s" e);
  (match J.parse (Service.Protocol.done_line ~jobs:7) with
  | Ok j ->
      Alcotest.(check (option int)) "done jobs" (Some 7)
        (Option.bind (J.member "jobs" j) J.to_int)
  | Error e -> Alcotest.failf "done unparsable: %s" e);
  match J.parse (Service.Protocol.error_line "boom \"quoted\"") with
  | Ok j ->
      Alcotest.(check (option string)) "error roundtrip" (Some "boom \"quoted\"")
        (Option.bind (J.member "error" j) J.to_string)
  | Error e -> Alcotest.failf "error unparsable: %s" e

(* ---- store eviction / registry sweep ---------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "opera_service_test" "" in
  Sys.remove dir;
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:rm_rf (fun () -> f dir)

let set_mtime path t = Unix.utimes path t t

let build_artifact store ~key payload =
  Scenario.Store.find_or_build store ~kind:"blob" ~version:1 ~key
    ~encode:(fun v e -> Util.Codec.write_string e v)
    ~decode:Util.Codec.read_string
    ~build:(fun () -> payload)

let test_store_evict_lru () =
  with_temp_dir (fun dir ->
      let metrics = Util.Metrics.create () in
      let store = Scenario.Store.create ~metrics ~dir:(Some dir) () in
      ignore (build_artifact store ~key:"old" (String.make 100 'a'));
      ignore (build_artifact store ~key:"mid" (String.make 100 'b'));
      ignore (build_artifact store ~key:"new" (String.make 100 'c'));
      let file key = Filename.concat dir (Scenario.Store.file_name ~kind:"blob" ~key) in
      set_mtime (file "old") 1000.0;
      set_mtime (file "mid") 2000.0;
      set_mtime (file "new") 3000.0;
      let total =
        Array.fold_left
          (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
          0 (Sys.readdir dir)
      in
      (* Budget for exactly one artifact: the two oldest go. *)
      let removed = Scenario.Store.evict store ~max_bytes:(total / 3) () in
      Alcotest.(check int) "evicted the two oldest" 2 removed;
      Alcotest.(check bool) "oldest gone" false (Sys.file_exists (file "old"));
      Alcotest.(check bool) "middle gone" false (Sys.file_exists (file "mid"));
      Alcotest.(check bool) "newest survives" true (Sys.file_exists (file "new"));
      Alcotest.(check int) "store.evicted counter" 2
        (Util.Metrics.counter metrics "store.evicted");
      Alcotest.(check int) "already under budget: no-op" 0
        (Scenario.Store.evict store ~max_bytes:(total / 3) ()))

let test_store_evict_protect () =
  with_temp_dir (fun dir ->
      let store = Scenario.Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some dir) () in
      ignore (build_artifact store ~key:"old" (String.make 100 'a'));
      ignore (build_artifact store ~key:"new" (String.make 100 'b'));
      let file key = Filename.concat dir (Scenario.Store.file_name ~kind:"blob" ~key) in
      set_mtime (file "old") 1000.0;
      set_mtime (file "new") 2000.0;
      let protected_ = Scenario.Store.file_name ~kind:"blob" ~key:"old" in
      let removed =
        Scenario.Store.evict store ~max_bytes:1 ~protect:(fun f -> f = protected_) ()
      in
      (* The LRU pick is shielded, so the axe falls on the newer file. *)
      Alcotest.(check int) "one eviction" 1 removed;
      Alcotest.(check bool) "protected LRU file survives" true (Sys.file_exists (file "old"));
      Alcotest.(check bool) "unprotected file evicted" false (Sys.file_exists (file "new")))

let test_store_touch_on_hit () =
  with_temp_dir (fun dir ->
      let store = Scenario.Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some dir) () in
      ignore (build_artifact store ~key:"k" "payload");
      let file = Filename.concat dir (Scenario.Store.file_name ~kind:"blob" ~key:"k") in
      set_mtime file 1000.0;
      Alcotest.(check string) "hit returns the artifact" "payload"
        (build_artifact store ~key:"k" "IGNORED: must come from the cache");
      Alcotest.(check bool) "hit refreshed the mtime (LRU clock)" true
        ((Unix.stat file).Unix.st_mtime > 1000.0))

let dc_job name drain_scale =
  {
    Scenario.Job.name;
    source = Scenario.Job.Generated { nodes = 60 };
    analysis = Scenario.Job.Dc;
    order = 1;
    h = 125e-12;
    steps = 1;
    solver = Opera.Galerkin.Direct;
    policy = Opera.Galerkin.Warn;
    sigma_scale = 1.0;
    drain_scale;
    leak_scale = 1.0;
    probe = None;
  }

let test_registry_sweep () =
  with_temp_dir (fun dir ->
      let registry = Scenario.Registry.create ~dir:(Some dir) () in
      let jobs = [| dc_job "a" 1.0; dc_job "b" 1.1; dc_job "c" 1.2 |] in
      Array.iter (fun j -> Scenario.Registry.record registry j (J.Str j.Scenario.Job.name)) jobs;
      Array.iteri
        (fun i j ->
          match Scenario.Registry.path registry j with
          | Some p -> set_mtime p (1000.0 +. (1000.0 *. float_of_int i))
          | None -> Alcotest.fail "registry path missing")
        jobs;
      Alcotest.(check int) "under the cap: no-op" 0
        (Scenario.Registry.sweep registry ~max_entries:3);
      Alcotest.(check int) "sweep drops the two oldest" 2
        (Scenario.Registry.sweep registry ~max_entries:1);
      Alcotest.(check bool) "oldest entry gone" true
        (Scenario.Registry.lookup registry jobs.(0) = None);
      Alcotest.(check bool) "newest entry survives" true
        (Scenario.Registry.lookup registry jobs.(2) = Some (J.Str "c")))

(* ---- in-process daemon over a real socket ----------------------------- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (n - 1)
    | exception e ->
        Unix.close fd;
        raise e
  in
  go 200

let disconnect c =
  flush c.oc;
  Unix.close c.fd

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let is_terminator line =
  match J.parse line with
  | Error _ -> true
  | Ok j ->
      List.exists (fun k -> J.member k j <> None) [ "done"; "error"; "pong"; "stats"; "ok" ]

(* One response: (records, terminator line). *)
let read_response c =
  let rec go acc =
    let l = input_line c.ic in
    if is_terminator l then (List.rev acc, l) else go (l :: acc)
  in
  go []

let rpc c line =
  send c line;
  read_response c

let stats_counter c name =
  let _, line = rpc c {|{"op":"stats"}|} in
  match J.parse line with
  | Ok j -> (
      match Option.bind (J.member "stats" j) (J.member name) with
      | Some v -> Option.value ~default:0 (Option.bind (J.member "value" v) J.to_int)
      | None -> 0)
  | Error e -> Alcotest.failf "stats unparsable: %s" e

let temp_sock () =
  let p = Filename.temp_file "opera_service" ".sock" in
  Sys.remove p;
  p

let server_config ~sock ~cache_dir =
  {
    Service.Server.default_config with
    Service.Server.listen = sock;
    cache_dir;
    metrics = Util.Metrics.create ();
    handle_signals = false;
  }

let with_server config f =
  let server = Domain.spawn (fun () -> Service.Server.run config) in
  let finish () =
    (* Idempotent: tests that already shut the server down just join. *)
    (try
       let c = connect config.Service.Server.listen in
       ignore (rpc c {|{"op":"shutdown"}|});
       disconnect c
     with Unix.Unix_error (_, _, _) | Sys_error _ | End_of_file -> ());
    Domain.join server
  in
  Fun.protect ~finally:finish f

let test_serve_ping_and_errors () =
  let sock = temp_sock () in
  with_server (server_config ~sock ~cache_dir:None) (fun () ->
      let c = connect sock in
      let _, pong = rpc c {|{"op":"ping"}|} in
      Alcotest.(check string) "pong" Service.Protocol.pong pong;
      let _, err = rpc c {|{"op":"frobnicate"}|} in
      Alcotest.(check bool) "unknown op -> error line" true
        (match J.parse err with Ok j -> J.member "error" j <> None | Error _ -> false);
      let _, err2 = rpc c "not json at all" in
      Alcotest.(check bool) "garbage -> error line" true
        (match J.parse err2 with Ok j -> J.member "error" j <> None | Error _ -> false);
      (* A batch the engine refuses is a typed error line, not a raw
         exception string. *)
      let missing =
        J.Obj
          [
            ( "jobs",
              J.List
                [ J.Obj [ ("name", J.Str "m"); ("netlist", J.Str "/nonexistent/grid.sp") ] ] );
          ]
      in
      let _, err3 = rpc c (batch_line missing) in
      Alcotest.(check bool) "missing netlist -> error naming job and file" true
        (match J.parse err3 with
        | Ok j -> (
            match Option.bind (J.member "error" j) J.to_string with
            | Some msg -> String.starts_with ~prefix:"job m: netlist /nonexistent/grid.sp" msg
            | None -> false)
        | Error _ -> false);
      (* The connection survives bad requests. *)
      let _, pong2 = rpc c {|{"op":"ping"}|} in
      Alcotest.(check string) "still serving" Service.Protocol.pong pong2;
      disconnect c)

let test_serve_warm_replay_bitwise () =
  let sock = temp_sock () in
  with_temp_dir (fun cache ->
      with_server (server_config ~sock ~cache_dir:(Some cache)) (fun () ->
          let c = connect sock in
          let line = batch_line (dc_batch_doc ()) in
          let cold_records, cold_done = rpc c line in
          Alcotest.(check int) "cold records" 2 (List.length cold_records);
          Alcotest.(check string) "done line" (Service.Protocol.done_line ~jobs:2) cold_done;
          let f_cold = stats_counter c "engine.factorizations" in
          Alcotest.(check bool) "cold run factored" true (f_cold > 0);

          (* Warm resubmission: zero factorizations, zero solves, the
             bytes of the cold response. *)
          let warm_records, warm_done = rpc c line in
          Alcotest.(check (list string)) "warm records bitwise" cold_records warm_records;
          Alcotest.(check string) "warm done line" cold_done warm_done;
          Alcotest.(check int) "no new factorizations" f_cold
            (stats_counter c "engine.factorizations");
          Alcotest.(check int) "both jobs replayed" 2 (stats_counter c "service.replays");
          Alcotest.(check int) "registry.replays" 2 (stats_counter c "registry.replays");
          Alcotest.(check int) "two requests served" 2 (stats_counter c "service.requests");

          (* reuse:false opts out of replay but not determinism. *)
          let fresh_records, _ = rpc c (batch_line ~reuse:false (dc_batch_doc ())) in
          Alcotest.(check (list string)) "reuse:false still bitwise" cold_records fresh_records;
          Alcotest.(check int) "reuse:false did not replay" 2
            (stats_counter c "service.replays");

          (* Two clients submit the warm batch at once: both requests sit
             in the admission queue together, both replay bitwise. *)
          let clients = [ connect sock; connect sock ] in
          List.iter (fun c' -> send c' line) clients;
          List.iter
            (fun c' ->
              let records, done_line = read_response c' in
              Alcotest.(check (list string)) "concurrent records bitwise" cold_records records;
              Alcotest.(check string) "concurrent done line" cold_done done_line;
              disconnect c')
            clients;
          Alcotest.(check int) "concurrent: no new factorizations" f_cold
            (stats_counter c "engine.factorizations");
          Alcotest.(check int) "concurrent: nothing rejected" 0 (stats_counter c "service.rejects");
          Alcotest.(check int) "concurrent: both requests replayed" 6
            (stats_counter c "service.replays");
          disconnect c))

let test_serve_eviction_keeps_replay_alive () =
  let sock = temp_sock () in
  with_temp_dir (fun cache ->
      let config =
        {
          (server_config ~sock ~cache_dir:(Some cache)) with
          Service.Server.cache_max_bytes = Some 1;
          (* sweep every request, generous entry cap *)
          max_results = Some 16;
          gc_every = 1;
        }
      in
      with_server config (fun () ->
          let c = connect sock in
          let line = batch_line (dc_batch_doc ()) in
          let cold_records, _ = rpc c line in
          (* A 1-byte budget evicts every artifact except the protected
             journal entries of the request itself; eviction runs after
             the response, so sync through a second request. *)
          let warm_records, _ = rpc c line in
          Alcotest.(check (list string)) "warm replay after eviction" cold_records warm_records;
          let kinds =
            Sys.readdir cache |> Array.to_list
            |> List.filter (fun f -> not (String.starts_with ~prefix:"result-" f))
          in
          Alcotest.(check (list string)) "only journal entries survive the 1-byte budget" []
            kinds;
          Alcotest.(check int) "replays came from the journal" 2
            (stats_counter c "service.replays");
          disconnect c))

(* ---- crash safety of the real subprocess ------------------------------ *)

let exe = "../bin/opera_cli.exe"

let spawn_server args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull devnull)

let transient_batch_doc () =
  J.Obj
    [
      ( "defaults",
        J.Obj
          [
            ("nodes", J.Num 120.0);
            ("order", J.Num 2.0);
            ("analysis", J.Str "transient");
            ("solver", J.Str "direct");
            ("steps", J.Num 3.0);
            ("step_ps", J.Num 125.0);
          ] );
      ( "jobs",
        J.List
          (List.init 6 (fun i ->
               J.Obj
                 [
                   ("name", J.Str (Printf.sprintf "t%d" i));
                   ("drain_scale", J.Num (0.8 +. (0.05 *. float_of_int i)));
                 ])) );
    ]

(* The uninterrupted reference: the same batch through the engine
   directly (records are deterministic, so no cache or server is
   needed to know what the daemon must stream). *)
let reference_records doc =
  match Scenario.Job.batch_of_json doc with
  | Error e -> Alcotest.failf "reference batch: %s" e
  | Ok jobs ->
      let config =
        {
          Scenario.Engine.default_config with
          Scenario.Engine.metrics = Util.Metrics.create ();
        }
      in
      let results, _ = Scenario.Engine.run ~config jobs in
      Array.to_list (Array.map (fun r -> J.render r.Scenario.Engine.record) results)

let test_crash_restart_resubmit_bitwise () =
  let sock = temp_sock () in
  with_temp_dir (fun cache ->
      let doc = transient_batch_doc () in
      let expected = reference_records doc in
      let line = batch_line doc in
      let njobs = List.length expected in
      let kill_after = 2 in

      (* First server: read a prefix of the stream, then SIGKILL it
         mid-request. *)
      let pid1 = spawn_server [ "serve"; "--listen"; sock; "--cache-dir"; cache ] in
      let c1 = connect sock in
      send c1 line;
      let prefix = List.init kill_after (fun _ -> input_line c1.ic) in
      Alcotest.(check (list string)) "prefix matches the reference"
        (List.filteri (fun i _ -> i < kill_after) expected)
        prefix;
      Unix.kill pid1 Sys.sigkill;
      ignore (Unix.waitpid [] pid1);
      (try Unix.close c1.fd with Unix.Unix_error (_, _, _) -> ());

      (* Second server on the same cache dir (reclaiming the stale
         socket file the kill left behind): the resubmission must
         stream the reference bitwise, replaying every job the first
         server finished. *)
      let pid2 = spawn_server [ "serve"; "--listen"; sock; "--cache-dir"; cache ] in
      let c2 = connect sock in
      let records, done_line = rpc c2 line in
      Alcotest.(check (list string)) "resubmitted response bitwise" expected records;
      Alcotest.(check string) "done line" (Service.Protocol.done_line ~jobs:njobs) done_line;
      let replays = stats_counter c2 "registry.replays" in
      let writes = stats_counter c2 "registry.writes" in
      Alcotest.(check bool)
        (Printf.sprintf "journal replays (%d) cover the streamed prefix" replays)
        true (replays >= kill_after);
      Alcotest.(check int) "replays + re-runs cover the batch" njobs (replays + writes);

      (* And a third submission is pure replay. *)
      let again, _ = rpc c2 line in
      Alcotest.(check (list string)) "full replay after recovery" expected again;
      Alcotest.(check int) "every job replayed" (replays + writes + njobs)
        (stats_counter c2 "registry.replays" + writes);
      let _, ack = rpc c2 {|{"op":"shutdown"}|} in
      Alcotest.(check string) "shutdown ack" Service.Protocol.shutdown_ack ack;
      disconnect c2;
      ignore (Unix.waitpid [] pid2))

let test_sigterm_drains_and_cleans_up () =
  let sock = temp_sock () in
  with_temp_dir (fun cache ->
      let pid = spawn_server [ "serve"; "--listen"; sock; "--cache-dir"; cache ] in
      let c = connect sock in
      let _, pong = rpc c {|{"op":"ping"}|} in
      Alcotest.(check string) "alive before SIGTERM" Service.Protocol.pong pong;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "SIGTERM drain exited %d" n
      | Unix.WSIGNALED s -> Alcotest.failf "died on signal %d instead of draining" s
      | Unix.WSTOPPED _ -> Alcotest.fail "stopped?");
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
      try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())

let suite =
  [
    Alcotest.test_case "queue: FIFO order and capacity" `Quick test_queue_order_and_capacity;
    Alcotest.test_case "queue: close semantics" `Quick test_queue_close;
    Alcotest.test_case "queue: blocking pop" `Quick test_queue_blocking_pop;
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: response rendering" `Quick test_protocol_render;
    Alcotest.test_case "store: LRU byte-capped eviction" `Quick test_store_evict_lru;
    Alcotest.test_case "store: eviction honors protect" `Quick test_store_evict_protect;
    Alcotest.test_case "store: hits refresh the LRU clock" `Quick test_store_touch_on_hit;
    Alcotest.test_case "registry: count-capped sweep" `Quick test_registry_sweep;
    Alcotest.test_case "serve: ping and malformed requests" `Quick test_serve_ping_and_errors;
    Alcotest.test_case "serve: warm replay is bitwise and solve-free" `Slow
      test_serve_warm_replay_bitwise;
    Alcotest.test_case "serve: eviction spares the journal" `Slow
      test_serve_eviction_keeps_replay_alive;
    Alcotest.test_case "serve: kill, restart, resubmit bitwise" `Slow
      test_crash_restart_resubmit_bitwise;
    Alcotest.test_case "serve: SIGTERM drains and exits 0" `Slow
      test_sigterm_drains_and_cleans_up;
  ]
