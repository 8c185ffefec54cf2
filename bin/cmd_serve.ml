(* opera serve — the long-running analysis service.

   Listens on a Unix-domain socket (and optionally loopback TCP),
   speaks line-delimited JSON (see Service.Protocol), and runs batch
   submissions through the scenario engine with result-registry replay:
   with --cache-dir, a batch that was already served streams back
   bitwise with zero factorizations and zero solves.  --cache-max-bytes
   and --max-results bound the disk footprint for indefinite uptime;
   SIGTERM/SIGINT (or an {"op":"shutdown"} request) drain the queue and
   exit cleanly. *)

let run argv =
  let listen = ref "opera.sock"
  and tcp = ref None
  and cache_dir = ref None
  and cache_max_bytes = ref None
  and max_results = ref None
  and gc_every = ref 32
  and queue = ref 64
  and jobs_parallel = ref 0
  and domains = ref 0
  and warm_start = ref true
  and metrics_out = ref None
  and log_level = ref Util.Log.Warn in
  let args =
    [
      Util.Args.string [ "--listen" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to serve on (default opera.sock); removed again on \
              shutdown."
        listen;
      Util.Args.string_opt [ "--tcp" ] ~docv:"PORT"
        ~doc:"Also listen on 127.0.0.1:PORT (loopback only)." tcp;
      Cli_common.cache_dir_arg cache_dir;
      Util.Args.string_opt [ "--cache-max-bytes" ] ~docv:"SIZE"
        ~doc:"Keep the cache dir's artifacts under SIZE bytes (K/M/G suffixes allowed) by \
              evicting least-recently-used files after each request.  Needs --cache-dir."
        cache_max_bytes;
      Util.Args.string_opt [ "--max-results" ] ~docv:"N"
        ~doc:"Bound the results journal to the N most recently used entries, enforced every \
              --gc-every requests.  Needs --cache-dir."
        max_results;
      Cli_common.int_at_least 0 [ "--gc-every" ]
        ~doc:"Run the periodic registry GC every N completed requests (default 32; 0 \
              disables)."
        gc_every;
      Util.Args.int [ "--queue" ]
        ~doc:"Admission queue capacity; a submission arriving with the queue full is \
              rejected with a queue-full error (default 64)."
        queue;
      Cli_common.int_at_least 0 [ "--jobs-parallel" ]
        ~doc:"Claim loops per batch request (0 = the OPERA_DOMAINS environment variable, \
              default sequential), on the shared domain pool: loops beyond its \
              recommended_domain_count wait for a domain; inner solver parallelism drops \
              to 1 when > 1."
        jobs_parallel;
      Cli_common.domains_arg domains;
      Cli_common.metrics_out_arg metrics_out;
      Cli_common.warm_start_arg warm_start;
      Cli_common.log_level_arg log_level;
    ]
  in
  Cli_common.dispatch ~prog:"opera serve"
    ~summary:
      "Serve analysis batches over a Unix-domain socket (JSONL protocol): submissions run \
       through the scenario engine with result-registry replay, so repeated batches stream \
       back bitwise without factoring or solving anything."
    ~args ~argv
  @@ fun _positionals ->
  let usage_error msg =
    Printf.eprintf "opera serve: %s\nTry 'opera serve --help'.\n" msg;
    2
  in
  let tcp_port =
    match !tcp with
    | None -> Ok None
    | Some s -> (
        match int_of_string_opt s with
        | Some p when p >= 1 && p <= 65535 -> Ok (Some p)
        | Some p -> Error (Printf.sprintf "--tcp %d: port out of range [1, 65535]" p)
        | None -> Error (Printf.sprintf "--tcp %s: expected a port number" s))
  in
  let max_bytes =
    match !cache_max_bytes with
    | None -> Ok None
    | Some s -> Result.map Option.some (Cli_common.parse_bytes s)
  in
  let max_entries =
    match !max_results with
    | None -> Ok None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok (Some n)
        | Some _ | None -> Error (Printf.sprintf "--max-results %s: expected a count >= 0" s))
  in
  match (tcp_port, max_bytes, max_entries) with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> usage_error msg
  | Ok _, Ok (Some _), _ when !cache_dir = None ->
      usage_error "--cache-max-bytes needs --cache-dir (the artifacts live there)"
  | Ok _, Ok _, Ok (Some _) when !cache_dir = None ->
      usage_error "--max-results needs --cache-dir (the journal lives there)"
  | Ok tcp, Ok cache_max_bytes, Ok max_results -> (
      let config =
        {
          Service.Server.listen = !listen;
          tcp;
          cache_dir = !cache_dir;
          cache_max_bytes;
          max_results;
          gc_every = !gc_every;
          queue_capacity = !queue;
          jobs_parallel = !jobs_parallel;
          domains = !domains;
          warm_start = !warm_start;
          metrics = Util.Metrics.global;
          handle_signals = true;
        }
      in
      try
        Cli_common.with_health ~log_level:!log_level ~metrics_out:!metrics_out @@ fun () ->
        Util.Log.infof "serve: listening on %s%s" !listen
          (match tcp with Some p -> Printf.sprintf " and 127.0.0.1:%d" p | None -> "");
        Service.Server.run config
      with Service.Server.Invalid_config msg -> usage_error msg)
