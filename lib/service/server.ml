(* The `opera serve` daemon: a socket front-end over Scenario.Engine.

   One reader domain (the caller of [run]) owns the listeners and every
   connection: it accepts, splits the byte stream into request lines,
   answers ping/stats/shutdown inline and pushes batch submissions into
   the bounded admission queue.  One executor domain drains that queue
   FIFO and runs each batch through the engine with [resume] on, so a
   previously completed submission replays bitwise from the results
   registry — zero factorizations, zero solves — and streams to the
   owning client as records become available.

   Responses from both domains interleave safely through a
   per-connection write mutex; the registries behind [cfg.metrics] are
   not thread-safe, so every touch goes through one server-wide metrics
   mutex.  Shutdown (SIGTERM/SIGINT or the shutdown op) stops the
   accept loop, closes the queue, lets the executor finish everything
   admitted, then closes the sockets and removes the socket file. *)

exception Invalid_config of string

type config = {
  listen : string;
  tcp : int option;
  cache_dir : string option;
  cache_max_bytes : int option;
  max_results : int option;
  gc_every : int;
  queue_capacity : int;
  jobs_parallel : int;
  domains : int;
  warm_start : bool;
  metrics : Util.Metrics.t;
  handle_signals : bool;
}

let default_config =
  {
    listen = "opera.sock";
    tcp = None;
    cache_dir = None;
    cache_max_bytes = None;
    max_results = None;
    gc_every = 32;
    queue_capacity = 64;
    jobs_parallel = 0;
    domains = 0;
    warm_start = true;
    metrics = Util.Metrics.global;
    handle_signals = true;
  }

(* ---- connections ---------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  wlock : Mutex.t;  (* serializes reader-domain and executor-domain writes *)
  mutable alive : bool;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let unlink_quiet path = try Sys.remove path with Sys_error _ -> ()

(* Write a whole response line.  Raises on a dead peer (EPIPE &c) after
   marking the connection dead — inside an engine emit callback that
   exception is exactly what stops the batch from solving for a client
   that is no longer listening. *)
let write_line conn s =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if not conn.alive then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
      let line = s ^ "\n" in
      let len = String.length line in
      let off = ref 0 in
      try
        while !off < len do
          off := !off + Unix.write_substring conn.fd line !off (len - !off)
        done
      with Unix.Unix_error (_, _, _) as e ->
        conn.alive <- false;
        raise e)

let write_line_opt conn s =
  (* Reader-side variant: a vanished client is not an error worth more
     than dropping the connection. *)
  try write_line conn s with Unix.Unix_error (_, _, _) -> ()

(* ---- requests ------------------------------------------------------- *)

type job_request = {
  conn : conn;
  jobs : Scenario.Job.t array;
  reuse : bool;
  admitted : Util.Metrics.span;  (* queue wait + execution = request latency *)
}

type state = {
  cfg : config;
  journal : Scenario.Registry.t;  (* keyed like the engine's, for eviction and GC *)
  queue : job_request Queue.t;
  mlock : Mutex.t;  (* guards cfg.metrics (registries are not thread-safe) *)
  stop : bool Atomic.t;
  mutable conns : conn list;  (* reader-domain only *)
}

let with_metrics state f =
  Mutex.lock state.mlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.mlock) (fun () -> f state.cfg.metrics)

(* ---- executor ------------------------------------------------------- *)

(* Artifacts belonging to the request being served must survive any
   concurrent budget enforcement; with eviction running between
   requests on the same domain, protecting the just-served batch's
   journal entries is enough to keep a pathologically small cap from
   eating its own request. *)
let protected_files registry jobs =
  let files = Array.to_list (Array.map (Scenario.Registry.file_name registry) jobs) in
  fun f -> List.mem f files

let lifecycle_gc state ~served ~last_jobs =
  match state.cfg.cache_dir with
  | None -> ()
  | Some dir ->
      (match state.cfg.cache_max_bytes with
      | None -> ()
      | Some cap ->
          let removed =
            Scenario.Store.evict_dir ~dir ~max_bytes:cap
              ~protect:(protected_files state.journal last_jobs) ()
          in
          if removed > 0 then begin
            with_metrics state (fun m -> Util.Metrics.incr ~by:removed m "store.evicted");
            Util.Log.infof "serve: evicted %d artifact(s) over the %d-byte budget" removed cap
          end);
      (match state.cfg.max_results with
      | Some cap when state.cfg.gc_every > 0 && served mod state.cfg.gc_every = 0 ->
          let removed = Scenario.Registry.sweep state.journal ~max_entries:cap in
          if removed > 0 then
            Util.Log.infof "serve: registry GC dropped %d journal entr%s" removed
              (if removed = 1 then "y" else "ies")
      | Some _ | None -> ())

let serve_batch state req =
  let reg = Util.Metrics.create () in
  let config =
    {
      Scenario.Engine.cache_dir = state.cfg.cache_dir;
      jobs_parallel = state.cfg.jobs_parallel;
      domains = state.cfg.domains;
      metrics = reg;
      warm_start = state.cfg.warm_start;
      precond = Linalg.Precond.Cholesky;
      resume = req.reuse && state.cfg.cache_dir <> None;
      shard = None;
    }
  in
  let emit r = write_line req.conn (Util.Json.render r.Scenario.Engine.record) in
  let finish outcome =
    with_metrics state (fun m ->
        Util.Metrics.merge_into reg ~into:m;
        ignore (Util.Metrics.stop_span m "service.request_s" req.admitted);
        match outcome with
        | Ok summary ->
            Util.Metrics.incr m "service.requests";
            Util.Metrics.incr ~by:summary.Scenario.Engine.replayed m "service.replays"
        | Error () -> Util.Metrics.incr m "service.errors")
  in
  match Scenario.Engine.run ~config ~emit req.jobs with
  | _, summary ->
      finish (Ok summary);
      write_line_opt req.conn (Protocol.done_line ~jobs:summary.Scenario.Engine.jobs);
      Util.Log.infof "serve: %s" (Scenario.Engine.summary_line summary)
  | exception Scenario.Engine.Invalid_batch msg ->
      finish (Error ());
      write_line_opt req.conn (Protocol.error_line msg)
  | exception Opera.Galerkin.Solver_diverged (what, _) ->
      finish (Error ());
      write_line_opt req.conn (Protocol.error_line (Printf.sprintf "solver diverged: %s" what))
  | exception Unix.Unix_error (_, _, _) ->
      (* The client hung up mid-stream; finished jobs are journaled, so
         nothing is lost — the resubmission replays them. *)
      finish (Error ());
      Util.Log.infof "serve: client vanished mid-batch (%d jobs submitted)"
        (Array.length req.jobs)
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception e ->
      (* opera-lint: banned — the daemon must outlive any one request *)
      finish (Error ());
      write_line_opt req.conn (Protocol.error_line (Printexc.to_string e));
      Util.Log.errorf "serve: batch failed: %s" (Printexc.to_string e)

let executor_loop state =
  let served = ref 0 in
  let rec loop () =
    match Queue.pop state.queue with
    | None -> ()
    | Some req ->
        serve_batch state req;
        incr served;
        lifecycle_gc state ~served:!served ~last_jobs:req.jobs;
        loop ()
  in
  loop ()

(* ---- reader --------------------------------------------------------- *)

let drop_conn state conn =
  conn.alive <- false;
  close_quiet conn.fd;
  state.conns <- List.filter (fun c -> c != conn) state.conns

let handle_request state conn line =
  match Protocol.parse line with
  | Error msg ->
      with_metrics state (fun m -> Util.Metrics.incr m "service.errors");
      write_line_opt conn (Protocol.error_line msg)
  | Ok Protocol.Ping -> write_line_opt conn Protocol.pong
  | Ok Protocol.Stats ->
      let doc =
        with_metrics state (fun m ->
            match Util.Json.parse (Util.Metrics.to_json m) with
            | Ok json -> json
            | Error _ -> Util.Json.Null)
      in
      write_line_opt conn (Protocol.stats_line doc)
  | Ok Protocol.Shutdown ->
      write_line_opt conn Protocol.shutdown_ack;
      Atomic.set state.stop true
  | Ok (Protocol.Batch { jobs; reuse }) ->
      let req = { conn; jobs; reuse; admitted = Util.Metrics.start_span () } in
      if Queue.push state.queue req then
        with_metrics state (fun m ->
            Util.Metrics.observe m "service.queue_depth"
              (float_of_int (Queue.length state.queue)))
      else begin
        with_metrics state (fun m -> Util.Metrics.incr m "service.rejects");
        write_line_opt conn (Protocol.error_line "queue full")
      end

(* Consume every complete line in the connection's buffer. *)
let drain_lines state conn =
  let data = Buffer.contents conn.buf in
  match String.rindex_opt data '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf data (last + 1) (String.length data - last - 1);
      String.split_on_char '\n' (String.sub data 0 last)
      |> List.iter (fun line ->
             let line = String.trim line in
             if line <> "" then handle_request state conn line)

let read_chunk state conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop_conn state conn
  | 0 -> drop_conn state conn
  | n ->
      Buffer.add_subbytes conn.buf chunk 0 n;
      drain_lines state conn

let accept_conn state lfd =
  (* opera-lint: resource — fd tracked in state.conns; drop_conn/shutdown close it *)
  match Unix.accept lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | accepted ->
      let fd = fst accepted in
      let conn = { fd; buf = Buffer.create 256; wlock = Mutex.create (); alive = true } in
      state.conns <- conn :: state.conns;
      with_metrics state (fun m -> Util.Metrics.incr m "service.connections")

let reader_loop state listeners =
  let rec loop () =
    if not (Atomic.get state.stop) then begin
      let fds = listeners @ List.map (fun c -> c.fd) state.conns in
      (match Unix.select fds [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if List.memq fd listeners then accept_conn state fd
              else
                match List.find_opt (fun c -> c.fd == fd) state.conns with
                | Some conn -> read_chunk state conn
                | None -> ())
            ready);
      loop ()
    end
  in
  loop ()

(* ---- listeners ------------------------------------------------------ *)

let finish_listener fd addr =
  (* Bind/listen failures must not leak the socket fd. *)
  match
    Unix.bind fd addr;
    Unix.listen fd 64
  with
  | () -> fd
  | exception e ->
      close_quiet fd;
      raise e

let bind_unix path =
  if Sys.file_exists path then begin
    match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK ->
        (* A socket file with no server behind it is debris from a dead
           process; reclaim it.  (A live server would raise EADDRINUSE
           on some systems — and simply lose the name on others — so
           callers should own the path.) *)
        unlink_quiet path
    | _ -> raise (Invalid_config (path ^ ": exists and is not a socket"))
    | exception Unix.Unix_error (_, _, _) -> ()
  end;
  (* opera-lint: resource — the fd escapes to run, which Fun.protects it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  finish_listener fd (Unix.ADDR_UNIX path)

let bind_tcp port =
  (* opera-lint: resource — the fd escapes to run, which Fun.protects it *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  finish_listener fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

(* ---- lifecycle ------------------------------------------------------ *)

let validate cfg =
  if cfg.queue_capacity < 1 then
    raise (Invalid_config "queue capacity must be >= 1");
  if cfg.listen = "" then raise (Invalid_config "empty socket path");
  (match cfg.tcp with
  | Some p when p < 1 || p > 65535 ->
      raise (Invalid_config (Printf.sprintf "TCP port %d out of range" p))
  | Some _ | None -> ());
  (match cfg.cache_max_bytes with
  | Some b when b < 0 -> raise (Invalid_config "--cache-max-bytes must be >= 0")
  | Some _ | None -> ());
  match cfg.cache_dir with
  | None when cfg.cache_max_bytes <> None ->
      raise (Invalid_config "--cache-max-bytes needs --cache-dir")
  | None when cfg.max_results <> None ->
      raise (Invalid_config "--max-results needs --cache-dir")
  | None | Some _ -> ()

let install_signals state =
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set state.stop true) in
  Sys.set_signal Sys.sigterm request_stop;
  Sys.set_signal Sys.sigint request_stop;
  (* A client hanging up mid-stream must surface as EPIPE on the write,
     not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let serve state listeners =
  if state.cfg.handle_signals then install_signals state;
  let executor = Domain.spawn (fun () -> executor_loop state) in
  Fun.protect
    ~finally:(fun () ->
      (* Drain: no new admissions, finish everything queued, then drop
         the connections.  Executor writes race nothing here — join
         comes first. *)
      Queue.close state.queue;
      Domain.join executor;
      List.iter (fun c -> drop_conn state c) state.conns)
    (fun () -> reader_loop state listeners)

let run cfg =
  validate cfg;
  let state =
    {
      cfg;
      journal = Scenario.Registry.create ~warm_start:cfg.warm_start ~dir:cfg.cache_dir ();
      queue = Queue.create ~capacity:cfg.queue_capacity;
      mlock = Mutex.create ();
      stop = Atomic.make false;
      conns = [];
    }
  in
  let unix_fd = bind_unix cfg.listen in
  Fun.protect
    ~finally:(fun () ->
      close_quiet unix_fd;
      unlink_quiet cfg.listen)
    (fun () ->
      match cfg.tcp with
      | None -> serve state [ unix_fd ]
      | Some port ->
          let tcp_fd = bind_tcp port in
          Fun.protect
            ~finally:(fun () -> close_quiet tcp_fd)
            (fun () -> serve state [ unix_fd; tcp_fd ]))
