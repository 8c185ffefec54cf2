(* Chunked parallel-for over OCaml 5 domains, backed by a persistent
   worker pool.

   Paying [Domain.spawn]/[Domain.join] on *every* matvec and
   preconditioner apply would dwarf the work itself at small block
   sizes, hence the long-lived pool.  The chunking math ([chunk_bounds],
   [chunks = min (resolve domains) n], inline when [chunks <= 1]) fixes
   which indices each chunk covers, and a chunk performs identical
   arithmetic no matter which domain runs it: that is the
   bitwise-determinism argument.

   Pool design:
   - Lazily created on the first parallel dispatch; sized to
     [recommended_domain_count () - 1] workers (overridable for tests
     and benches via [set_pool_cap]).  Zero workers is legal — the
     submitting domain drains every chunk itself, which is also the
     fast path on single-core machines.
   - Work-claiming, not work-assignment: chunks are claimed from a
     shared counter under the pool lock by workers *and* the submitter,
     so the submitter is never parked while runnable chunks remain and
     chunk 0 almost always runs on the calling domain (it holds the
     lock when the job is published).
   - Exceptions from a body are recorded per chunk; after the barrier
     the submitter re-raises the exception of the lowest-numbered
     failing chunk.  A raising body never poisons the pool: the job
     slot is cleared and counters reset before re-raising.
   - Nested dispatch (a body itself calling [for_chunks]) falls back to
     inline sequential execution of the inner chunks — deterministic by
     construction, and free of lock-ordering hazards.
   - [at_exit] parks and joins the workers so the process exits
     cleanly. *)

let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some d when d >= 1 -> Ok d
  | Some d -> Error (Printf.sprintf "domain count must be >= 1, got %d" d)
  | None -> Error "not an integer"

let env_domains =
  lazy
    (match Sys.getenv_opt "OPERA_DOMAINS" with
    | None -> 1
    | Some s -> (
        match parse_domains s with
        | Ok d -> d
        | Error why ->
            (* The lazy forces once per process, so this warns once. *)
            Log.warnf "ignoring invalid OPERA_DOMAINS=%S (%s); running sequentially" s why;
            1))

let default_domains () = Lazy.force env_domains

let resolve d = if d >= 1 then d else default_domains ()

let chunk_bounds ~n ~chunks c =
  if chunks < 1 then invalid_arg "Parallel.chunk_bounds: need at least one chunk";
  if c < 0 || c >= chunks then invalid_arg "Parallel.chunk_bounds: chunk out of range";
  let base = n / chunks and extra = n mod chunks in
  let lo = (c * base) + Int.min c extra in
  let hi = lo + base + if c < extra then 1 else 0 in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Persistent worker pool.                                            *)
(* ------------------------------------------------------------------ *)

type pool = {
  lock : Mutex.t;
  work : Condition.t;  (* workers park here between jobs *)
  done_ : Condition.t;  (* submitter parks here until the barrier *)
  mutable workers : unit Domain.t array;
  mutable shutting_down : bool;
  mutable job : (int -> unit) option;  (* run chunk [c] of the current job *)
  mutable chunks : int;  (* chunk count of the current job *)
  mutable next : int;  (* next unclaimed chunk *)
  mutable remaining : int;  (* chunks not yet finished *)
  mutable failures : (int * exn) list;
  mutable dispatches : int;  (* jobs executed through the pool (telemetry) *)
}

let the_pool : pool option ref = ref None
let pool_cap_override : int option ref = ref None
let at_exit_registered = ref false

let hardware_cap () = Int.max 0 (Domain.recommended_domain_count () - 1)

let cap () =
  match !pool_cap_override with Some c -> Int.max 0 c | None -> hardware_cap ()

(* Claim and run chunks of the current job until none remain.  The pool
   lock is held on entry and on exit; it is released around each body
   invocation. *)
let drain pool =
  let job = match pool.job with Some j -> j | None -> assert false in
  while pool.next < pool.chunks do
    let c = pool.next in
    pool.next <- pool.next + 1;
    Mutex.unlock pool.lock;
    (* capture-and-rethrow, not a swallow: the exception is re-raised
       on the submitting domain after the join *)
    let failed = (try job c; None with e -> Some e) (* opera-lint: banned *) in
    Mutex.lock pool.lock;
    (match failed with
    | Some e -> pool.failures <- (c, e) :: pool.failures
    | None -> ());
    pool.remaining <- pool.remaining - 1;
    if pool.remaining = 0 then Condition.broadcast pool.done_
  done

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while
    (not pool.shutting_down) && (pool.job = None || pool.next >= pool.chunks)
  do
    Condition.wait pool.work pool.lock
  done;
  if pool.shutting_down then Mutex.unlock pool.lock
  else begin
    drain pool;
    Mutex.unlock pool.lock;
    worker_loop pool
  end

let shutdown_pool () =
  match !the_pool with
  | None -> ()
  | Some p ->
      Mutex.lock p.lock;
      p.shutting_down <- true;
      Condition.broadcast p.work;
      Mutex.unlock p.lock;
      Array.iter Domain.join p.workers;
      the_pool := None

let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
      let p =
        {
          lock = Mutex.create ();
          work = Condition.create ();
          done_ = Condition.create ();
          workers = [||];
          shutting_down = false;
          job = None;
          chunks = 0;
          next = 0;
          remaining = 0;
          failures = [];
          dispatches = 0;
        }
      in
      if not !at_exit_registered then begin
        at_exit shutdown_pool;
        at_exit_registered := true
      end;
      the_pool := Some p;
      p.workers <- Array.init (cap ()) (fun _ -> Domain.spawn (fun () -> worker_loop p));
      p

let set_pool_cap c =
  shutdown_pool ();
  pool_cap_override := c

let pool_workers () =
  match !the_pool with Some p -> Array.length p.workers | None -> cap ()

let pool_dispatches () = match !the_pool with Some p -> p.dispatches | None -> 0

(* Run [job] over [chunks] chunks inline on the calling domain,
   preserving the pool's exception discipline: every chunk runs, and
   the lowest-numbered failing chunk's exception is re-raised. *)
let run_inline chunks job =
  let first_failure = ref None in
  for c = 0 to chunks - 1 do
    (* capture-and-rethrow, not a swallow: opera-lint: banned *)
    try job c with e -> if !first_failure = None then first_failure := Some e
  done;
  match !first_failure with Some e -> raise e | None -> ()

let submit chunks job =
  let pool = get_pool () in
  Mutex.lock pool.lock;
  if pool.job <> None then begin
    (* Nested dispatch from within a body: run the inner job inline. *)
    Mutex.unlock pool.lock;
    run_inline chunks job
  end
  else begin
    pool.job <- Some job;
    pool.chunks <- chunks;
    pool.next <- 0;
    pool.remaining <- chunks;
    pool.failures <- [];
    pool.dispatches <- pool.dispatches + 1;
    Condition.broadcast pool.work;
    (* The submitter claims chunks too — starting with chunk 0, since it
       still holds the lock — so zero-worker pools degrade to a plain
       sequential loop and nonzero-worker pools never idle the caller. *)
    drain pool;
    while pool.remaining > 0 do
      Condition.wait pool.done_ pool.lock
    done;
    pool.job <- None;
    pool.chunks <- 0;
    let failures = pool.failures in
    pool.failures <- [];
    Mutex.unlock pool.lock;
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) failures with
    | (_, e) :: _ -> raise e
    | [] -> ()
  end

let for_chunks ?(domains = 0) n body =
  if n < 0 then invalid_arg "Parallel.for_chunks: negative range";
  if n > 0 then begin
    let chunks = Int.min (resolve domains) n in
    if chunks <= 1 then body ~chunk:0 ~lo:0 ~hi:n
    else begin
      let run c =
        let lo, hi = chunk_bounds ~n ~chunks c in
        body ~chunk:c ~lo ~hi
      in
      if cap () = 0 && !the_pool = None then
        (* Single-core machine and no pool forced into existence: skip
           the pool entirely (no lock traffic, nothing to park). *)
        run_inline chunks run
      else submit chunks run
    end
  end

let parallel_for ?domains n body =
  (* opera-lint: race — adapter; caller's body is analyzed at its site *)
  for_chunks ?domains n (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        body i
      done)
