(** The batch scenario engine: plan, share, execute, stream, journal.

    A batch of {!Job.t}s is grouped by {!Job.signature} — jobs sharing a
    deterministic operator share one group.  Each group's prelude (grid
    generation or netlist load, chaos expansion, triple-product tensor,
    symbolic ordering) runs once on the main domain before any job,
    read-through against the artifact {!Store}.  The batch then runs as
    one {!Schedule} task graph: each numeric Cholesky factor a group
    needs is a task, in group order, and after them each cohort chunk
    is a leaf, in the input order of its first job, depending on
    exactly the factors its route applies; its context is assembled
    from those alone:
    - direct DC: [Gt];
    - direct transient or yield at step [h]: [Gt] and that [h]'s
      [Gt + Ct/h];
    - exact-route st DC: [G(0)];
    - st transient or yield at [h]: [G(0)] and that [h]'s N+1
      testing-point factors;
    - special case at [h]: [G] and that [h]'s [G + C/h];
    - matrix-free and pcg: none.

    [jobs_parallel] loops claim the tasks by {!Schedule}'s claim rule,
    so factors build concurrently with each other and with the chunks
    whose factors are done — a direct DC corner streams once [Gt]
    exists, while its group's [Gt + Ct/h] is still being factored — and
    a lone loop never waits.  Each factor task is read-through against
    the store; chunks apply the shared factors read-only through
    workspace-explicit solves.

    Cohorts ({!cohorts}): the jobs of a group that apply the same
    factors in the same order step in lockstep.  The direct DC jobs
    form one cohort; so do the direct transient and yield jobs of one
    [(h, steps)], and the exact-route st jobs (under [--precond
    cholesky]) of one analysis class, [(h, steps)] (not for DC) and
    convergence knobs; every special-case, matrix-free and pcg job, and
    every st job under an approximate mean solver, is a cohort of one.
    A cohort of k jobs is claimed as [ceil (k / 6)] near-equal chunks
    (six being the widest panel of
    {!Linalg.Sparse_cholesky.solve_block_ws}).  A direct chunk makes
    one block solve against the [Gt] factor for all its initial states,
    then one against the [Gt + Ct/h] factor per step; an st chunk runs
    {!Opera.St_solver.solve_dc_cohort} or
    {!Opera.St_solver.solve_transient_cohort}.  Each column is bitwise
    its single-vector solve, so every record is byte-identical to the
    job's record run alone.  With one job in flight ([jobs_parallel] =
    1) a wide chunk splits its columns over [domains]; a one-column
    chunk is one sequential solve.

    Factor sharing covers the [Direct] solver route, the special-case
    path and the stochastic-testing route ([st] — the node ordering, the
    mean-matrix factor and one stepping factor {e per testing point} all
    go through the store, so a warm [st] batch performs zero
    factorizations); iterative jobs ([pcg], [matrix-free]) share the
    expanded model and cached tensor but factor their small nominal
    blocks per job.  Batch transients use backward Euler.

    Crash safety: when a cache dir is configured, every completed job is
    journaled into the results {!Registry} (atomic per-entry writes)
    {e before} its record can reach the stream, and {!run_jsonl} flushes
    each record as soon as it and all earlier-indexed jobs are done — so
    a batch killed at job N keeps both the journal entries and an exact
    JSONL prefix for jobs [0..N-1].  [resume] replays journaled records
    bitwise instead of re-running; [shard = Some (i, k)] deterministically
    partitions the batch by input index ({!shard_of}) so k independent
    processes sharing the cache dir cooperate with zero duplicated work.

    Determinism: job records contain only analysis results (no timings,
    no cache status), floats are rendered exactly ({!Util.Json.render}),
    and every solve is bitwise independent of [jobs_parallel] — so the
    JSONL stream of a batch is byte-identical across cold runs, warm
    runs, resumed runs and any domain count. *)

exception Invalid_batch of string
(** A batch that cannot run: empty, an invalid shard spec, a netlist
    that cannot be read or parsed, a probe out of range for its job's
    grid, or an operator that is not positive definite (a [sigma_scale]
    large enough to make the expanded conductance indefinite).  The
    first four are raised by {!run} on the main domain before any job
    executes; an indefinite operator surfaces when its factorization (or
    an st testing-point solve) fails, and is re-raised like a job
    failure — after the tasks in flight drain, with no record at or past
    the job emitted.  Either way the CLI can map it to the usage-error
    discipline (message on stderr, exit 2) instead of crashing out of a
    worker. *)

type config = {
  cache_dir : string option;  (** [None] disables the artifact store and the results registry *)
  jobs_parallel : int;
      (** claim loops ({!Util.Parallel.resolve} convention: 0 =
          [OPERA_DOMAINS], default sequential), at most one per pending
          job, run on the persistent {!Util.Parallel} pool: at most its
          workers + 1 run at once, and further loops wait for a
          domain *)
  domains : int;
      (** inner solver parallelism per job; forced to 1 whenever
          [jobs_parallel > 1], since the loops then hold the pool *)
  metrics : Util.Metrics.t;
      (** receives [engine.factorizations], [engine.jobs],
          [engine.cohorts] (claims run), [engine.cohort_columns] (one
          observation of each claim's job count), [engine.job_s] (per
          claim), [engine.group_setup_s] (per-group prelude),
          [engine.netlists] (distinct netlist files parsed: one parse
          per path per run, shared by every group naming it),
          [engine.factor_s] (per factor task), [engine.step_s] (one
          observation per cohort step of the direct route: a DC
          chunk's solve or one transient step, each a single block
          solve for all the chunk's jobs), [engine.wait_s] (one
          observation per stretch a loop spends blocked in the claim
          loop, from its first wait until it holds a claim or finishes
          — none at [jobs_parallel] 1), the [store.*] and [registry.*]
          counters, the [store.write_s] and [store.read_s] histograms
          (each artifact miss's encode and write, each hit's read and
          decode: [engine.factor_s] less [store.write_s] on a cold run
          is the factorization time itself), [registry.write_s] and
          [registry.read_s] (each journal write, each replay; see
          {!Registry.report}); the loops record into one registry per
          loop, merged into this one after the loops end *)
  warm_start : bool;
      (** seed each transient step's Krylov solve from the previous
          step (with linear extrapolation) for iterative jobs; see
          {!Opera.Galerkin.options}.  Does not affect records of
          converged runs beyond iteration counts. *)
  precond : Linalg.Precond.kind;
      (** mean-block preconditioner backend for iterative jobs (pcg,
          matrix-free and st): exact [Cholesky] (default — historical
          behavior bitwise), [Ic0], [Amg], or [Auto] (switches to AMG
          above {!Linalg.Precond.auto_threshold} nodes).  Under a
          non-exact backend the engine also stops caching st per-point
          stepping factors — bounded memory at 10^5+ nodes.  Direct and
          special-case jobs ignore it. *)
  resume : bool;
      (** replay journaled results from the cache dir instead of
          re-running their jobs; no-op without a [cache_dir] *)
  shard : (int * int) option;
      (** [Some (i, k)]: run only the jobs whose batch-file index hashes
          to shard [i] of [k] ({!shard_of}); results and summary then
          cover just this shard *)
}

val default_config : config
(** No cache, sequential jobs, inner domains from the environment,
    global metrics, warm starting on, no resume, no sharding. *)

type result = {
  job : Job.t;
  record : Util.Json.t;  (** the job's deterministic JSONL record *)
  response : Opera.Response.t option;
      (** full stochastic response for transient-family analyses ([None]
          for DC and for replayed jobs) — the hook the single-run CLI
          path uses to print rich reports from a one-job batch *)
}

type summary = {
  jobs : int;  (** jobs in this run (after shard filtering) *)
  groups : int;  (** operator groups among the jobs actually executed *)
  factorizations : int;  (** numeric factorizations performed by the engine *)
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
  replayed : int;  (** jobs satisfied from the results registry *)
  journaled : int;  (** records written to the results registry *)
  registry_corrupt : int;  (** damaged journal entries dropped (jobs re-ran) *)
  elapsed_seconds : float;
}

val shard_of : int -> shards:int -> int
(** The shard owning batch-file index [i]: an FNV-1a hash of the index
    reduced mod [shards].  Pure and position-only, so cooperating
    processes agree on the partition without coordinating, and every
    index lands in exactly one shard. *)

val plan : Job.t array -> int array array
(** Group job indices by operator signature, in order of first
    occurrence; each inner array keeps batch order.  Exposed for tests
    and dry-run reporting. *)

val cohorts : precond:Linalg.Precond.kind -> Job.t array -> int array array
(** The claims {!run} makes of a batch run under [precond]: each
    operator group's cohorts (see the module header), a cohort of k
    jobs split into [ceil (k / 6)] near-equal chunks of consecutive
    members, ordered by their first job's index; each inner array keeps
    batch order.  Exposed for tests. *)

val run : ?config:config -> ?emit:(result -> unit) -> Job.t array -> result array * summary
(** Execute a batch; results are indexed like the (shard-filtered)
    input jobs.  [emit] is called in input order, one call at a time,
    for each result as soon as it and every earlier-indexed result is
    available — including replayed results, which stream first.  The
    call comes from the claim loop that completed that prefix, on the
    calling domain or a pool worker (replayed results: from the calling
    domain, before the loops start), so [emit] must be safe to call
    from any domain.  Factor tasks and cohort chunks run in
    [jobs_parallel] claim loops (at most one per pending job) by
    {!Schedule.run}.  Each job journals its own record before it is
    published; a chunk whose shared solve fails parks the failure at
    its first job.  An exception from [emit] stops further claims,
    drains the tasks in flight, and is re-raised.  Raises
    {!Invalid_batch} on an empty batch, an invalid shard spec, an
    unreadable or malformed netlist (during a group's prelude) or an
    out-of-range probe (checked after every prelude, before any task
    runs).  A failed factorization fails exactly the chunks that apply
    it ({!Schedule}'s failure rule), parked at the lowest of their job
    indices; factor tasks no remaining job needs are then skipped, and
    jobs that do not apply it still run.  An indefinite operator fails this way as
    {!Invalid_batch}.  Failures propagate after all other tasks finish —
    including {!Opera.Galerkin.Solver_diverged} from jobs running under
    the [fail] policy: the earliest-indexed failure wins, and no record
    at or past it is emitted. *)

val run_jsonl : ?config:config -> out_channel -> Job.t array -> summary
(** {!run} with [emit] writing and flushing one record per line in
    batch order: the stream on disk is always an exact prefix of the
    full batch output, whatever jobs 0..N-1 completed when the process
    died. *)

val summary_line : summary -> string
(** One-line human summary (for stderr — never part of the JSONL). *)
