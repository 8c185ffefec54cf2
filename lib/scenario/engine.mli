(** The batch scenario engine: plan, share, execute, stream, journal.

    A batch of {!Job.t}s is grouped by {!Job.signature} — jobs sharing a
    deterministic operator share one group.  Each group's prelude (grid
    generation or netlist load, chaos expansion, triple-product tensor,
    symbolic ordering) runs once on the main domain before any job,
    read-through against the artifact {!Store}.  Each numeric Cholesky
    factor the group needs is then one task of a single claim loop
    shared by all [jobs_parallel] domains: a domain takes the first
    unclaimed factor task (in group order), else the first unclaimed job
    (in input order) whose group's factors all exist, else it waits.  So
    factors build concurrently with each other and with other groups'
    jobs, each read-through against the store; jobs apply the shared
    factors read-only through workspace-explicit solves, each with its
    own metrics registry (merged into the engine registry after the
    join).  At one domain the order is every factor, then every job.

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
      (** jobs in flight ({!Util.Parallel.resolve} convention: 0 =
          [OPERA_DOMAINS], default sequential) *)
  domains : int;
      (** inner solver parallelism per job; forced to 1 whenever
          [jobs_parallel > 1] so the domain count stays bounded *)
  metrics : Util.Metrics.t;
      (** receives [engine.factorizations], [engine.jobs],
          [engine.group_setup_s] (per-group prelude), [engine.factor_s]
          (per factor task), [engine.step_s], the [store.*] and
          [registry.*] counters, and every per-task registry (merged
          post-join) *)
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

val run : ?config:config -> ?emit:(result -> unit) -> Job.t array -> result array * summary
(** Execute a batch; results are indexed like the (shard-filtered)
    input jobs.  [emit] is called on the main domain, in input order,
    for each result as soon as it and every earlier-indexed result is
    available — including replayed results, which stream first.  Factor
    tasks and jobs run on [jobs_parallel] domains (at most one per
    pending job), the main domain included; see the module header for
    the claim order.  An exception from [emit] stops further claims,
    drains the tasks in flight, and is re-raised.  Raises
    {!Invalid_batch} on an empty batch, an invalid shard spec, an
    unreadable or malformed netlist (during a group's prelude) or an
    out-of-range probe (checked after every prelude, before any task
    runs).  A failed factorization fails every job of its group; an
    indefinite operator does so as {!Invalid_batch}.  Failures
    propagate after all other tasks finish — including
    {!Opera.Galerkin.Solver_diverged} from jobs running under the
    [fail] policy: the earliest-indexed failure wins, and no record past
    it is emitted. *)

val run_jsonl : ?config:config -> out_channel -> Job.t array -> summary
(** {!run} with [emit] writing and flushing one record per line in
    batch order: the stream on disk is always an exact prefix of the
    full batch output, whatever jobs 0..N-1 completed when the process
    died. *)

val summary_line : summary -> string
(** One-line human summary (for stderr — never part of the JSONL). *)
