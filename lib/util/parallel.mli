(** Chunked parallelism over OCaml 5 domains, backed by a persistent
    worker pool.

    A tiny helper shared by every block-structured hot path (matrix-free
    Galerkin matvec, mean-block preconditioner, decoupled special-case
    solves, assembled triangular level sweeps, batch-job fan-out): split
    an index range [0, n) into at most [domains] contiguous chunks and
    run each chunk exactly once across a small set of long-lived worker
    domains plus the calling domain.

    The pool is created lazily on the first parallel dispatch, holds
    [Domain.recommended_domain_count () - 1] parked workers (see
    {!set_pool_cap}), and is joined via [at_exit].  Chunks are *claimed*
    from a shared counter rather than statically assigned, so the
    calling domain always participates and a zero-worker pool degrades
    to a plain sequential loop.  Dispatching a job costs two mutex
    acquisitions per chunk instead of a domain spawn and join per
    worker per call — the difference is what made per-step
    preconditioner applies affordable (see DESIGN.md, "Transient hot
    path").

    Domain count resolution (everywhere a [?domains] argument appears in
    the library): an explicit positive argument wins; [0] (the default)
    falls back to the [OPERA_DOMAINS] environment variable; when that is
    unset or invalid the code runs sequentially.  Sequential execution is
    the deterministic baseline — parallel results are bitwise identical
    for the kernels in this library because chunking never changes the
    per-index work or its internal summation order, and a chunk performs
    the same arithmetic no matter which domain claims it. *)

val parse_domains : string -> (int, string) result
(** Validate a domain-count string as [OPERA_DOMAINS] interprets it:
    [Ok d] for a trimmed positive integer, [Error why] otherwise. *)

val default_domains : unit -> int
(** Domain count from the [OPERA_DOMAINS] environment variable; [1] when
    unset.  An invalid value (empty, non-numeric, zero or negative) also
    yields [1] but additionally warns once on stderr through {!Log},
    naming the rejected value.  The value is read once and cached for
    the lifetime of the process. *)

val resolve : int -> int
(** [resolve d] is [d] if [d >= 1], otherwise {!default_domains} [()] —
    the uniform interpretation of [?domains] arguments ([0] = "use the
    environment"). *)

val chunk_bounds : n:int -> chunks:int -> int -> int * int
(** [chunk_bounds ~n ~chunks c] is the half-open range [(lo, hi)] of
    chunk [c] when [0, n) is split into [chunks] near-equal contiguous
    pieces (the first [n mod chunks] chunks get one extra element). *)

val for_chunks : ?domains:int -> int -> (chunk:int -> lo:int -> hi:int -> unit) -> unit
(** [for_chunks ~domains n body] splits [0, n) into [min domains n]
    contiguous chunks and runs [body ~chunk ~lo ~hi] exactly once for
    each ([chunk] indexes the chunk, so per-chunk scratch arrays can be
    preallocated and indexed race-free).  Runs inline — touching no pool
    state — when the resolved domain count is 1 or [n <= 1].

    Chunks may run on any domain (worker or caller); bodies must not
    assume chunk 0 runs on the calling domain in particular, and must
    not touch calling-domain-only state such as a {!Metrics} registry.
    Nested calls from within a body run their inner chunks inline on
    the current domain.

    If one or more bodies raise, every chunk still runs to completion
    and the exception of the lowest-numbered failing chunk is re-raised
    after the barrier; the pool remains usable afterwards. *)

val parallel_for : ?domains:int -> int -> (int -> unit) -> unit
(** [parallel_for ~domains n body] runs [body i] for every [i] in
    [0, n)], chunked across domains as in {!for_chunks}.  [body] must
    only write state owned by index [i] (disjoint output slices). *)

(** {2 Pool introspection and control}

    Primarily for tests and benchmarks; production code never needs
    these. *)

val set_pool_cap : int option -> unit
(** [set_pool_cap (Some w)] tears down the current pool (if any) and
    caps future pools at [w] worker domains; [set_pool_cap None]
    restores the hardware default
    [Domain.recommended_domain_count () - 1].  Benches and tests use
    this to exercise real worker domains on small machines ([Some 0]
    forces fully inline execution). *)

val pool_workers : unit -> int
(** Number of worker domains in the live pool, or the cap a future pool
    would be created with when none exists yet.  The calling domain
    always participates in addition to these workers. *)

val pool_dispatches : unit -> int
(** Number of jobs executed through the live pool since it was created
    ([0] when no pool exists).  A strictly increasing count across
    repeated [for_chunks] calls is how tests observe pool *reuse* as
    opposed to per-call domain churn. *)
