(** Claim loops over a task graph, on the persistent {!Util.Parallel}
    pool.

    A graph is an array of tasks in priority order, each naming the
    earlier tasks it depends on and whether it is a leaf: wanted for
    itself, where a non-leaf is wanted only while a leaf needs it.
    Nothing else of a task is known here; the batch engine's factor
    tasks and cohort chunks are one instance.

    {b Claim rule.}  A loop claims, under one lock, the first unsettled
    leaf (the lowest-indexed leaf that has neither returned nor failed)
    if it is unclaimed and its dependencies have all returned; else the
    first unclaimed task whose dependencies have all returned and that
    is needed — a leaf, or a task on which some unclaimed leaf
    transitively depends (a task nothing needs is skipped for good).
    Failing both, it finishes if no leaf is unclaimed or no task is
    running, and otherwise waits until a running task settles.  So one
    loop never waits, its start order depends only on the graph and on
    which tasks raise, and a waiting loop waits for a task another
    running loop holds.

    {b Failure rule.}  A task that raises fails exactly its unclaimed
    transitive dependents: they never start, and are reported once, by
    the loop that ran the raising task.  Every other task still runs. *)

type task = {
  deps : int array;  (** the tasks it depends on, each below its own index *)
  leaf : bool;
}

val run :
  ?stopped:(unit -> bool) ->
  loops:int ->
  metrics:Util.Metrics.t ->
  failed:(int -> exn -> int list -> unit) ->
  task array ->
  (Util.Metrics.t -> int -> unit) ->
  unit
(** [run ~loops ~metrics ~failed tasks f] runs [f reg t] for each task
    [t] the claim rule picks, in [loops] claim loops: one
    {!Util.Parallel.for_chunks} dispatch, so at most the pool's workers
    + 1 run at once.  [reg] is the loop's own registry; the loop also
    records into it [engine.wait_s], one observation per stretch it
    waits, and the registries are merged into [metrics] after the
    loops.  When [f reg t] raises [e], [failed t e lost] gets the tasks
    it fails, in increasing order.  Once [stopped] (polled before every
    claim; default never) holds, no task starts.  Raises
    [Invalid_argument] if [loops < 1] or a task depends on itself or a
    later task. *)
