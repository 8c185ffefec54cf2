(** Solver observability: named counters and timing histograms.

    Every linear/transient solve phase in the library (factorization,
    per-step solve, matvec, preconditioner application) reports into a
    registry of this type, and the CLI's [--metrics-out FILE] serializes
    the registry as JSON.  Spans use the system monotonic clock
    ([CLOCK_MONOTONIC] via bechamel's stub), so timings are immune to
    wall-clock adjustments.

    Registries are not thread-safe; instrumented code only updates them
    from the calling domain (the parallel kernels fork and join {e
    inside} instrumented spans, never across them).

    JSON schema ({!to_json}): one top-level object, keys sorted; each
    value is either
    [{"type": "counter", "value": <int>}] or
    [{"type": "histogram", "count": n, "sum": s, "min": m, "max": M,
      "mean": mu, "buckets": {"le_1e-06": c0, ..., "le_inf": ck}}]
    where bucket ["le_B"] counts observations in the decade up to [B]
    (seconds, for span-fed histograms). *)

type t
(** A metrics registry. *)

val create : unit -> t

val global : t
(** The process-wide default registry: all library instrumentation lands
    here unless a caller passes its own registry (e.g. through
    [Galerkin.options.metrics]). *)

val reset : t -> unit
(** Drop every metric (counters and histograms). *)

val incr : ?by:int -> t -> string -> unit
(** Increment a counter, creating it at 0 first if needed.  Raises
    [Invalid_argument] if the name is already a histogram. *)

val counter : t -> string -> int
(** Current counter value; 0 when absent. *)

val observe : t -> string -> float -> unit
(** Record one observation into a histogram, creating it if needed.
    Raises [Invalid_argument] if the name is already a counter. *)

val observations : t -> string -> int
(** Number of observations recorded; 0 when absent. *)

val total : t -> string -> float
(** Sum of all observations; 0 when absent. *)

val merge_into : ?rename:(string -> string option) -> t -> into:t -> unit
(** [merge_into ~rename src ~into] folds each metric of [src] named
    [name] into [into] under [rename name], leaving it out when that is
    [None] (default: every metric under its own name): counters add,
    histograms merge component-wise (count/sum/min/max/buckets).  Both
    registries must be owned by the calling domain — the batch engine
    merges per-loop registries only after joining their workers. *)

type span
(** A started monotonic-clock stopwatch. *)

val start_span : unit -> span

val stop_span : t -> string -> span -> float
(** [stop_span t name s] records the elapsed seconds since [s] into the
    histogram [name] and returns them. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] with the monotonic clock and records the
    elapsed seconds into histogram [name] — also on exception. *)

val to_json : t -> string
(** Deterministic (sorted-key) JSON rendering; see the schema above. *)

val write_file : t -> string -> unit
(** Serialize {!to_json} to a file (truncates). *)
