(** Crash-safe on-disk results registry — the journal behind
    [opera batch --resume].

    One completed job is one {!Store} artifact of kind [result] in the
    cache directory, [result-<key>.opra].  The key is
    {!Job.result_signature} (operator digest plus every record-shaping
    knob the operator bytes exclude), folded with the engine's
    [--precond] and [--warm-start] settings when they differ from the
    defaults.  Entries are {!Util.Codec} frames holding the job's
    rendered-record AST; each is written atomically (temp file + rename)
    the moment the job completes, so a killed batch keeps every finished
    job's record intact — the directory is the journal, there is no
    index file to corrupt.

    Replay is bitwise: {!Util.Json.render} is a pure function of the
    AST and floats cross the codec as IEEE-754 bit patterns, so a
    replayed record is byte-identical to the one the journaling run
    streamed.  A damaged entry (truncated mid-record, bit-flipped,
    stale schema) fails frame validation or decoding, is logged,
    removed and NOT trusted — the job simply re-runs.

    The registry owns only the key and the record codec.  Every read,
    write and removal goes through a private {!Store} with its own
    metrics registry, so the journal follows the store's never-trust
    rule exactly, its traffic stays out of the caller's [store.*]
    metrics ({!report} hands the caller its own [registry.*] ones), and,
    like the store, it may be called from the engine's worker
    domains. *)

type stats = {
  replayed : int;  (** lookups that returned a journaled record *)
  journaled : int;  (** records written *)
  corrupt : int;  (** damaged entries dropped on lookup *)
}

type t

val create :
  ?precond:Linalg.Precond.kind -> ?warm_start:bool -> dir:string option -> unit -> t
(** [dir = None] disables the registry ({!lookup} misses, {!record} is a
    no-op); [Some d] creates [d] (and parents) if needed.  [precond] (default
    [Cholesky]) and [warm_start] (default [true]) are the engine
    settings the records are computed under: both change the digits of
    iterative records, so a record replays only under the settings that
    journaled it.  At the defaults the key is the bare
    {!Job.result_signature}. *)

val stats : t -> stats
(** A snapshot of the counts since {!create}. *)

val report : t -> into:Util.Metrics.t -> unit
(** Add the journal's counts and times to [into]: the counters
    [registry.replays], [registry.writes] and [registry.corrupt] (the
    {!stats} fields, created even at 0), and the histograms
    [registry.read_s] (the read and decode of each replayed record) and
    [registry.write_s] (the encode and write of each journaled record).
    Call it once, from the domain owning [into], after the last
    {!lookup} and {!record}. *)

val file_name : t -> Job.t -> string
(** Base name of a job's journal entry: the one key that {!lookup},
    {!record}, {!gc} and the service's eviction guard share. *)

val path : t -> Job.t -> string option
(** On-disk journal entry of a job ([None] when disabled).  Exposed so
    crash tests can truncate an entry in place. *)

val record : t -> Job.t -> Util.Json.t -> unit
(** Journal a completed job's record atomically ({!Store.put}).
    Thread-safe. *)

val lookup : t -> Job.t -> Util.Json.t option
(** The journaled record of [job], or [None] when absent or damaged
    ({!Store.find}: damaged entries are logged, removed and counted in
    [corrupt], never replayed; a replay refreshes the entry's mtime). *)

val gc : t -> keep:Job.t array -> int
(** Drop journal entries whose key matches no job in [keep] under this
    registry's settings ({!Store.gc}); returns the number removed.
    Artifact files of other kinds are untouched. *)

val sweep : t -> max_entries:int -> int
(** Bound the journal by *count* ({!Store.sweep}): drop the oldest-mtime
    entries (ties broken by name) until at most [max_entries] remain;
    returns the number removed.  Replays refresh mtimes, so the
    surviving entries are the most recently reused — the periodic-GC
    half of the service's disk budget, next to byte-capped
    {!Store.evict}. *)
