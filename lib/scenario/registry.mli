(** Crash-safe on-disk results registry — the journal behind
    [opera batch --resume].

    One completed job is one file in the cache directory,
    [result-<key>.opra].  The key is {!Job.result_signature} (operator
    digest plus every record-shaping knob the operator bytes exclude),
    folded with the engine's [--precond] and [--warm-start] settings
    when they differ from the defaults.
    Entries are {!Util.Codec} frames holding the job's rendered-record
    AST; each is written atomically (temp file + rename) the moment the
    job completes, so a killed batch keeps every finished job's record
    intact — the directory is the journal, there is no index file to
    corrupt.

    Replay is bitwise: {!Util.Json.render} is a pure function of the
    AST and floats cross the codec as IEEE-754 bit patterns, so a
    replayed record is byte-identical to the one the journaling run
    streamed.  A damaged entry (truncated mid-record, bit-flipped,
    stale schema) fails frame validation or decoding, is logged,
    removed and NOT trusted — the job simply re-runs.

    Unlike {!Store} (single-domain), {!record} may be called from the
    engine's worker domains; an internal mutex serializes journal
    writes and the stats. *)

type stats = {
  mutable replayed : int;  (** lookups that returned a journaled record *)
  mutable journaled : int;  (** records written this run *)
  mutable corrupt : int;  (** damaged entries dropped on lookup *)
}

type t

val create :
  ?precond:Linalg.Precond.kind -> ?warm_start:bool -> dir:string option -> unit -> t
(** [dir = None] disables the registry ({!lookup} misses, {!record} is a
    no-op); [Some d] creates [d] if needed.  [precond] (default
    [Cholesky]) and [warm_start] (default [true]) are the engine
    settings the records are computed under: both change the digits of
    iterative records, so a record replays only under the settings that
    journaled it.  At the defaults the key is the bare
    {!Job.result_signature}. *)

val disabled : t

val enabled : t -> bool

val stats : t -> stats

val file_name : t -> Job.t -> string
(** Base name of a job's journal entry: the one key that {!lookup},
    {!record}, {!gc} and the service's eviction guard share. *)

val path : t -> Job.t -> string option
(** On-disk journal entry of a job ([None] when disabled).  Exposed so
    crash tests can truncate an entry in place. *)

val record : t -> Job.t -> Util.Json.t -> unit
(** Journal a completed job's record atomically.  Thread-safe. *)

val lookup : t -> Job.t -> Util.Json.t option
(** The journaled record of [job], or [None] when absent or damaged
    (damaged entries are logged and removed, never replayed). *)

val gc : t -> keep:Job.t array -> int
(** Drop journal entries whose key matches no job in [keep] under this
    registry's settings; returns the number removed.  Artifact files of
    other kinds are untouched. *)

val sweep : t -> max_entries:int -> int
(** Bound the journal by *count*: drop the oldest-mtime entries (ties
    broken by name) until at most [max_entries] remain; returns the
    number removed.  Replays refresh mtimes ({!Store.touch}), so the
    surviving entries are the most recently reused — the periodic-GC
    half of the service's disk budget, next to byte-capped
    {!Store.evict}. *)
