(** Content-addressed on-disk artifact cache.

    One artifact per file, [<kind>-<key>.opra], where [key] is the hex
    digest of the canonical {!Util.Codec} bytes of everything the
    artifact depends on (grid, variation model, solver route, schema
    version — see DESIGN.md §9).  Payloads are {!Util.Codec} frames with
    versioned headers and checksums; a file that fails any validation —
    missing, truncated, bit-flipped, wrong kind, older schema version,
    malformed payload — is logged, deleted and rebuilt, never trusted.
    Floats cross the codec bit-exactly, so a warm run reproduces the
    cold run bitwise. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;  (** subset of [misses] caused by damaged files *)
  mutable writes : int;
}

type t

val create : ?metrics:Util.Metrics.t -> dir:string option -> unit -> t
(** [dir = None] disables the store (every lookup builds); [Some d]
    creates [d] (and parents) if needed.  [metrics] receives the
    [store.hits] / [store.misses] / [store.corrupt] / [store.writes]
    counters.  A store may be shared by several domains: the stats and
    metrics updates of a lookup happen under one mutex, while reads,
    decodes, builds and writes run outside it — the batch engine's
    domains look up distinct artifacts concurrently. *)

val disabled : t
(** A store with no directory: {!find_or_build} always builds. *)

val enabled : t -> bool

val stats : t -> stats
(** A consistent snapshot of the counts (a fresh record: later lookups
    do not move it). *)

val key_of_bytes : string -> string
(** Hex digest of canonical artifact-identity bytes (filename-safe). *)

val file_name : kind:string -> key:string -> string
(** Basename of an artifact file, [<kind>-<key>.opra] — the naming
    contract shared by the store and the results {!Registry}. *)

val path : t -> kind:string -> key:string -> string option
(** On-disk location of an artifact ([None] when the store is disabled).
    Exposed so corruption tests can damage a cached file in place. *)

val find_or_build :
  t ->
  kind:string ->
  version:int ->
  key:string ->
  encode:('a -> Util.Codec.encoder -> unit) ->
  decode:(Util.Codec.decoder -> 'a) ->
  build:(unit -> 'a) ->
  'a
(** Read-through lookup.  On hit, [decode] runs on the validated frame
    payload (and may itself raise {!Util.Codec.Corrupt} on semantic
    mismatch, e.g. a tensor stored for a different basis — that counts
    as corruption and triggers a rebuild).  Any other exception [decode]
    raises — a stale encoder leaving a checksum-valid but semantically
    malformed payload, say [Invalid_argument] out of an array build —
    is treated the same way: logged, dropped, rebuilt.  Only
    [Out_of_memory] and [Stack_overflow] stay fatal.  On miss,
    [build ()] runs and its encoding is written back atomically (temp
    file + rename, world-readable).  The hit path streams the frame
    ({!Util.Codec.read_frame}): the artifact is resident once, with the
    checksum folded during the read — gigabyte factors never occupy
    double their size. *)

val find_or_build_sections :
  t ->
  kind:string ->
  version:int ->
  key:string ->
  encode:('a -> (Util.Codec.encoder -> unit) * Util.Codec.section_data list) ->
  decode:(Util.Codec.decoder -> Util.Codec.sections -> 'a) ->
  build:(unit -> 'a) ->
  'a
(** {!find_or_build} over v2 section frames ({!Util.Codec.frame_v2}).
    [encode] splits a value into scalar meta plus raw numeric sections;
    on hit, [decode] receives the meta decoder and zero-copy
    [Unix.map_file]-backed section views when the host allows mapping
    (a warm million-node preconditioner replays without decoding its
    gigabytes), or copying views otherwise.  Hits count
    [store.map_hits] vs [store.full_decodes] in the metrics registry on
    top of the usual [store.hits].  Error discipline is exactly
    {!find_or_build}'s. *)

val gc_dir : dir:string -> kind:string -> keep:(string -> bool) -> int
(** Remove every [<kind>-<key>.opra] under [dir] whose [key] fails the
    [keep] predicate; returns the number removed.  Other kinds and
    foreign files are untouched.  Missing or unreadable directories
    count as empty. *)

val gc : t -> kind:string -> keep:(string -> bool) -> int
(** {!gc_dir} against the store's directory; [0] when disabled. *)

val touch : string -> unit
(** Refresh a file's mtime (best effort, errors swallowed).  The store
    touches every artifact it reuses and the results {!Registry} touches
    every journal entry it replays, so mtime order is LRU order for
    {!evict}. *)

val evict_dir : dir:string -> max_bytes:int -> ?protect:(string -> bool) -> unit -> int
(** Byte-capped LRU eviction: while the total size of [*.opra] files
    under [dir] exceeds [max_bytes], remove the least-recently-used
    (oldest-mtime; ties broken by name for determinism) file whose
    basename fails the [protect] predicate ([protect] defaults to
    nothing).  Returns the number of files removed.  Missing or
    unreadable directories count as empty.  Foreign (non-[.opra]) files
    are never counted or removed. *)

val evict : t -> max_bytes:int -> ?protect:(string -> bool) -> unit -> int
(** {!evict_dir} against the store's directory; [0] when disabled.
    Removals are counted in the [store.evicted] metric. *)
