(** Content-addressed on-disk artifact cache.

    One artifact per file, [<kind>-<key>.opra], where [key] is the hex
    digest of the canonical {!Util.Codec} bytes of everything the
    artifact depends on (grid, variation model, solver route, schema
    version — see DESIGN.md §9).  Payloads are {!Util.Codec} frames with
    versioned headers and checksums; a file that fails any validation —
    truncated, bit-flipped, wrong kind, older schema version, malformed
    payload — is logged, deleted and rebuilt, never trusted.  Floats
    cross the codec bit-exactly, so a warm run reproduces the cold run
    bitwise.

    The store does every artifact read, write and removal of the cache
    directory.  The results journal ({!Registry}) is one more kind,
    ["result"], kept in a private store of its own, so its traffic
    never shows in the engine's [store.*] metrics ({!Registry.report}
    reports it as [registry.*]). *)

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
    counters and two histograms: [store.write_s], the encode-and-write
    time of each miss, and [store.read_s], the read-and-decode time of
    each hit — so a caller timing a lookup can tell artifact I/O from
    the build.  A store may be shared by several domains: the stats and
    metrics updates of a lookup (the two observations included) happen
    under one mutex, while reads, decodes, builds and writes run
    outside it — the batch engine's domains look up distinct artifacts
    concurrently. *)

val stats : t -> stats
(** A consistent snapshot of the counts (a fresh record: later lookups
    do not move it). *)

val key_of_bytes : string -> string
(** Hex digest of canonical artifact-identity bytes (filename-safe). *)

val file_name : kind:string -> key:string -> string
(** Basename of an artifact file, [<kind>-<key>.opra]. *)

val path : t -> kind:string -> key:string -> string option
(** On-disk location of an artifact ([None] when the store is disabled).
    Exposed so corruption tests can damage a cached file in place. *)

val find :
  t -> kind:string -> version:int -> key:string -> decode:(Util.Codec.decoder -> 'a) -> 'a option
(** A validated hit, or [None].  The file is read by
    {!Util.Codec.read_frame} (streamed, resident once, checksum folded
    during the read) and [decode] runs on its payload, which it must
    consume exactly.  A hit counts in [hits] and [store.read_s] and
    refreshes the file's mtime ({!evict}'s LRU clock).  A missing file
    counts a miss.  A damaged one — {!Util.Codec.Corrupt} from the read
    or from [decode] (a semantic mismatch, e.g. a tensor stored for a
    different basis), or any other exception [decode] raises (a stale
    encoder leaving a checksum-valid but malformed payload, say
    [Invalid_argument] out of an array build) — is logged, removed and
    counted in [corrupt] and [misses].  Only [Out_of_memory] and
    [Stack_overflow] propagate, and leave the file in place.  [None]
    without a count when the store is disabled. *)

val put :
  t ->
  kind:string ->
  version:int ->
  key:string ->
  encode:('a -> Util.Codec.encoder -> unit) ->
  'a ->
  unit
(** Stream a value to its file ({!Util.Codec.write_frame_file}: 64 KiB
    chunks into a temp file, checksum folded as they go, then an atomic,
    world-readable rename), so no copy of the payload or the frame is
    ever made.  Counts in [writes] and [store.write_s].  Concurrent puts
    of one key each publish a whole frame.  A no-op when disabled. *)

val find_or_build :
  t ->
  kind:string ->
  version:int ->
  key:string ->
  encode:('a -> Util.Codec.encoder -> unit) ->
  decode:(Util.Codec.decoder -> 'a) ->
  build:(unit -> 'a) ->
  'a
(** Read-through lookup: {!find}, and on [None] [build ()] then {!put}.
    A damaged artifact is therefore dropped and rebuilt; a disabled
    store always builds. *)

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
    {!find}'s.  v2 frames are built in memory ({!Util.Codec.frame_v2})
    and published by {!Util.Codec.write_file}. *)

(** {1 Removal}

    [gc], [sweep] and [evict] walk one scan of the directory's regular
    [*.opra] files, oldest first (mtime, ties broken by name, so the
    surviving set is deterministic), and remove in that order.  Missing
    or unreadable directories count as empty; foreign (non-[.opra])
    files are never counted or removed. *)

val gc : t -> kind:string -> keep:(string -> bool) -> int
(** Remove every [<kind>-<key>.opra] whose [key] fails [keep]; returns
    the number removed.  Other kinds are untouched.  [0] when
    disabled. *)

val sweep : t -> kind:string -> max_entries:int -> int
(** Bound [kind] by count: remove its oldest files until at most
    [max_entries] remain; returns the number removed.  [0] when
    disabled. *)

val evict_dir : dir:string -> max_bytes:int -> ?protect:(string -> bool) -> unit -> int
(** Byte-capped LRU eviction: while the total size of the [*.opra] files
    under [dir] exceeds [max_bytes], remove the oldest file whose
    basename fails [protect] ([protect] defaults to nothing).  Returns
    the number of files removed. *)

val evict : t -> max_bytes:int -> ?protect:(string -> bool) -> unit -> int
(** {!evict_dir} against the store's directory; [0] when disabled.
    Removals are counted in the [store.evicted] metric. *)
