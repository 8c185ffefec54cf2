(** Binary artifact serializer with versioned headers and checksums.

    The substrate of the on-disk artifact store ({!Opera} scenario
    engine): fixed-width little-endian primitives, bit-exact floats
    (IEEE-754 bit patterns, so cached factors reproduce cold runs
    bitwise), and a self-describing frame

    [magic | format | kind | version | length | FNV-1a checksum | payload]

    so corrupt, truncated or schema-mismatched files are detected on
    read — {!Corrupt} — and never trusted. *)

exception Corrupt of string
(** Raised by every read path on malformed bytes: truncation, bad magic,
    kind/version mismatch, checksum failure, out-of-range values.
    Callers treat it as "rebuild the artifact". *)

(** {1 Encoding} *)

type encoder
(** A byte sink for one payload: in memory ({!encoder}), or streaming
    into a frame file ({!write_frame_file}). *)

val encoder : ?initial_size:int -> unit -> encoder
(** An in-memory encoder; its buffer doubles as it fills. *)

val contents : encoder -> string
(** The bytes written so far.  [Invalid_argument] on the streaming
    encoder {!write_frame_file} passes to its writer. *)

val write_int : encoder -> int -> unit

val write_i64 : encoder -> int64 -> unit

val write_bool : encoder -> bool -> unit

val write_float : encoder -> float -> unit
(** Exact: the IEEE-754 bit pattern crosses the codec unchanged
    (including NaNs, infinities and signed zeros). *)

val write_string : encoder -> string -> unit
(** Length-prefixed; arbitrary bytes. *)

val write_int_array : encoder -> int array -> unit
(** Length-prefixed.  Bulk arrays are encoded in one loop per buffer
    stretch, with no closure and no boxed [int64] per element: a call
    allocates O(1) minor words whatever the array's length. *)

val write_float_array : encoder -> float array -> unit
(** As {!write_int_array}, with each float as its IEEE-754 bits. *)

(** {1 Decoding} *)

type decoder

val decoder_of_string : ?pos:int -> ?limit:int -> string -> decoder

val remaining : decoder -> int

val read_int : decoder -> int

val read_i64 : decoder -> int64

val read_bool : decoder -> bool

val read_float : decoder -> float

val read_string : decoder -> string

val read_int_array : decoder -> int array
(** One loop, no closure and no boxed [int64] per element.  The length
    is checked against the bytes left before anything is allocated;
    an element outside the native [int] range raises {!Corrupt} naming
    its offset. *)

val read_float_array : decoder -> float array
(** As {!read_int_array}; every bit pattern is a valid float. *)

val expect_end : decoder -> unit
(** Raise {!Corrupt} unless the payload was consumed exactly. *)

(** {1 Framing} *)

val frame : kind:string -> version:int -> (encoder -> unit) -> string
(** [frame ~kind ~version write] serializes a payload produced by [write]
    into a self-describing frame carrying the artifact [kind] tag, the
    caller's schema [version] and an FNV-1a checksum of the payload.
    The in-memory form; {!write_frame_file} streams the same bytes to a
    file, and {!read_frame} reads them back. *)

val fnv1a : ?pos:int -> ?len:int -> string -> int64
(** FNV-1a 64-bit hash of a substring (integrity, not cryptography). *)

(** {1 Files} *)

val write_file : string -> string -> unit
(** Write bytes through a same-directory temp file and [rename], so the
    final path never holds a partially written frame.  The file lands
    with mode [0o644] masked by the process umask (not the 0600 of the
    temp file), so readers sharing the cache directory — the sharded
    multi-process batch scenario — can open it. *)

val write_frame_file : string -> kind:string -> version:int -> (encoder -> unit) -> unit
(** [write_frame_file path ~kind ~version write] writes the file
    [write_file path (frame ~kind ~version write)] would, byte for
    byte, without building the frame: a header placeholder goes to the
    temp file, the payload follows in 64 KiB chunks folded through the
    FNV-1a checksum as they are written, and the length and checksum
    are patched into the header before the chmod and atomic rename.
    Memory stays one chunk whatever the payload's size.  If [write] (or
    the write itself) raises, the temp file is removed and the
    exception re-raised; [path] is left as it was. *)

val read_frame : kind:string -> version:int -> string -> decoder option
(** The one frame reader.  Validates the header straight off the
    channel, then reads the payload into its one final buffer in 64 KiB
    chunks, folding the FNV-1a checksum over each chunk as it lands: the
    artifact is resident once and the checksum never re-walks it.
    [None] only when the file cannot be opened; a file that opens but is
    empty, short, truncated mid-read or damaged raises {!Corrupt} (that
    is cache damage, not a miss, and callers take their drop-and-rebuild
    path), as does a v2 format byte — dispatch by artifact kind, not by
    sniffing. *)

(** {1 v2 frames: mmap-decodable section payloads}

    A v2 frame splits its payload into a small [meta] encoder section
    (scalars, dimensions) and a table of 8-aligned raw numeric runs.
    On a 64-bit little-endian host the runs coincide byte-for-byte with
    the memory layout of [int] / [float64] Bigarrays, so {!read_frame_v2}
    can return zero-copy [Unix.map_file]-backed views over the artifact
    — a warm million-node factor loads without decoding gigabytes.  The
    checksum is verified over the mapped region before any view is
    handed out; foreign hosts and refused mappings take a copying
    fallback that decodes the same bytes portably. *)

type fsection = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type isection = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** What the writer hands to {!frame_v2}, one per section. *)
type section_data =
  | F_arr of float array
  | I_arr of int array
  | F_big of fsection
  | I_big of isection

type sections
(** Decoded (or mapped) section views of one v2 payload. *)

val sections_mapped : sections -> bool
(** [true] when the views are [Unix.map_file]-backed (zero-copy). *)

val section_count : sections -> int

val section_float : sections -> int -> fsection
(** Section by table position; {!Corrupt} on a tag or range mismatch. *)

val section_int : sections -> int -> isection

val frame_v2 :
  kind:string ->
  version:int ->
  meta:(encoder -> unit) ->
  sections:section_data list ->
  string
(** Serialize a v2 frame.  Elements are written little-endian (i64 for
    ints, IEEE-754 bits for floats) regardless of host order, so the
    frame reads back anywhere; mapping is what needs a matching host. *)

val read_frame_v2 :
  ?map:bool -> kind:string -> version:int -> string -> (decoder * sections) option
(** Load a v2 frame: the meta decoder plus section views.  With
    [map = true] (default) a matching 64-bit little-endian host gets
    mapped views, checksummed over the mapped region; otherwise — or
    when mapping fails — {!read_frame}'s streamed read + copying decode.
    Both branches validate the header with {!read_frame}'s one check.
    [None] when the file cannot be opened; {!Corrupt} on damage. *)
