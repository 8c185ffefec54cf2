(* Binary artifact serializer for the on-disk store.

   Design goals, in order: (1) never trust bytes read back from disk —
   every frame carries a magic, a format version, an artifact kind, an
   artifact version and an FNV-1a checksum of the payload, and every
   primitive read is bounds-checked; (2) bit-exact floats — values cross
   the codec as their IEEE-754 bit patterns, so a factor loaded from a
   warm cache reproduces a cold run bitwise; (3) zero dependencies.

   Wire format of a frame:

     magic   "OPRA"            4 bytes
     format  u8 = 1            codec layout version (this file)
     kind    string            artifact kind tag, e.g. "cholesky"
     version i64le             artifact schema version (caller-owned)
     length  i64le             payload byte count
     check   i64le             FNV-1a 64 of the payload bytes
     payload bytes

   Primitives are fixed-width little-endian (i64 for ints, IEEE bits for
   floats, length-prefixed strings) — simple, portable across OCaml
   versions, and trivially checkable. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ---- encoder -------------------------------------------------------- *)

(* Little-endian 64-bit stores and loads go through the compiler's own
   primitives.  [Bytes.set_int64_le] and [String.get_int64_le] are
   ordinary functions: under -opaque each call boxes its [int64], four
   minor words per element of a bulk array.  These primitives compile
   inline on unboxed values, bounds-checked like the functions they
   replace. *)
external set_i64_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

external get_i64_ne : string -> int -> int64 = "%caml_string_get64"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] put_i64 b pos v = set_i64_ne b pos (if Sys.big_endian then swap64 v else v)

let[@inline] get_i64 s pos =
  let v = get_i64_ne s pos in
  if Sys.big_endian then swap64 v else v

(* An encoder is one byte buffer.  In memory ([sink = None]) it grows
   by doubling and {!contents} copies it out.  A streaming encoder
   ({!write_frame_file}) keeps one [chunk_size] buffer and hands each
   filled stretch to its sink, so a payload of any size is never
   resident. *)
type encoder = { mutable buf : Bytes.t; mutable pos : int; sink : (Bytes.t -> int -> unit) option }

let chunk_size = 65536

let encoder ?(initial_size = 1024) () =
  { buf = Bytes.create (Int.max initial_size 16); pos = 0; sink = None }

let contents (e : encoder) =
  match e.sink with
  | Some _ -> invalid_arg "Codec.contents: streaming encoder"
  | None -> Bytes.sub_string e.buf 0 e.pos

(* Hand the filled part of a streaming encoder's chunk to its sink. *)
let drain e =
  match e.sink with
  | Some sink when e.pos > 0 ->
      sink e.buf e.pos;
      e.pos <- 0
  | _ -> ()

(* Room for [k] contiguous bytes at [e.pos]; a streaming encoder needs
   [k <= chunk_size]. *)
let reserve e k =
  if Bytes.length e.buf - e.pos < k then
    match e.sink with
    | Some _ -> drain e
    | None ->
        let cap = ref (Bytes.length e.buf) in
        while !cap - e.pos < k do
          cap := 2 * !cap
        done;
        let b = Bytes.create !cap in
        Bytes.blit e.buf 0 b 0 e.pos;
        e.buf <- b

(* How many of [want] 8-byte elements fit at [e.pos]: all of them in
   memory, at least one in a streaming chunk. *)
let room e want =
  match e.sink with
  | None ->
      reserve e (8 * want);
      want
  | Some _ ->
      reserve e 8;
      Int.min want ((Bytes.length e.buf - e.pos) / 8)

let add_char e c =
  reserve e 1;
  Bytes.set e.buf e.pos c;
  e.pos <- e.pos + 1

let add_string e s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    reserve e (Int.min (len - !off) chunk_size);
    let k = Int.min (len - !off) (Bytes.length e.buf - e.pos) in
    Bytes.blit_string s !off e.buf e.pos k;
    e.pos <- e.pos + k;
    off := !off + k
  done

let write_i64 (e : encoder) (v : int64) =
  reserve e 8;
  put_i64 e.buf e.pos v;
  e.pos <- e.pos + 8

let write_int (e : encoder) (v : int) =
  reserve e 8;
  put_i64 e.buf e.pos (Int64.of_int v);
  e.pos <- e.pos + 8

let write_bool (e : encoder) b = add_char e (if b then '\001' else '\000')

let write_float (e : encoder) (v : float) =
  reserve e 8;
  put_i64 e.buf e.pos (Int64.bits_of_float v);
  e.pos <- e.pos + 8

let write_string (e : encoder) (s : string) =
  write_int e (String.length s);
  add_string e s

(* Bulk arrays: one loop per stretch that fits the buffer, no closure
   and no boxed [int64] per element. *)
let write_int_array (e : encoder) (a : int array) =
  let n = Array.length a in
  write_int e n;
  let i = ref 0 in
  while !i < n do
    let i0 = !i in
    let k = room e (n - i0) in
    let b = e.buf and pos = e.pos in
    for j = 0 to k - 1 do
      put_i64 b (pos + (8 * j)) (Int64.of_int a.(i0 + j))
    done;
    e.pos <- pos + (8 * k);
    i := i0 + k
  done

let write_float_array (e : encoder) (a : float array) =
  let n = Array.length a in
  write_int e n;
  let i = ref 0 in
  while !i < n do
    let i0 = !i in
    let k = room e (n - i0) in
    let b = e.buf and pos = e.pos in
    for j = 0 to k - 1 do
      put_i64 b (pos + (8 * j)) (Int64.bits_of_float a.(i0 + j))
    done;
    e.pos <- pos + (8 * k);
    i := i0 + k
  done

(* ---- decoder -------------------------------------------------------- *)

type decoder = { s : string; mutable pos : int; limit : int }

let decoder_of_string ?(pos = 0) ?limit s =
  let limit = match limit with Some l -> l | None -> String.length s in
  if pos < 0 || limit > String.length s || pos > limit then
    invalid_arg "Codec.decoder_of_string: bad bounds";
  { s; pos; limit }

let remaining d = d.limit - d.pos

let need d n =
  if n < 0 || remaining d < n then
    corrupt "truncated artifact: need %d bytes at offset %d, have %d" n d.pos (remaining d)

let max_int64 = Int64.of_int max_int

let min_int64 = Int64.of_int min_int

let read_i64 d =
  need d 8;
  let v = get_i64 d.s d.pos in
  d.pos <- d.pos + 8;
  v

(* The native-range check of one wire integer at [pos]. *)
let[@inline] to_native (v : int64) pos =
  if v < min_int64 || v > max_int64 then corrupt "integer out of native range at offset %d" pos;
  Int64.to_int v

let read_int d =
  need d 8;
  let pos = d.pos in
  d.pos <- pos + 8;
  to_native (get_i64 d.s pos) pos

let read_bool d =
  need d 1;
  let c = d.s.[d.pos] in
  d.pos <- d.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "bad boolean byte %d at offset %d" (Char.code c) (d.pos - 1)

let read_float d =
  need d 8;
  let v = Int64.float_of_bits (get_i64 d.s d.pos) in
  d.pos <- d.pos + 8;
  v

let read_length d what =
  let n = read_int d in
  if n < 0 then corrupt "negative %s length %d at offset %d" what n (d.pos - 8);
  n

let read_string d =
  let n = read_length d "string" in
  need d n;
  let s = String.sub d.s d.pos n in
  d.pos <- d.pos + n;
  s

(* Bulk arrays: each element needs 8 bytes, so an absurd length is
   rejected before anything is allocated (without forming [8 * n],
   which could wrap); then one loop reads the elements in place. *)
let array_length d =
  let n = read_length d "array" in
  if n > remaining d / 8 then
    corrupt "truncated artifact: %d-element array at offset %d, %d bytes left" n d.pos
      (remaining d);
  n

let read_int_array d =
  let n = array_length d in
  let a = Array.make n 0 in
  let s = d.s and pos = d.pos in
  for i = 0 to n - 1 do
    let at = pos + (8 * i) in
    a.(i) <- to_native (get_i64 s at) at
  done;
  d.pos <- pos + (8 * n);
  a

let read_float_array d =
  let n = array_length d in
  let a = Array.create_float n in
  let s = d.s and pos = d.pos in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (get_i64 s (pos + (8 * i)))
  done;
  d.pos <- pos + (8 * n);
  a

let expect_end d =
  if remaining d <> 0 then corrupt "trailing garbage: %d bytes left after payload" (remaining d)

(* ---- checksum ------------------------------------------------------- *)

(* FNV-1a 64-bit.  Not cryptographic — it guards against torn writes,
   truncation and bit rot, not adversaries.  [fnv1a_init]/[fnv1a_fold]
   are the running form: the streaming writer and reader checksum each
   chunk as it passes instead of re-walking the payload in a second
   pass. *)
let fnv1a_init = 0xCBF29CE484222325L

let fnv1a_byte h c = Int64.mul (Int64.logxor h (Int64.of_int c)) 0x100000001B3L

let fnv1a_fold h (b : Bytes.t) pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.fnv1a_fold: chunk out of bounds";
  let h = ref h in
  for i = pos to pos + len - 1 do
    (* opera-lint: unsafe — bounds checked for the whole chunk above *)
    h := fnv1a_byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let fnv1a ?(pos = 0) ?len (s : string) =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let h = ref fnv1a_init in
  for i = pos to pos + len - 1 do
    h := fnv1a_byte !h (Char.code s.[i])
  done;
  !h

(* ---- framing -------------------------------------------------------- *)

let magic = "OPRA"

let format_version = 1

(* Byte count of the frame header for a given kind tag: magic (4) +
   format (1) + kind (8 + klen) + version (8) + length (8) + check (8). *)
let header_bytes ~kind = 37 + String.length kind

(* The one writer of the header layout, into [b] at offset 0 — shared by
   {!frame}, {!frame_v2} and the streaming {!write_frame_file}. *)
let put_header b ~format ~kind ~version ~len ~check =
  let klen = String.length kind in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set b 4 (Char.chr format);
  Bytes.set_int64_le b 5 (Int64.of_int klen);
  Bytes.blit_string kind 0 b 13 klen;
  Bytes.set_int64_le b (13 + klen) (Int64.of_int version);
  Bytes.set_int64_le b (21 + klen) (Int64.of_int len);
  Bytes.set_int64_le b (29 + klen) check

(* The in-memory frame: the payload is encoded after a reserved header
   slot in the encoder's own buffer, the header (with the checksum
   folded over the payload) is patched in, and one copy comes out. *)
let frame ~kind ~version (write : encoder -> unit) =
  let hdr = header_bytes ~kind in
  let e = encoder ~initial_size:4096 () in
  reserve e hdr;
  e.pos <- hdr;
  write e;
  let len = e.pos - hdr in
  put_header e.buf ~format:format_version ~kind ~version ~len
    ~check:(fnv1a_fold fnv1a_init e.buf hdr len);
  Bytes.sub_string e.buf 0 e.pos

(* The one header check of every reader.  [d] holds the first
   [header_bytes ~kind] bytes of a frame whose file is [total] bytes
   long; returns the payload's length and stored checksum.  The kind's
   length is checked before its bytes, since a header of another kind
   has another length. *)
let check_header d ~format ~kind ~version ~total =
  need d 5;
  let m = String.sub d.s d.pos 4 and fmt = Char.code d.s.[d.pos + 4] in
  if m <> magic then corrupt "bad magic %S (want %S)" m magic;
  if fmt <> format then corrupt "unsupported codec format %d (want %d)" fmt format;
  d.pos <- d.pos + 5;
  let klen = read_int d in
  if klen <> String.length kind then
    corrupt "artifact kind of %d bytes does not match %S" klen kind;
  need d klen;
  let k = String.sub d.s d.pos klen in
  d.pos <- d.pos + klen;
  if k <> kind then corrupt "artifact kind %S does not match %S" k kind;
  let v = read_int d in
  if v <> version then corrupt "artifact version %d does not match %d" v version;
  let len = read_length d "payload" in
  let check = read_i64 d in
  if total - d.pos <> len then
    corrupt "payload length %d does not match frame (%d bytes present)" len (total - d.pos);
  (len, check)

(* ---- files ---------------------------------------------------------- *)

(* Read once at module init (single-domain by construction): umask can
   only be queried by setting it, which would race once domains fan
   out. *)
let process_umask =
  let m = Unix.umask 0o022 in
  ignore (Unix.umask m);
  m

(* Publish a file atomically: [output] writes a same-directory temp
   file, which is then renamed over [path], so a crash mid-write never
   leaves a half-written frame under the final name (the checksum would
   catch it anyway; this avoids even transient corruption being
   visible).  If [output] raises, the temp file is removed. *)
let publish path (output : out_channel -> unit) =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "codec" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output oc;
         (* flush errors must propagate, not be swallowed by the
            finally's noerr close; closing twice is harmless *)
         close_out oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* temp_file creates mode 0600; artifacts are shared-cache currency
     (other users/hosts mount the dir read-only), so widen to the usual
     0644 modulo the process umask before publishing the name. *)
  (try Unix.chmod tmp (0o644 land lnot process_umask) with Unix.Unix_error _ -> ());
  Sys.rename tmp path

let write_file path (data : string) = publish path (fun oc -> output_string oc data)

(* The streaming frame write: a header placeholder goes out first, the
   payload follows in [chunk_size] stretches, each folded into the
   FNV-1a checksum as it is written, and the header is rewritten with
   the final length and checksum.  The bytes equal [frame]'s; no copy
   of the payload, let alone of the frame, is ever resident. *)
let write_frame_file path ~kind ~version (write : encoder -> unit) =
  let hdr = Bytes.create (header_bytes ~kind) in
  put_header hdr ~format:format_version ~kind ~version ~len:0 ~check:0L;
  publish path (fun oc ->
      output_bytes oc hdr;
      let h = ref fnv1a_init and len = ref 0 in
      let sink b n =
        h := fnv1a_fold !h b 0 n;
        len := !len + n;
        output oc b 0 n
      in
      let e = { buf = Bytes.create chunk_size; pos = 0; sink = Some sink } in
      write e;
      drain e;
      put_header hdr ~format:format_version ~kind ~version ~len:!len ~check:!h;
      seek_out oc 0;
      output_bytes oc hdr)

(* ---- streaming frame reads ------------------------------------------

   One reader for both formats.  The header is read off the channel and
   validated by [check_header]; the payload is read into its one final
   buffer in chunks, each folded through the FNV-1a checksum as it
   lands: one pass, one allocation, the artifact never resident twice.
   [None] only when the file cannot be opened; a file that opens but is
   short, empty or damaged raises [Corrupt], so callers take their
   drop-and-rebuild path instead of mistaking damage for a miss. *)

let input_exactly ic path buf pos len =
  match really_input ic buf pos len with
  | () -> ()
  | exception End_of_file -> corrupt "artifact file %s truncated mid-read" path

(* The header a [kind] frame needs must fit in the file's [total] bytes. *)
let header_of_size path ~kind ~total =
  let hdr = header_bytes ~kind in
  if total < hdr then
    corrupt "artifact file %s is %d bytes, short of its %d-byte header" path total hdr;
  hdr

let read_checked ~format ~kind ~version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let header = Bytes.create (header_of_size path ~kind ~total) in
          input_exactly ic path header 0 (Bytes.length header);
          let len, check =
            check_header (decoder_of_string (Bytes.unsafe_to_string header)) ~format ~kind ~version
              ~total
          in
          let payload = Bytes.create len in
          let h = ref fnv1a_init and pos = ref 0 in
          while !pos < len do
            let n = Int.min chunk_size (len - !pos) in
            input_exactly ic path payload !pos n;
            h := fnv1a_fold !h payload !pos n;
            pos := !pos + n
          done;
          if not (Int64.equal check !h) then
            corrupt "checksum mismatch in %s (stored %Lx, computed %Lx)" path check !h;
          Some (Bytes.unsafe_to_string payload))

let read_frame ~kind ~version path =
  Option.map decoder_of_string (read_checked ~format:format_version ~kind ~version path)

(* ---- v2 frames: section-table payloads, mmap-decodable ---------------

   A v2 frame carries the same header as v1 (format byte 2) but lays its
   payload out so the bulk numeric data never needs an in-memory decode:

     prelude   u8 word_bits | u8 endian (1 = LE) | 6 pad bytes
     nsect     i64le
     table     nsect x { tag i64 (1 = int, 2 = float) | off i64 | count i64 }
     meta      i64le length + encoder bytes (scalars, small arrays)
     sections  raw i64le / IEEE-754le element runs, each padded so its
               FILE offset (header + payload offset) is 8-aligned

   On a 64-bit little-endian host the on-disk element bytes coincide
   with the in-memory layout of an [int]/[float64] Bigarray, so a reader
   can hand out [Unix.map_file]-backed views over the file instead of
   decoding gigabytes; the checksum is verified over the mapped region
   first.  Other hosts (or small files, where setup cost beats page
   mapping) take the copying fallback, which decodes the same bytes
   portably. *)

let format_version_v2 = 2

type fsection = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type isection = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type section_data =
  | F_arr of float array
  | I_arr of int array
  | F_big of fsection
  | I_big of isection

type section = Ints of isection | Floats of fsection

type sections = { mapped : bool; entries : section array }

let sections_mapped s = s.mapped

let section_count s = Array.length s.entries

let section_float s i =
  if i < 0 || i >= Array.length s.entries then
    corrupt "float section %d out of range (have %d)" i (Array.length s.entries);
  match s.entries.(i) with
  | Floats f -> f
  | Ints _ -> corrupt "section %d holds ints, not floats" i

let section_int s i =
  if i < 0 || i >= Array.length s.entries then
    corrupt "int section %d out of range (have %d)" i (Array.length s.entries);
  match s.entries.(i) with
  | Ints a -> a
  | Floats _ -> corrupt "section %d holds floats, not ints" i

let section_len = function
  | F_arr a -> Array.length a
  | I_arr a -> Array.length a
  | F_big b -> Bigarray.Array1.dim b
  | I_big b -> Bigarray.Array1.dim b

let section_tag = function F_arr _ | F_big _ -> 2L | I_arr _ | I_big _ -> 1L

let frame_v2 ~kind ~version ~(meta : encoder -> unit) ~(sections : section_data list) =
  let meta_buf = encoder ~initial_size:1024 () in
  meta meta_buf;
  let meta_str = contents meta_buf in
  let sections = Array.of_list sections in
  let nsect = Array.length sections in
  let payload_off = header_bytes ~kind in
  (* Lay offsets out first: table, meta, then the 8-file-aligned runs. *)
  let table_off = 16 in
  let meta_off = table_off + (24 * nsect) in
  let cursor = ref (meta_off + 8 + String.length meta_str) in
  let offs = Array.make nsect 0 in
  Array.iteri
    (fun i s ->
      let pad = (8 - ((payload_off + !cursor) mod 8)) mod 8 in
      offs.(i) <- !cursor + pad;
      cursor := offs.(i) + (8 * section_len s))
    sections;
  let payload_len = !cursor in
  let e = encoder ~initial_size:(payload_len + 64) () in
  add_char e (Char.chr Sys.int_size);
  add_char e (if Sys.big_endian then '\000' else '\001');
  add_string e "\000\000\000\000\000\000";
  write_int e nsect;
  Array.iteri
    (fun i s ->
      write_i64 e (section_tag s);
      write_int e offs.(i);
      write_int e (section_len s))
    sections;
  write_string e meta_str;
  Array.iteri
    (fun i s ->
      for _ = e.pos to offs.(i) - 1 do
        add_char e '\000'
      done;
      match s with
      | F_arr a -> Array.iter (fun v -> write_float e v) a
      | I_arr a -> Array.iter (fun v -> write_int e v) a
      | F_big b ->
          for j = 0 to Bigarray.Array1.dim b - 1 do
            write_float e (Bigarray.Array1.unsafe_get b j)
          done
      | I_big b ->
          for j = 0 to Bigarray.Array1.dim b - 1 do
            write_int e (Bigarray.Array1.unsafe_get b j)
          done)
    sections;
  let len = e.pos in
  let f = Bytes.create (payload_off + len) in
  put_header f ~format:format_version_v2 ~kind ~version ~len
    ~check:(fnv1a_fold fnv1a_init e.buf 0 len);
  Bytes.blit e.buf 0 f payload_off len;
  Bytes.unsafe_to_string f

(* Parse the prelude + section table out of a decoder positioned at the
   start of a v2 payload.  Returns (word_bits, little_endian, table)
   where table entries are (tag, payload offset, element count). *)
let read_v2_table d payload_len =
  need d 16;
  let word_bits = Char.code d.s.[d.pos] in
  let little = d.s.[d.pos + 1] = '\001' in
  d.pos <- d.pos + 8;
  let nsect = read_length d "section table" in
  if nsect > 4096 then corrupt "implausible section count %d" nsect;
  let table =
    Array.init nsect (fun _ ->
        let tag = read_i64 d in
        let off = read_length d "section offset" in
        let count = read_length d "section" in
        if tag <> 1L && tag <> 2L then corrupt "unknown section tag %Ld" tag;
        if off + (8 * count) > payload_len then
          corrupt "section overruns payload (%d + %d elems > %d)" off count payload_len;
        (tag, off, count))
  in
  (word_bits, little, table)

(* Copying decode of the section runs — the portable fallback. *)
let copy_sections (payload : string) table =
  Array.map
    (fun (tag, off, count) ->
      if tag = 2L then begin
        let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout count in
        for j = 0 to count - 1 do
          Bigarray.Array1.unsafe_set b j
            (Int64.float_of_bits (String.get_int64_le payload (off + (8 * j))))
        done;
        Floats b
      end
      else begin
        let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout count in
        for j = 0 to count - 1 do
          let v = String.get_int64_le payload (off + (8 * j)) in
          if Int64.compare v min_int64 < 0 || Int64.compare v max_int64 > 0 then
            corrupt "int section element out of native range at offset %d" (off + (8 * j));
          Bigarray.Array1.unsafe_set b j (Int64.to_int v)
        done;
        Ints b
      end)
    table

(* The mapped layout only coincides with the wire bytes on a 64-bit
   little-endian host reading a frame written by one. *)
let can_map ~word_bits ~little =
  little && (not Sys.big_endian) && word_bits = Sys.int_size && Sys.int_size = 63

let fnv1a_map (m : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t)
    pos len =
  let h = ref fnv1a_init in
  for i = pos to pos + len - 1 do
    h := fnv1a_byte !h (Char.code (Bigarray.Array1.unsafe_get m i))
  done;
  !h

let string_of_map m pos len =
  String.init len (fun i -> Bigarray.Array1.unsafe_get m (pos + i))

(* Mapped load: one whole-file char view for validation and the small
   parts, then one typed view per section.  The fd is closed as soon as
   the views exist — mappings survive the descriptor. *)
let map_frame_v2 ~kind ~version path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let total = (Unix.fstat fd).Unix.st_size in
      let hdr_len = header_of_size path ~kind ~total in
      let whole =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| total |])
      in
      let len, check =
        check_header
          (decoder_of_string (string_of_map whole 0 hdr_len))
          ~format:format_version_v2 ~kind ~version ~total
      in
      (* Checksum over the mapped region before trusting any of it. *)
      let actual = fnv1a_map whole hdr_len len in
      if not (Int64.equal check actual) then
        corrupt "checksum mismatch in %s (stored %Lx, computed %Lx)" path check actual;
      (* Prelude + table, read through a copied prefix (it is tiny). *)
      let prefix_len = Int.min len 65536 in
      let prefix = string_of_map whole hdr_len prefix_len in
      let pd = decoder_of_string prefix in
      let word_bits, little, table = read_v2_table pd len in
      if not (can_map ~word_bits ~little) then None
      else begin
        let meta_len = read_length pd "meta" in
        let meta_off = pd.pos in
        let meta =
          if meta_off + meta_len <= prefix_len then String.sub prefix meta_off meta_len
          else string_of_map whole (hdr_len + meta_off) meta_len
        in
        let entries =
          Array.map
            (fun (tag, off, count) ->
              let pos = hdr_len + off in
              if pos mod 8 <> 0 then corrupt "section misaligned at file offset %d" pos;
              if tag = 2L then
                Floats
                  (Bigarray.array1_of_genarray
                     (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.float64
                        Bigarray.c_layout false [| count |]))
              else
                Ints
                  (Bigarray.array1_of_genarray
                     (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int
                        Bigarray.c_layout false [| count |])))
            table
        in
        Some (decoder_of_string meta, { mapped = true; entries })
      end)

let read_frame_v2 ?(map = true) ~kind ~version path =
  (* A missing file fails the mapping's open and then the copying
     read's: [None]. *)
  let mapped =
    if map then
      match map_frame_v2 ~kind ~version path with r -> r | exception Unix.Unix_error _ -> None
    else None
  in
  match mapped with
  | Some _ -> mapped
  | None ->
      (* Copying fallback: the streamed read, then a decode of the runs. *)
      Option.map
        (fun payload ->
          let pd = decoder_of_string payload in
          let _, _, table = read_v2_table pd (String.length payload) in
          let meta_len = read_length pd "meta" in
          let meta = String.sub payload pd.pos meta_len in
          (decoder_of_string meta, { mapped = false; entries = copy_sections payload table }))
        (read_checked ~format:format_version_v2 ~kind ~version path)
