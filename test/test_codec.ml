(* Util.Codec: bit-exact round-trips and frame validation.

   The codec underwrites the artifact store's "warm run reproduces the
   cold run bitwise" guarantee, so the float round-trip checks compare
   IEEE bit patterns, not values. *)

module C = Util.Codec

let bits = Int64.bits_of_float

let roundtrip write read v =
  let e = C.encoder () in
  write e v;
  let d = C.decoder_of_string (C.contents e) in
  let v' = read d in
  C.expect_end d;
  v'

let test_int_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (roundtrip C.write_int C.read_int v))
    [ 0; 1; -1; 42; max_int; min_int; 1 lsl 40; -(1 lsl 40) ]

let test_i64_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int64) (Int64.to_string v) v (roundtrip C.write_i64 C.read_i64 v))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789ABCDEFL ]

let test_bool_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check bool) "bool" v (roundtrip C.write_bool C.read_bool v))
    [ true; false ]

let test_float_bit_exact () =
  List.iter
    (fun v ->
      Alcotest.(check int64)
        (Printf.sprintf "%h" v)
        (bits v)
        (bits (roundtrip C.write_float C.read_float v)))
    [
      0.0; -0.0; 1.0; -1.0; Float.pi; 1e-300; -1e300; Float.epsilon; Float.infinity;
      Float.neg_infinity; Float.nan; Float.min_float; Float.max_float; 4.9e-324;
    ]

let test_string_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check string) "string" v (roundtrip C.write_string C.read_string v))
    [ ""; "x"; "hello"; String.init 256 Char.chr; String.make 10_000 '\xff' ]

let test_array_roundtrip () =
  let ia = Array.init 100 (fun i -> (i * 7919) - 50) in
  Alcotest.(check (array int)) "int array" ia (roundtrip C.write_int_array C.read_int_array ia);
  Alcotest.(check (array int)) "empty" [||] (roundtrip C.write_int_array C.read_int_array [||]);
  let fa = Array.init 100 (fun i -> sin (float_of_int i) *. 1e10) in
  let fa' = roundtrip C.write_float_array C.read_float_array fa in
  Array.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "fa.(%d)" i) (bits v) (bits fa'.(i)))
    fa

let test_expect_end () =
  let e = C.encoder () in
  C.write_int e 1;
  C.write_int e 2;
  let d = C.decoder_of_string (C.contents e) in
  ignore (C.read_int d);
  match C.expect_end d with
  | () -> Alcotest.fail "expect_end accepted a half-read payload"
  | exception C.Corrupt _ -> ()

let frame_payload () =
  C.frame ~kind:"chol" ~version:3 (fun e ->
      C.write_int e 17;
      C.write_float_array e [| 1.5; -2.25; 1e-12 |];
      C.write_string e "ordering")

(* Frame bytes read back through the one frame reader, from a file. *)
let read_bytes ~kind ~version bytes =
  let path = Filename.temp_file "codec_test" ".opra" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      C.write_file path bytes;
      match C.read_frame ~kind ~version path with
      | Some d -> d
      | None -> Alcotest.fail "read_frame found no file")

let read_back_payload d =
  let n = C.read_int d in
  let xs = C.read_float_array d in
  let s = C.read_string d in
  C.expect_end d;
  (n, xs, s)

let test_frame_roundtrip () =
  let n, xs, s = read_back_payload (read_bytes ~kind:"chol" ~version:3 (frame_payload ())) in
  Alcotest.(check int) "int through frame" 17 n;
  Alcotest.(check (array (float 0.0))) "floats through frame" [| 1.5; -2.25; 1e-12 |] xs;
  Alcotest.(check string) "string through frame" "ordering" s

(* The frame format is on-disk currency: caches written by one build
   are read by the next, so these exact bytes pin it — any drift in
   header layout, field order or checksum placement fails here. *)
let test_frame_bytes_pinned () =
  let f =
    C.frame ~kind:"pin" ~version:7 (fun e ->
        C.write_int e 42;
        C.write_string e "opera";
        C.write_float e (-1.5);
        C.write_bool e true;
        C.write_int_array e [| 3; -1 |])
  in
  let hex =
    String.concat "" (List.init (String.length f) (fun i -> Printf.sprintf "%02x" (Char.code f.[i])))
  in
  Alcotest.(check string)
    "frame bytes"
    ("4f50524101030000000000000070696e07000000000000003600000000000000"
   ^ "72d9ae09d723249b2a0000000000000005000000000000006f70657261000000"
   ^ "000000f8bf0102000000000000000300000000000000ffffffffffffffff")
    hex;
  Alcotest.(check string) "frame digest" "47807af78c05335a73245aad07742bca"
    (Digest.to_hex (Digest.string f))

let expect_corrupt what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception C.Corrupt _ -> ()

let test_frame_validation () =
  let good = frame_payload () in
  expect_corrupt "wrong kind" (fun () -> read_bytes ~kind:"perm" ~version:3 good);
  expect_corrupt "longer kind" (fun () -> read_bytes ~kind:"cholesky" ~version:3 good);
  expect_corrupt "older version" (fun () -> read_bytes ~kind:"chol" ~version:4 good);
  expect_corrupt "newer version" (fun () -> read_bytes ~kind:"chol" ~version:2 good);
  expect_corrupt "empty" (fun () -> read_bytes ~kind:"chol" ~version:3 "");
  (* truncation at every prefix length must be detected, never crash *)
  for len = 0 to String.length good - 1 do
    expect_corrupt
      (Printf.sprintf "truncated to %d" len)
      (fun () ->
        let d = read_bytes ~kind:"chol" ~version:3 (String.sub good 0 len) in
        ignore (read_back_payload d))
  done

let test_bit_flip_checksum () =
  let good = frame_payload () in
  (* flip one bit in every byte position: either the header check or the
     FNV-1a checksum must catch it *)
  for pos = 0 to String.length good - 1 do
    let b = Bytes.of_string good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    expect_corrupt
      (Printf.sprintf "bit flip at %d" pos)
      (fun () ->
        let d = read_bytes ~kind:"chol" ~version:3 (Bytes.to_string b) in
        read_back_payload d)
  done

let test_fnv1a_known () =
  (* standard FNV-1a 64 test vectors *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (C.fnv1a "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (C.fnv1a "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (C.fnv1a "foobar")

let test_file_roundtrip () =
  let path = Filename.temp_file "codec_test" ".opra" in
  C.write_file path (frame_payload ());
  (match C.read_frame ~kind:"chol" ~version:3 path with
  | Some d ->
      let n, xs, s = read_back_payload d in
      Alcotest.(check int) "int through the file" 17 n;
      Alcotest.(check (array (float 0.0))) "floats through the file" [| 1.5; -2.25; 1e-12 |] xs;
      Alcotest.(check string) "string through the file" "ordering" s
  | None -> Alcotest.fail "read_frame returned None");
  Sys.remove path;
  Alcotest.(check bool) "missing file" true (C.read_frame ~kind:"chol" ~version:3 path = None)

let test_zero_length_file_is_corrupt () =
  (* Regression: a crash can leave a zero-length file under an artifact
     name (e.g. a journal entry opened but never written).  That is
     cache damage, not a miss: read_frame must raise Corrupt — not
     return None — so the store (and through it the journal) and the
     lint cache take their drop-and-rebuild path. *)
  let path = Filename.temp_file "codec_test" ".opra" in
  (match C.read_frame ~kind:"chol" ~version:3 path with
  | exception C.Corrupt _ -> ()
  | Some _ -> Alcotest.fail "zero-length file read back as data"
  | None -> Alcotest.fail "zero-length file reported as a clean miss");
  Sys.remove path

let test_write_file_permissions () =
  (* temp_file creates 0600 scratch files; write_file must not leak that
     mode into the store — artifacts are shared-readable (0644 masked by
     the process umask) so cooperating shard processes under different
     users can replay each other's results. *)
  let path = Filename.temp_file "codec_perm" ".opra" in
  C.write_file path (frame_payload ());
  let umask =
    let m = Unix.umask 0o022 in
    ignore (Unix.umask m);
    m
  in
  let st = Unix.stat path in
  Alcotest.(check int) "mode is 0o644 masked by umask" (0o644 land lnot umask)
    (st.Unix.st_perm land 0o777);
  Sys.remove path

(* ---- the streaming frame writer --------------------------------------

   [write_frame_file] must write exactly [frame]'s bytes, whatever the
   payload's size relative to its 64 KiB chunks and wherever an element
   straddles a chunk boundary. *)

let fresh_dir () =
  let marker = Filename.temp_file "codec_stream" "" in
  Sys.remove marker;
  let dir = marker ^ ".d" in
  Sys.mkdir dir 0o755;
  dir

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* Run [f] on a fresh directory, removed afterwards however [f] ends. *)
let with_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* The streamed file equals the in-memory frame, byte for byte. *)
let check_streamed what write =
  with_dir (fun dir ->
      let path = Filename.concat dir "a.opra" in
      C.write_frame_file path ~kind:"stream" ~version:5 write;
      let want = C.frame ~kind:"stream" ~version:5 write in
      let got = read_all path in
      if not (String.equal want got) then
        Alcotest.failf "%s: streamed file (%d bytes) differs from frame (%d bytes)" what
          (String.length got) (String.length want);
      Alcotest.(check (list string)) (what ^ ": no temp file left") [ "a.opra" ]
        (Array.to_list (Sys.readdir dir));
      want)

(* A payload of exactly [n] bytes: [n mod 8] booleans, then ints, so the
   ints sit off the 8-byte grid and straddle chunk ends. *)
let payload_of_size n e =
  for i = 1 to n mod 8 do
    C.write_bool e (i mod 2 = 0)
  done;
  for i = 1 to n / 8 do
    C.write_int e (i * 7919)
  done

let test_streamed_payload_sizes () =
  List.iter
    (fun n ->
      let bytes = check_streamed (Printf.sprintf "%d-byte payload" n) (payload_of_size n) in
      Alcotest.(check int)
        (Printf.sprintf "%d-byte payload: frame length" n)
        (String.length (C.frame ~kind:"stream" ~version:5 ignore) + n)
        (String.length bytes))
    [ 0; 1; 8; 65_535; 65_536; 65_537; 3 * 65_536 ]

let special_floats =
  [|
    0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
    Int64.float_of_bits 0xFFF8DEADBEEF0001L; Float.min_float; Float.max_float; 4.9e-324;
  |]

let special_ints = [| 0; 1; -1; min_int; max_int; min_int + 1; max_int - 1 |]

let test_streamed_arrays () =
  List.iter
    (fun len ->
      let fa = Array.init len (fun i -> special_floats.(i mod Array.length special_floats)) in
      let ia = Array.init len (fun i -> special_ints.(i mod Array.length special_ints)) in
      List.iter
        (fun lead ->
          let write e =
            for _ = 1 to lead do
              C.write_bool e true
            done;
            C.write_float_array e fa;
            C.write_int_array e ia;
            C.write_string e "end"
          in
          let what = Printf.sprintf "%d elements after %d bytes" len lead in
          let d = read_bytes ~kind:"stream" ~version:5 (check_streamed what write) in
          for _ = 1 to lead do
            ignore (C.read_bool d)
          done;
          let fa' = C.read_float_array d in
          let ia' = C.read_int_array d in
          Alcotest.(check string) (what ^ ": tail") "end" (C.read_string d);
          C.expect_end d;
          Alcotest.(check bool) (what ^ ": float bits round-trip") true
            (Array.length fa' = len
            && Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) fa fa');
          Alcotest.(check (array int)) (what ^ ": ints round-trip") ia ia')
        [ 0; 3 ])
    [ 0; 1; 8_191; 8_192; 8_193; 100_000 ]

exception Writer_failed

let test_streamed_write_failure () =
  with_dir (fun dir ->
      let path = Filename.concat dir "a.opra" in
      (match
         C.write_frame_file path ~kind:"stream" ~version:5 (fun e ->
             C.write_float_array e (Array.make 50_000 1.0);
             raise Writer_failed)
       with
      | () -> Alcotest.fail "a raising writer published a file"
      | exception Writer_failed -> ());
      Alcotest.(check (list string)) "neither the target nor a temp file" []
        (Array.to_list (Sys.readdir dir));
      (* A failed rewrite leaves the old file as it was. *)
      C.write_frame_file path ~kind:"stream" ~version:5 (payload_of_size 100);
      let before = read_all path in
      (try C.write_frame_file path ~kind:"stream" ~version:5 (fun _ -> raise Writer_failed)
       with Writer_failed -> ());
      Alcotest.(check string) "old file untouched" before (read_all path);
      Alcotest.(check (list string)) "only the old file" [ "a.opra" ]
        (Array.to_list (Sys.readdir dir)))

let test_bulk_read_corrupt () =
  let corrupt_with what bytes read =
    match read (C.decoder_of_string bytes) with
    | _ -> Alcotest.failf "%s: expected Corrupt" what
    | exception C.Corrupt msg -> msg
  in
  let enc f =
    let e = C.encoder () in
    f e;
    C.contents e
  in
  List.iter
    (fun (name, read) ->
      ignore
        (corrupt_with (name ^ ": length past the end")
           (enc (fun e ->
                C.write_int e 3;
                C.write_int e 1;
                C.write_int e 2))
           read);
      ignore (corrupt_with (name ^ ": negative length") (enc (fun e -> C.write_int e (-1))) read);
      (* 2^60 elements: 8 n wraps to 0 in native ints; still Corrupt, not
         an allocation failure *)
      ignore (corrupt_with (name ^ ": huge length") (enc (fun e -> C.write_int e (1 lsl 60))) read);
      ignore (corrupt_with (name ^ ": truncated length") "\001\000" read))
    [
      ("int array", fun d -> ignore (C.read_int_array d));
      ("float array", fun d -> ignore (C.read_float_array d));
    ];
  if Sys.int_size = 63 then begin
    let msg =
      corrupt_with "int beyond the native range"
        (enc (fun e ->
             C.write_int e 2;
             C.write_int e 5;
             C.write_i64 e Int64.max_int))
        C.read_int_array
    in
    Alcotest.(check string) "message names the element's offset"
      "integer out of native range at offset 16" msg
  end

let suite =
  [
    Alcotest.test_case "int round-trip" `Quick test_int_roundtrip;
    Alcotest.test_case "i64 round-trip" `Quick test_i64_roundtrip;
    Alcotest.test_case "bool round-trip" `Quick test_bool_roundtrip;
    Alcotest.test_case "float bit-exact round-trip" `Quick test_float_bit_exact;
    Alcotest.test_case "string round-trip" `Quick test_string_roundtrip;
    Alcotest.test_case "array round-trip" `Quick test_array_roundtrip;
    Alcotest.test_case "expect_end flags leftovers" `Quick test_expect_end;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame validation" `Quick test_frame_validation;
    Alcotest.test_case "frame bytes are pinned" `Quick test_frame_bytes_pinned;
    Alcotest.test_case "bit flips fail the checksum" `Quick test_bit_flip_checksum;
    Alcotest.test_case "fnv1a test vectors" `Quick test_fnv1a_known;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "zero-length file raises Corrupt" `Quick test_zero_length_file_is_corrupt;
    Alcotest.test_case "write_file chmods artifacts" `Quick test_write_file_permissions;
    Alcotest.test_case "streamed frame file = frame, payload sizes" `Quick
      test_streamed_payload_sizes;
    Alcotest.test_case "streamed frame file = frame, bulk arrays" `Quick test_streamed_arrays;
    Alcotest.test_case "failed streamed write leaves no file" `Quick test_streamed_write_failure;
    Alcotest.test_case "bulk reads keep their Corrupt cases" `Quick test_bulk_read_corrupt;
  ]
