(* Scenario.Store: read-through caching and the never-trust-a-damaged-
   artifact discipline.

   Corruption cases (truncation, bit flip, version bump, wrong kind,
   semantic decode mismatch) must each count as a miss+corrupt, trigger
   a rebuild, and leave the store returning a value identical to the
   cold build. *)

module Store = Scenario.Store
module C = Util.Codec

(* A unique empty directory name per call (Store.create mkdirs it). *)
let fresh_dir () =
  let marker = Filename.temp_file "opera_store_test" "" in
  Sys.remove marker;
  marker ^ ".d"

let payload = Array.init 64 (fun i -> sin (float_of_int i) *. 1e6)

let builds = ref 0

let lookup store =
  Store.find_or_build store ~kind:"test" ~version:1 ~key:"k0"
    ~encode:(fun v e -> C.write_float_array e v)
    ~decode:C.read_float_array
    ~build:(fun () ->
      incr builds;
      Array.copy payload)

let check_stats what store ~hits ~misses ~corrupt =
  let s = Store.stats store in
  Alcotest.(check int) (what ^ ": hits") hits s.Store.hits;
  Alcotest.(check int) (what ^ ": misses") misses s.Store.misses;
  Alcotest.(check int) (what ^ ": corrupt") corrupt s.Store.corrupt

let check_payload what v =
  Alcotest.(check bool)
    (what ^ ": value matches cold build bitwise")
    true
    (Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       payload v)

let test_miss_then_hit () =
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  check_payload "cold" (lookup store);
  check_payload "warm" (lookup store);
  check_payload "warm again" (lookup store);
  Alcotest.(check int) "built exactly once" 1 !builds;
  check_stats "miss then hits" store ~hits:2 ~misses:1 ~corrupt:0

let test_disabled_always_builds () =
  builds := 0;
  let disabled = Store.create ~metrics:(Util.Metrics.create ()) ~dir:None () in
  check_payload "disabled" (lookup disabled);
  check_payload "disabled again" (lookup disabled);
  Alcotest.(check int) "no caching without a dir" 2 !builds

let artifact_path store =
  match Store.path store ~kind:"test" ~key:"k0" with
  | Some p -> p
  | None -> Alcotest.fail "enabled store must expose the artifact path"

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* ---- the corruption matrix -------------------------------------------

   Every case runs on two subjects, the two kinds of file the store
   guards: an artifact, built once by [find_or_build], and a results
   journal entry, replayed by [Registry.lookup] and, on a miss, re-run
   and re-journaled by [Registry.record] as the engine does.  [builds]
   counts builds and re-runs alike. *)

type cache = {
  get : unit -> string;  (* the value, as canonical bytes; a miss builds *)
  path : string;  (* the value's file *)
  corrupt : unit -> int;  (* damaged files dropped so far *)
}

type subject = {
  name : string;
  kind : string;
  version : int;
  open_cache : string -> cache;  (* a fresh handle on a cache directory *)
}

let artifact_bytes v =
  String.concat "," (Array.to_list (Array.map (fun x -> Int64.to_string (Int64.bits_of_float x)) v))

let artifact =
  {
    name = "artifact";
    kind = "test";
    version = 1;
    open_cache =
      (fun dir ->
        let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some dir) () in
        {
          get = (fun () -> artifact_bytes (lookup store));
          path = artifact_path store;
          corrupt = (fun () -> (Store.stats store).Store.corrupt);
        });
  }

let journaled_job =
  match Scenario.Job.of_json (Util.Json.Obj [ ("name", Util.Json.Str "journaled") ]) with
  | Ok job -> job
  | Error e -> failwith e

let journaled_record =
  Util.Json.(
    Obj
      [
        ("name", Str "journaled");
        ("mean", List [ Num 0.1; Num (-0.0); Num 1e-300; Num Float.max_float ]);
        ("flags", Obj [ ("ok", Bool true); ("none", Null) ]);
      ])

let journal =
  {
    name = "journal entry";
    kind = "result";
    version = 1;
    open_cache =
      (fun dir ->
        let registry = Scenario.Registry.create ~dir:(Some dir) () in
        {
          get =
            (fun () ->
              match Scenario.Registry.lookup registry journaled_job with
              | Some record -> Util.Json.render record
              | None ->
                  incr builds;
                  Scenario.Registry.record registry journaled_job journaled_record;
                  Util.Json.render journaled_record);
          path =
            (match Scenario.Registry.path registry journaled_job with
            | Some p -> p
            | None -> Alcotest.fail "enabled registry must expose the entry path");
          corrupt = (fun () -> (Scenario.Registry.stats registry).Scenario.Registry.corrupt);
        });
  }

let subjects = [ artifact; journal ]

(* Fill a fresh cache with [subject]'s value; returns the handle, the
   value and its file's bytes. *)
let cold subject =
  builds := 0;
  let c = subject.open_cache (fresh_dir ()) in
  let value = c.get () in
  Alcotest.(check int) (subject.name ^ ": cold build") 1 !builds;
  (c, value, read_all c.path)

(* After damage: the next [get] rebuilds or re-runs exactly once and
   re-writes the cold file byte for byte, the one after is a clean hit,
   and [corrupt] counts the damaged file once (nothing when the file
   was missing rather than damaged). *)
let check_heals what (c, value, bytes) ~damaged =
  Alcotest.(check string) (what ^ ": value after damage") value (c.get ());
  Alcotest.(check int) (what ^ ": rebuilt once") 2 !builds;
  Alcotest.(check string) (what ^ ": re-written byte for byte") bytes (read_all c.path);
  Alcotest.(check string) (what ^ ": healed") value (c.get ());
  Alcotest.(check int) (what ^ ": no third build") 2 !builds;
  Alcotest.(check int) (what ^ ": dropped once") (if damaged then 1 else 0) (c.corrupt ())

(* Damage each subject's cached file with [mangle] ([None] deletes it),
   then check it heals. *)
let corruption_case what ?(damaged = true) mangle =
  List.iter
    (fun subject ->
      let ((c, _, bytes) as filled) = cold subject in
      (match mangle subject bytes with
      | Some mangled -> C.write_file c.path mangled
      | None -> Sys.remove c.path);
      check_heals (subject.name ^ ", " ^ what) filled ~damaged)
    subjects

let test_truncated () =
  corruption_case "truncated" (fun _ b -> Some (String.sub b 0 (String.length b / 2)))

let test_bit_flip () =
  corruption_case "bit flip" (fun _ b ->
      let bytes = Bytes.of_string b in
      let pos = Bytes.length bytes - 3 in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x01));
      Some (Bytes.to_string bytes))

let test_wrong_kind () =
  corruption_case "wrong kind" (fun s _ ->
      Some (C.frame ~kind:"other" ~version:s.version (fun e -> C.write_float_array e payload)))

let test_version_mismatch () =
  corruption_case "older schema" (fun s _ ->
      Some (C.frame ~kind:s.kind ~version:(s.version - 1) (fun e -> C.write_float_array e payload)))

let test_semantic_decode_mismatch () =
  (* a frame that validates but whose payload the decoder rejects *)
  corruption_case "semantic mismatch" (fun s _ ->
      Some (C.frame ~kind:s.kind ~version:s.version (fun e -> C.write_string e "not a value")))

let test_zero_length_artifact () =
  (* read_frame raises Corrupt on a zero-length file; the store must
     fold that into the usual drop-and-rebuild path. *)
  corruption_case "zero-length" (fun _ _ -> Some "")

let test_deleted_file () =
  corruption_case "deleted" ~damaged:false (fun _ _ -> None);
  (* a deleted artifact is a plain miss: two misses, nothing corrupt *)
  builds := 0;
  let store = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (fresh_dir ())) () in
  ignore (lookup store);
  Sys.remove (artifact_path store);
  ignore (lookup store);
  check_stats "deleted artifact" store ~hits:0 ~misses:2 ~corrupt:0

(* A decoder may blow up with something other than Codec.Corrupt — an
   Invalid_argument from a stale schema indexing out of bounds, say.
   The store must treat that exactly like corruption: drop, count,
   heal.  Crashing the whole batch over one stale artifact is the bug
   this guards against.  The journal's own decoder is total (every
   malformed payload raises Corrupt), so the raising decoder reaches
   each subject's file through [Store.find] on its kind and key. *)
let find_raising subject c raise_it =
  let key =
    let base = Filename.basename c.path in
    let prefix = String.length subject.kind + 1 in
    String.sub base prefix (String.length base - prefix - String.length ".opra")
  in
  let probe =
    Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some (Filename.dirname c.path)) ()
  in
  ( probe,
    fun () ->
      Store.find probe ~kind:subject.kind ~version:subject.version ~key ~decode:(fun _ ->
          raise_it ()) )

let test_decoder_exception_rebuilds () =
  List.iter
    (fun subject ->
      let ((c, _, _) as filled) = cold subject in
      let probe, find = find_raising subject c (fun () -> invalid_arg "index out of bounds") in
      Alcotest.(check bool) (subject.name ^ ": dropped, not returned") true (find () = None);
      Alcotest.(check int) (subject.name ^ ": decoder exception counts as corrupt") 1
        (Store.stats probe).Store.corrupt;
      Alcotest.(check bool) (subject.name ^ ": file removed") false (Sys.file_exists c.path);
      check_heals (subject.name ^ ", decoder exception") filled ~damaged:false)
    subjects

let test_fatal_exceptions_propagate () =
  List.iter
    (fun subject ->
      List.iter
        (fun fatal ->
          let c, value, bytes = cold subject in
          let probe, find = find_raising subject c (fun () -> raise fatal) in
          let what = subject.name ^ ", " ^ Printexc.to_string fatal in
          Alcotest.check_raises (what ^ " is never swallowed") fatal (fun () -> ignore (find ()));
          (* and the file must survive — OOM is the machine's problem,
             not evidence the file is damaged *)
          Alcotest.(check string) (what ^ ": file untouched") bytes (read_all c.path);
          Alcotest.(check int) (what ^ ": not counted as corrupt") 0
            (Store.stats probe).Store.corrupt;
          Alcotest.(check string) (what ^ ": still a hit") value (c.get ());
          Alcotest.(check int) (what ^ ": nothing rebuilt") 1 !builds)
        [ Out_of_memory; Stack_overflow ])
    subjects

(* The batch engine's domains look up distinct artifacts at once: every
   count must land (no lost updates under the store's mutex) and every
   artifact must be written whole.  Each domain misses, then hits, on
   its own keys, with the shared metrics registry counting along. *)
let test_concurrent_distinct_keys () =
  let metrics = Util.Metrics.create () in
  let dir = fresh_dir () in
  let store = Store.create ~metrics ~dir:(Some dir) () in
  let domains = 4 and keys = 25 in
  let value d k = Array.init 16 (fun i -> float_of_int ((d * 1000) + (k * 16) + i) *. 0.5) in
  let lookup store ~build d k =
    Store.find_or_build store ~kind:"test" ~version:1
      ~key:(Printf.sprintf "d%d-k%d" d k)
      ~encode:(fun v e -> C.write_float_array e v)
      ~decode:C.read_float_array ~build
  in
  let worker d () =
    for pass = 1 to 2 do
      for k = 0 to keys - 1 do
        let v = lookup store ~build:(fun () -> value d k) d k in
        if v <> value d k then failwith (Printf.sprintf "pass %d: d%d-k%d wrong value" pass d k)
      done
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  let total = domains * keys in
  check_stats "four domains" store ~hits:total ~misses:total ~corrupt:0;
  Alcotest.(check int) "writes" total (Store.stats store).Store.writes;
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (Util.Metrics.counter metrics name))
    [ ("store.hits", total); ("store.misses", total); ("store.writes", total) ];
  (* One timing per write and per hit, none lost under the lock. *)
  List.iter
    (fun (name, want) -> Alcotest.(check int) name want (Util.Metrics.observations metrics name))
    [ ("store.write_s", total); ("store.read_s", total) ];
  (* Every artifact decodes to its value from a fresh store that may not build. *)
  let reader = Store.create ~metrics:(Util.Metrics.create ()) ~dir:(Some dir) () in
  for d = 0 to domains - 1 do
    for k = 0 to keys - 1 do
      let v = lookup reader ~build:(fun () -> Alcotest.fail "artifact missing or damaged") d k in
      Alcotest.(check bool) (Printf.sprintf "d%d-k%d decodes" d k) true (v = value d k)
    done
  done

let suite =
  [
    Alcotest.test_case "miss builds once, hits after" `Quick test_miss_then_hit;
    Alcotest.test_case "disabled store always builds" `Quick test_disabled_always_builds;
    Alcotest.test_case "truncated artifact is rebuilt" `Quick test_truncated;
    Alcotest.test_case "bit-flipped artifact is rebuilt" `Quick test_bit_flip;
    Alcotest.test_case "wrong-kind artifact is rebuilt" `Quick test_wrong_kind;
    Alcotest.test_case "version-mismatched artifact is rebuilt" `Quick test_version_mismatch;
    Alcotest.test_case "semantic decode mismatch is rebuilt" `Quick test_semantic_decode_mismatch;
    Alcotest.test_case "zero-length artifact is rebuilt" `Quick test_zero_length_artifact;
    Alcotest.test_case "deleted artifact is a plain miss" `Quick test_deleted_file;
    Alcotest.test_case "decoder exception is rebuilt" `Quick test_decoder_exception_rebuilds;
    Alcotest.test_case "fatal exceptions propagate" `Quick test_fatal_exceptions_propagate;
    Alcotest.test_case "four domains on distinct keys" `Quick test_concurrent_distinct_keys;
  ]
