type stats = { mutable hits : int; mutable misses : int; mutable corrupt : int; mutable writes : int }

(* [lock] guards [stats] and [metrics] — the only shared mutable state.
   Reads, decodes, builds and writes run outside it, so domains looking
   up distinct artifacts proceed in parallel. *)
type t = {
  dir : string option;
  metrics : Util.Metrics.t;
  stats : stats;
  lock : Mutex.t;
}

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let create ?(metrics = Util.Metrics.global) ~dir () =
  (match dir with Some d -> mkdir_p d | None -> ());
  {
    dir;
    metrics;
    stats = { hits = 0; misses = 0; corrupt = 0; writes = 0 };
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A snapshot: callers comparing counts before and after a lookup must
   not see them move under another domain's feet. *)
let stats t = locked t (fun () -> { t.stats with hits = t.stats.hits })

(* Count one lookup outcome in [stats] and the matching [store.*]
   metric, under [lock]; [timed] adds one observation to a histogram
   under the same lock. *)
let tally ?timed t name bump =
  locked t (fun () ->
      bump t.stats;
      Util.Metrics.incr t.metrics name;
      match timed with
      | Some (histogram, seconds) -> Util.Metrics.observe t.metrics histogram seconds
      | None -> ())

let key_of_bytes bytes = Digest.to_hex (Digest.string bytes)

(* One artifact = one file, named by kind and content key.  The key hex
   comes from a Digest of canonical bytes, so it is filename-safe. *)
let file_name ~kind ~key = Printf.sprintf "%s-%s.opra" kind key

let path t ~kind ~key =
  match t.dir with
  | None -> None
  | Some dir -> Some (Filename.concat dir (file_name ~kind ~key))

let touch file =
  (* Refresh the artifact's mtime so byte-capped eviction sees reused
     entries as hot (the LRU clock is the filesystem).  Best effort: a
     read-only cache dir must not fail the lookup that reused it. *)
  try Unix.utimes file 0.0 0.0 with Unix.Unix_error _ -> ()

let remove file = try Sys.remove file with Sys_error _ -> ()

(* The never-trust rule, once for every kind and both frame formats:
   [read] loads the file, [finish] turns the load into a value (both
   may raise [Corrupt]).  A hit is counted and timed ([store.read_s]:
   read and decode) and its file touched; a missing file is a miss; a
   damaged one is counted corrupt, logged and removed, then a miss. *)
let find_file t file ~read ~finish ~on_hit =
  let miss () =
    tally t "store.misses" (fun s -> s.misses <- s.misses + 1);
    None
  in
  let damaged why =
    tally t "store.corrupt" (fun s -> s.corrupt <- s.corrupt + 1);
    Util.Log.warnf "store: dropping corrupt artifact %s (%s)" file why;
    remove file;
    miss ()
  in
  let t0 = Util.Timer.start () in
  match read () with
  | exception Util.Codec.Corrupt why -> damaged why
  | None -> miss ()
  | Some loaded -> (
      match finish loaded with
      | value ->
          tally t "store.hits"
            ~timed:("store.read_s", Util.Timer.elapsed_s t0)
            (fun s -> s.hits <- s.hits + 1);
          on_hit loaded;
          touch file;
          Some value
      | exception Util.Codec.Corrupt why -> damaged why
      | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
      | exception e ->
          (* A checksum-valid frame whose payload still blows up the
             decoder (stale encoder, schema drift the version tag
             missed) is cache damage, not a bug worth crashing the
             batch over — the same drop as Corrupt. *)
          damaged (Printexc.to_string e))

(* One write, counted and timed ([store.write_s]: encode and write). *)
let put_file t write =
  let t0 = Util.Timer.start () in
  write ();
  tally t "store.writes"
    ~timed:("store.write_s", Util.Timer.elapsed_s t0)
    (fun s -> s.writes <- s.writes + 1)

let find t ~kind ~version ~key ~decode =
  match path t ~kind ~key with
  | None -> None
  | Some file ->
      find_file t file
        ~read:(fun () -> Util.Codec.read_frame ~kind ~version file)
        ~finish:(fun d ->
          let value = decode d in
          Util.Codec.expect_end d;
          value)
        ~on_hit:ignore

let put t ~kind ~version ~key ~encode value =
  match path t ~kind ~key with
  | None -> ()
  | Some file ->
      put_file t (fun () -> Util.Codec.write_frame_file file ~kind ~version (encode value))

let find_or_build t ~kind ~version ~key ~encode ~decode ~build =
  match find t ~kind ~version ~key ~decode with
  | Some value -> value
  | None ->
      let value = build () in
      put t ~kind ~version ~key ~encode value;
      value

let find_or_build_sections t ~kind ~version ~key ~encode ~decode ~build =
  match path t ~kind ~key with
  | None -> build ()
  | Some file -> (
      let found =
        find_file t file
          ~read:(fun () -> Util.Codec.read_frame_v2 ~kind ~version file)
          ~finish:(fun (d, sections) ->
            let value = decode d sections in
            Util.Codec.expect_end d;
            value)
          ~on_hit:(fun (_, sections) ->
            (* Warm replays should be mapped views, not decoded copies;
               the split tells a perf regression from a cache win. *)
            locked t (fun () ->
                Util.Metrics.incr t.metrics
                  (if Util.Codec.sections_mapped sections then "store.map_hits"
                   else "store.full_decodes")))
      in
      match found with
      | Some value -> value
      | None ->
          let value = build () in
          put_file t (fun () ->
              let meta, sections = encode value in
              Util.Codec.write_file file (Util.Codec.frame_v2 ~kind ~version ~meta ~sections));
          value)

(* ---- garbage collection, journal sweep, eviction ---------------------

   Artifacts are content-addressed, so nothing ever dangles: removal is
   policy.  [gc] drops the entries of a kind whose key the caller
   disowned (journal records of jobs that left the batch), [sweep] caps
   a kind by count (the service's journal), [evict] caps the whole
   directory by bytes.  All three walk one [scan] in one order and
   remove through one [prune].  Recency is the filesystem mtime —
   refreshed by [touch] on every hit — so hot artifacts survive and
   cold ones go first. *)

(* Every regular [*.opra] file under [dir] whose name starts with
   [prefix], as (name, size), oldest first: mtime, ties broken by name
   so the order — and with it every surviving set — is deterministic.
   A missing or unreadable directory is empty. *)
let scan ~prefix dir =
  let entry f =
    if String.starts_with ~prefix f && Filename.check_suffix f ".opra" then
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } -> Some (st_mtime, f, st_size)
      | _ | (exception Unix.Unix_error _) -> None
    else None
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      List.filter_map entry (Array.to_list files)
      |> List.sort (fun (ta, fa, _) (tb, fb, _) ->
             match Float.compare ta tb with 0 -> String.compare fa fb | c -> c)
      |> List.map (fun (_, f, size) -> (f, size))

(* Walk [entries] oldest first, removing each file [spare] does not
   shield while the survivors' total [weight] exceeds [cap]; returns the
   number removed. *)
let prune dir entries ~weight ~cap ~spare =
  let live = ref (List.fold_left (fun acc e -> acc + weight e) 0 entries) in
  List.fold_left
    (fun removed ((f, _) as e) ->
      if !live > cap && not (spare f) then begin
        remove (Filename.concat dir f);
        live := !live - weight e;
        removed + 1
      end
      else removed)
    0 entries

let gc t ~kind ~keep =
  match t.dir with
  | None -> 0
  | Some dir ->
      let prefix = kind ^ "-" in
      let skip = String.length prefix in
      let key f = String.sub f skip (String.length f - skip - String.length ".opra") in
      (* A cap of 0 entries removes every file [keep] does not spare. *)
      prune dir (scan ~prefix dir) ~weight:(fun _ -> 1) ~cap:0 ~spare:(fun f -> keep (key f))

let sweep t ~kind ~max_entries =
  match t.dir with
  | None -> 0
  | Some dir ->
      prune dir (scan ~prefix:(kind ^ "-") dir) ~weight:(fun _ -> 1) ~cap:max_entries
        ~spare:(fun _ -> false)

let evict_dir ~dir ~max_bytes ?(protect = fun (_ : string) -> false) () =
  prune dir (scan ~prefix:"" dir) ~weight:snd ~cap:max_bytes ~spare:protect

let evict t ~max_bytes ?(protect = fun (_ : string) -> false) () =
  match t.dir with
  | None -> 0
  | Some dir ->
      let removed = evict_dir ~dir ~max_bytes ~protect () in
      if removed > 0 then
        locked t (fun () -> Util.Metrics.incr ~by:removed t.metrics "store.evicted");
      removed
