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

let make ~metrics ~dir =
  {
    dir;
    metrics;
    stats = { hits = 0; misses = 0; corrupt = 0; writes = 0 };
    lock = Mutex.create ();
  }

let create ?(metrics = Util.Metrics.global) ~dir () =
  (match dir with Some d -> mkdir_p d | None -> ());
  make ~metrics ~dir

let disabled = make ~metrics:Util.Metrics.global ~dir:None

let enabled t = t.dir <> None

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

let remove_corrupt path =
  try Sys.remove path with Sys_error _ -> ()

let touch file =
  (* Refresh the artifact's mtime so byte-capped eviction sees reused
     entries as hot (the LRU clock is the filesystem).  Best effort: a
     read-only cache dir must not fail the lookup that reused it. *)
  try Unix.utimes file 0.0 0.0 with Unix.Unix_error _ -> ()

(* The shared skeleton of both lookup shapes: count the miss and write
   the artifact on rebuild, never trust a damaged artifact (log, drop,
   rebuild), and classify every decode outcome.  [write] encodes a value
   into [file]; [read] returns the raw load result; [finish] turns it
   into the value (both may raise [Corrupt]).  [store.write_s] times
   each miss's encode and write, [store.read_s] each hit's read and
   decode. *)
let lookup t ~file ~write ~read ~finish ~on_hit ~build =
  let rebuild () =
    tally t "store.misses" (fun s -> s.misses <- s.misses + 1);
    let value = build () in
    let t0 = Util.Timer.start () in
    write value;
    tally t "store.writes"
      ~timed:("store.write_s", Util.Timer.elapsed_s t0)
      (fun s -> s.writes <- s.writes + 1);
    value
  in
  let corrupt why =
    tally t "store.corrupt" (fun s -> s.corrupt <- s.corrupt + 1);
    Util.Log.warnf "store: rebuilding corrupt artifact %s (%s)" file why;
    remove_corrupt file;
    rebuild ()
  in
  let t0 = Util.Timer.start () in
  match read () with
  | exception Util.Codec.Corrupt why -> corrupt why
  | None -> rebuild ()
  | Some loaded -> (
      match finish loaded with
      | value ->
          tally t "store.hits"
            ~timed:("store.read_s", Util.Timer.elapsed_s t0)
            (fun s -> s.hits <- s.hits + 1);
          on_hit loaded;
          touch file;
          value
      | exception Util.Codec.Corrupt why -> corrupt why
      | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
      | exception e ->
          (* A checksum-valid frame whose payload still blows up the
             decoder (stale encoder, schema drift the version tag
             missed) is cache damage, not a bug worth crashing the
             batch over — same drop-and-rebuild path as Corrupt. *)
          corrupt (Printexc.to_string e))

let find_or_build t ~kind ~version ~key ~encode ~decode ~build =
  match path t ~kind ~key with
  | None -> build ()
  | Some file ->
      lookup t ~file
        ~write:(fun value -> Util.Codec.write_frame_file file ~kind ~version (encode value))
        ~read:(fun () -> Util.Codec.read_frame ~kind ~version file)
        ~finish:(fun d ->
          let value = decode d in
          Util.Codec.expect_end d;
          value)
        ~on_hit:(fun _ -> ())
        ~build

let find_or_build_sections t ~kind ~version ~key ~encode ~decode ~build =
  match path t ~kind ~key with
  | None -> build ()
  | Some file ->
      lookup t ~file
        ~write:(fun value ->
          let meta, sections = encode value in
          Util.Codec.write_file file (Util.Codec.frame_v2 ~kind ~version ~meta ~sections))
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
        ~build

(* ---- garbage collection ----------------------------------------------

   Artifacts are content-addressed, so nothing ever dangles — GC is a
   policy decision (drop entries of [kind] whose key the caller no
   longer wants), used by the results registry to evict journal records
   of jobs that left the batch. *)

let gc_dir ~dir ~kind ~keep =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
      let prefix = kind ^ "-" and suffix = ".opra" in
      Array.fold_left
        (fun removed f ->
          if String.starts_with ~prefix f && Filename.check_suffix f suffix then begin
            let key =
              String.sub f (String.length prefix)
                (String.length f - String.length prefix - String.length suffix)
            in
            if keep key then removed
            else begin
              (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
              removed + 1
            end
          end
          else removed)
        0 files

let gc t ~kind ~keep =
  match t.dir with None -> 0 | Some dir -> gc_dir ~dir ~kind ~keep

(* ---- byte-capped LRU eviction ----------------------------------------

   GC above drops entries the caller explicitly disowned; eviction is a
   *budget* policy for a long-running service: keep total artifact bytes
   under a cap by removing the least-recently-used files first.
   Recency is the filesystem mtime — refreshed by [touch] on every
   store hit and registry replay — so hot artifacts survive and cold
   ones age out.  [protect] shields artifacts that are open in an
   in-flight request from the axe. *)

let scan_opra dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> [||]
  | files ->
      let entries =
        Array.to_list files
        |> List.filter_map (fun f ->
               if Filename.check_suffix f ".opra" then
                 match Unix.stat (Filename.concat dir f) with
                 | exception Unix.Unix_error (_, _, _) -> None
                 | st when st.Unix.st_kind = Unix.S_REG ->
                     Some (f, st.Unix.st_mtime, st.Unix.st_size)
                 | _ -> None
               else None)
      in
      Array.of_list entries

let evict_dir ~dir ~max_bytes ?(protect = fun (_ : string) -> false) () =
  let entries = scan_opra dir in
  let total = Array.fold_left (fun acc (_, _, size) -> acc + size) 0 entries in
  if total <= max_bytes then 0
  else begin
    (* Oldest first; mtime ties break on the file name so the eviction
       order — and therefore the surviving set — is deterministic. *)
    let by_age = Array.copy entries in
    Array.sort
      (fun (fa, ta, _) (fb, tb, _) ->
        let c = Float.compare ta tb in
        if c <> 0 then c else String.compare fa fb)
      by_age;
    let live = ref total and removed = ref 0 in
    Array.iter
      (fun (f, _, size) ->
        if !live > max_bytes && not (protect f) then begin
          (try Sys.remove (Filename.concat dir f) with Sys_error _ -> ());
          live := !live - size;
          Stdlib.incr removed
        end)
      by_age;
    !removed
  end

let evict t ~max_bytes ?(protect = fun (_ : string) -> false) () =
  match t.dir with
  | None -> 0
  | Some dir ->
      let removed = evict_dir ~dir ~max_bytes ~protect () in
      if removed > 0 then
        locked t (fun () -> Util.Metrics.incr ~by:removed t.metrics "store.evicted");
      removed
