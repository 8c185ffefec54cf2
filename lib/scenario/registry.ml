(* Crash-safe on-disk results registry.

   One completed job = one journal entry in the cache dir: a
   [Store] artifact of kind [result], keyed by the job's result
   signature plus the engine settings that move its digits, holding
   the job's JSONL record as an encoded Util.Json AST.  Records are
   journaled the moment a job completes (atomic temp-file + rename per
   entry), so a batch killed at job N-1 keeps N-1 entries intact —
   there is no index file to corrupt, the directory IS the journal.

   Replay is bitwise: Util.Json.render is a pure function of the AST and
   the codec carries floats as IEEE-754 bit patterns, so a replayed
   record renders byte-identically to the run that journaled it.

   The registry keeps its key and its codec; every read, write and
   removal is its private store's, which has its own metrics registry
   (journal traffic stays out of the engine's [store.*] counters) and
   is safe to call from the engine's worker domains. *)

type stats = { replayed : int; journaled : int; corrupt : int }

type t = {
  store : Store.t;
  metrics : Util.Metrics.t;  (* the store's, read only by [report] *)
  settings : string;  (* "" at the default engine settings *)
}

let kind = "result"

let version = 1

(* The preconditioner and warm starts move the digits of iterative
   records (matrix-free, pcg, st) without touching the job, so both key
   the journal next to [Job.result_signature], as given: a miss costs a
   re-run, never a wrong record.  At the defaults the key is the bare
   signature, so journals written before these settings were keyed keep
   replaying. *)
let settings_of ~precond ~warm_start =
  (if precond = Linalg.Precond.Cholesky then ""
   else "precond=" ^ Linalg.Precond.to_string precond ^ ";")
  ^ if warm_start then "" else "warm_start=off;"

let create ?(precond = Linalg.Precond.Cholesky) ?(warm_start = true) ~dir () =
  let metrics = Util.Metrics.create () in
  { store = Store.create ~metrics ~dir (); metrics; settings = settings_of ~precond ~warm_start }

(* The store counts what the journal does: a hit is a replay, a write a
   journaled record, a dropped entry a corrupt one. *)
let stats t =
  let s = Store.stats t.store in
  { replayed = s.Store.hits; journaled = s.Store.writes; corrupt = s.Store.corrupt }

(* The store's [store.read_s] and [store.write_s] time exactly the
   replays and the journal writes. *)
let report t ~into =
  let s = stats t in
  Util.Metrics.incr into ~by:s.replayed "registry.replays";
  Util.Metrics.incr into ~by:s.journaled "registry.writes";
  Util.Metrics.incr into ~by:s.corrupt "registry.corrupt";
  Util.Metrics.merge_into t.metrics ~into ~rename:(function
    | "store.read_s" -> Some "registry.read_s"
    | "store.write_s" -> Some "registry.write_s"
    | _ -> None)

let key t job =
  let signature = Job.result_signature job in
  if t.settings = "" then signature
  else Digest.to_hex (Digest.string (signature ^ "\n" ^ t.settings))

let file_name t job = Store.file_name ~kind ~key:(key t job)

let path t job = Store.path t.store ~kind ~key:(key t job)

(* ---- Json AST <-> codec payload ------------------------------------- *)

let tag_null = 0
and tag_bool = 1
and tag_num = 2
and tag_str = 3
and tag_list = 4
and tag_obj = 5

let rec write_json e (j : Util.Json.t) =
  match j with
  | Util.Json.Null -> Util.Codec.write_int e tag_null
  | Util.Json.Bool b ->
      Util.Codec.write_int e tag_bool;
      Util.Codec.write_bool e b
  | Util.Json.Num v ->
      Util.Codec.write_int e tag_num;
      Util.Codec.write_float e v
  | Util.Json.Str s ->
      Util.Codec.write_int e tag_str;
      Util.Codec.write_string e s
  | Util.Json.List items ->
      Util.Codec.write_int e tag_list;
      Util.Codec.write_int e (List.length items);
      List.iter (write_json e) items
  | Util.Json.Obj fields ->
      Util.Codec.write_int e tag_obj;
      Util.Codec.write_int e (List.length fields);
      List.iter
        (fun (k, v) ->
          Util.Codec.write_string e k;
          write_json e v)
        fields

let rec read_json d : Util.Json.t =
  let tag = Util.Codec.read_int d in
  if tag = tag_null then Util.Json.Null
  else if tag = tag_bool then Util.Json.Bool (Util.Codec.read_bool d)
  else if tag = tag_num then Util.Json.Num (Util.Codec.read_float d)
  else if tag = tag_str then Util.Json.Str (Util.Codec.read_string d)
  else if tag = tag_list then begin
    let n = Util.Codec.read_int d in
    if n < 0 || n > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt (Printf.sprintf "json list length %d out of range" n));
    Util.Json.List (List.init n (fun _ -> read_json d))
  end
  else if tag = tag_obj then begin
    let n = Util.Codec.read_int d in
    if n < 0 || n > Util.Codec.remaining d then
      raise (Util.Codec.Corrupt (Printf.sprintf "json object length %d out of range" n));
    Util.Json.Obj
      (List.init n (fun _ ->
           let k = Util.Codec.read_string d in
           (k, read_json d)))
  end
  else raise (Util.Codec.Corrupt (Printf.sprintf "unknown json tag %d" tag))

(* ---- journal operations ---------------------------------------------- *)

let record t job json =
  Store.put t.store ~kind ~version ~key:(key t job) ~encode:(fun j e -> write_json e j) json

let lookup t job = Store.find t.store ~kind ~version ~key:(key t job) ~decode:read_json

let gc t ~keep =
  let keys = Hashtbl.create (Array.length keep) in
  Array.iter (fun job -> Hashtbl.replace keys (key t job) ()) keep;
  Store.gc t.store ~kind ~keep:(Hashtbl.mem keys)

let sweep t ~max_entries = Store.sweep t.store ~kind ~max_entries
