(* Named counters and timing histograms with monotonic-clock spans.

   One registry is a string-keyed table of metrics.  Counters are plain
   integers; histograms keep count/sum/min/max plus a small set of
   exponential buckets (decades from 1 us to 100 s — sized for wall-time
   observations in seconds, harmless for other units).  The JSON
   serialization is deterministic (keys sorted) so diffs and tests are
   stable.

   Registries are NOT thread-safe: all instrumented code updates metrics
   from the calling domain only (the parallel kernels in this repo fork
   and join inside the instrumented spans, never across them). *)

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  buckets : int array; (* buckets.(i) counts observations <= bounds.(i); last = overflow *)
}

let bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

type metric = Counter of int ref | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let global = create ()

let reset t = Hashtbl.reset t.table

let counter_ref t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter r) -> r
  | Some (Histogram _) ->
      invalid_arg (Printf.sprintf "Metrics: %S is a histogram, not a counter" name)
  | None ->
      let r = ref 0 in
      Hashtbl.add t.table name (Counter r);
      r

let histogram_ref t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg (Printf.sprintf "Metrics: %S is a counter, not a histogram" name)
  | None ->
      let h =
        {
          count = 0;
          sum = 0.0;
          minv = infinity;
          maxv = neg_infinity;
          buckets = Array.make (Array.length bounds + 1) 0;
        }
      in
      Hashtbl.add t.table name (Histogram h);
      h

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let counter t name = match Hashtbl.find_opt t.table name with Some (Counter r) -> !r | _ -> 0

let observe t name v =
  let h = histogram_ref t name in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v;
  let nb = Array.length bounds in
  let i = ref 0 in
  while !i < nb && v > bounds.(!i) do
    Stdlib.incr i
  done;
  h.buckets.(!i) <- h.buckets.(!i) + 1

let observations t name =
  match Hashtbl.find_opt t.table name with Some (Histogram h) -> h.count | _ -> 0

let total t name =
  match Hashtbl.find_opt t.table name with Some (Histogram h) -> h.sum | _ -> 0.0

(* Fold a registry into another, each metric under the name [rename]
   gives it (or left out): counters add, histograms merge
   component-wise.  Used by the batch engine to roll per-loop registries
   (owned by the worker domain while the loop runs) into the engine
   registry after the join — so the merge itself always happens on one
   domain. *)
let merge_into ?(rename = Option.some) src ~into =
  (* Merge in sorted key order: per-key merging is commutative, but a
     deterministic order keeps float summation (histogram sums) and the
     destination table's insertion order reproducible across runs. *)
  let entries =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun name m acc -> (name, m) :: acc) src.table [])
  in
  List.iter
    (fun (name, m) ->
      match (rename name, m) with
      | None, _ -> ()
      | Some name, Counter r -> incr ~by:!r into name
      | Some name, Histogram h ->
          let dst = histogram_ref into name in
          dst.count <- dst.count + h.count;
          dst.sum <- dst.sum +. h.sum;
          if h.minv < dst.minv then dst.minv <- h.minv;
          if h.maxv > dst.maxv then dst.maxv <- h.maxv;
          Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) h.buckets)
    entries

(* ---- monotonic-clock spans ---------------------------------------- *)

type span = int64 (* Monotonic_clock.now () in nanoseconds *)

let start_span () : span = Monotonic_clock.now ()

let elapsed_of (s : span) = Int64.to_float (Int64.sub (Monotonic_clock.now ()) s) *. 1e-9

let stop_span t name s =
  let dt = elapsed_of s in
  observe t name dt;
  dt

let span t name f =
  let s = start_span () in
  Fun.protect ~finally:(fun () -> ignore (stop_span t name s)) f

(* ---- JSON serialization -------------------------------------------- *)

let json_float v =
  (* JSON has no infinities; empty histograms carry min/max = +-inf. *)
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let metric_to_json = function
  | Counter r -> Printf.sprintf "{\"type\": \"counter\", \"value\": %d}" !r
  | Histogram h ->
      let mean = if h.count > 0 then h.sum /. float_of_int h.count else 0.0 in
      let bucket_fields =
        Array.to_list
          (Array.mapi
             (fun i c ->
               let label =
                 if i < Array.length bounds then Printf.sprintf "\"le_%g\"" bounds.(i)
                 else "\"le_inf\""
               in
               Printf.sprintf "%s: %d" label c)
             h.buckets)
      in
      Printf.sprintf
        "{\"type\": \"histogram\", \"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, \
         \"mean\": %s, \"buckets\": {%s}}"
        h.count (json_float h.sum) (json_float h.minv) (json_float h.maxv) (json_float mean)
        (String.concat ", " bucket_fields)

let to_json t =
  let entries =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.table [])
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "  %S: %s" name (metric_to_json m)))
    entries;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json t))
