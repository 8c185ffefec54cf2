(* Scenario.Schedule on random task graphs.

   Each case is a graph of 1-40 tasks (dependencies drawn from earlier
   tasks, with a chain at least three deep), random leaf flags, random
   raising tasks, 1-4 loops and sometimes a stop after the k-th start.
   Every event a run makes is logged in one order, with the domain that
   made it:
   (a) a task starts at most once, after each dependency returned;
   (b) a leaf runs once or is reported failed once, never both; a
       report holds only transitive dependents of the raising task, and
       none of them starts;
   (c) a non-leaf starts only while an unclaimed leaf still needs it;
   (d) one loop starts tasks in the order the claim rule gives, never
       waits, and does not depend on how long a leaf takes;
   (e) once [stopped] holds, no task starts;
   (f) more loops than domains finish (the run returns at all).

   Claims happen outside the log, so with several loops a start is
   bounded below by the previous event of the same domain: a claim
   made before [stopped] held or before a leaf failed may start after
   either was logged, but never after that domain logged anything
   later.  With one loop the bound is exact. *)

module Schedule = Scenario.Schedule

exception Boom of int

type case = {
  deps : int array array;
  leaf : bool array;
  raises : bool array;
  loops : int;
  stop_after : int option;  (** [stopped] holds from the k-th start on *)
}

let gen_case st =
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let coin p = Random.State.float st 1.0 < p in
  let n = int 1 40 in
  (* tasks [chain + 1] and [chain + 2] extend a chain from [chain] *)
  let chain = int 0 (Int.max 0 (n - 3)) in
  let deps =
    Array.init n (fun t ->
        if t = 0 then [||]
        else
          let linked = (t > chain && t <= chain + 2) || coin 0.5 in
          let extra = List.init (int 0 2) (fun _ -> int 0 (t - 1)) in
          Array.of_list (List.sort_uniq Int.compare ((if linked then [ t - 1 ] else []) @ extra)))
  in
  let leaf = Array.init n (fun _ -> coin 0.5) in
  let raises = Array.init n (fun _ -> coin 0.15) in
  let loops = int 1 4 in
  let stop_after = if coin 0.2 then Some (int 1 n) else None in
  { deps; leaf; raises; loops; stop_after }

let print_case c =
  let ints a = String.concat " " (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf "loops %d, stop after %s\n%s" c.loops
    (match c.stop_after with Some k -> string_of_int k | None -> "-")
    (String.concat "\n"
       (List.init (Array.length c.deps) (fun t ->
            Printf.sprintf "%d%s%s <- [%s]" t
              (if c.leaf.(t) then " leaf" else "")
              (if c.raises.(t) then " raises" else "")
              (ints c.deps.(t)))))

let arb_case = QCheck.make ~print:print_case gen_case

(* [r.(u).(t)]: task [u] transitively depends on task [t]. *)
let reaches c =
  let n = Array.length c.deps in
  let r = Array.make_matrix n n false in
  for u = 0 to n - 1 do
    Array.iter
      (fun d ->
        r.(u).(d) <- true;
        Array.iteri (fun t below -> if below then r.(u).(t) <- true) r.(d))
      c.deps.(u)
  done;
  r

type event =
  | Start of int
  | Return of int
  | Raise of int
  | Report of int * bool * int list  (** raiser, its own exception, lost tasks *)
  | Stop

(* One run of [c]: its events in log order, each with the domain that
   logged it, and the merged metrics.  Leaves sleep [sleep] seconds. *)
let run_case ?(sleep = 0.0) c =
  let n = Array.length c.deps in
  let log = ref [] and lock = Mutex.create () in
  let record e = log := (e, (Domain.self () :> int)) :: !log in
  let stop = Atomic.make false and started = ref 0 in
  let f reg t =
    Util.Metrics.incr reg "test.starts";
    Mutex.protect lock (fun () ->
        record (Start t);
        incr started;
        if Some !started = c.stop_after then begin
          Atomic.set stop true;
          record Stop
        end);
    if c.leaf.(t) && sleep > 0.0 then Unix.sleepf sleep;
    if c.raises.(t) then begin
      Mutex.protect lock (fun () -> record (Raise t));
      raise (Boom t)
    end;
    Mutex.protect lock (fun () -> record (Return t))
  in
  let failed t e lost =
    Mutex.protect lock (fun () -> record (Report (t, e = Boom t, lost)))
  in
  let metrics = Util.Metrics.create () in
  let tasks = Array.init n (fun t -> { Schedule.deps = c.deps.(t); leaf = c.leaf.(t) }) in
  Schedule.run ~loops:c.loops ~metrics ~stopped:(fun () -> Atomic.get stop) ~failed tasks f;
  (Array.of_list (List.rev !log), metrics)

let starts log =
  List.filter_map (function Start t, _ -> Some t | _ -> None) (Array.to_list log)

let fail = QCheck.Test.fail_reportf

(* (a), (b), (c) and (e) on one trace. *)
let check_trace c log =
  let n = Array.length c.deps in
  let r = reaches c in
  let start = Array.make n None and returned = Array.make n None in
  let reported = Array.make n [] and reports = Array.make n 0 in
  let stop_at = ref None in
  Array.iteri
    (fun p (e, _) ->
      match e with
      | Start t ->
          if Option.is_some start.(t) then fail "(a) task %d started twice" t;
          start.(t) <- Some p
      | Return t -> returned.(t) <- Some p
      | Raise _ -> ()
      | Report (t, own, lost) ->
          if not own then fail "(b) task %d reported with another exception" t;
          reports.(t) <- reports.(t) + 1;
          List.iter (fun l -> reported.(l) <- p :: reported.(l)) lost;
          List.iter
            (fun l -> if not r.(l).(t) then fail "(b) task %d reported lost by %d" l t)
            lost
      | Stop -> stop_at := Some p)
    log;
  (* the position of the last event the domain of event [p] logged
     before it: the claim behind a start at [p] came after it *)
  let bound p =
    let d = snd log.(p) in
    let rec back q = if q < 0 || snd log.(q) = d then q else back (q - 1) in
    back (p - 1)
  in
  for t = 0 to n - 1 do
    (match start.(t) with
    | Some p ->
        Array.iter
          (fun d ->
            match returned.(d) with
            | Some q when q < p -> ()
            | _ -> fail "(a) task %d started before its dependency %d returned" t d)
          c.deps.(t)
    | None -> ());
    if List.length reported.(t) > 1 then fail "(b) task %d reported lost twice" t;
    if reported.(t) <> [] && Option.is_some start.(t) then fail "(b) lost task %d started" t;
    if reports.(t) <> (if c.raises.(t) && Option.is_some start.(t) then 1 else 0) then
      fail "(b) task %d has %d failure reports" t reports.(t);
    (* every task downstream of a raise is lost, stop or no stop *)
    for u = 0 to n - 1 do
      if r.(u).(t) && c.raises.(t) && Option.is_some start.(t) && reported.(u) = [] then
        fail "(b) task %d, downstream of raising task %d, is in no report" u t
    done;
    if c.leaf.(t) && Option.is_none !stop_at && Option.is_none start.(t) && reported.(t) = [] then
      fail "(b) leaf %d neither ran nor failed" t;
    match start.(t) with
    | Some p when not c.leaf.(t) ->
        let wanting l =
          c.leaf.(l) && r.(l).(t)
          && (match start.(l) with Some q -> q > p | None -> true)
          && List.for_all (fun q -> q > bound p) reported.(l)
        in
        if not (List.exists wanting (List.init n Fun.id)) then
          fail "(c) non-leaf %d started with no unclaimed leaf needing it" t
    | _ -> ()
  done;
  (match !stop_at with
  | Some s ->
      Array.iteri
        (fun p (e, _) ->
          match e with
          | Start t when p > s && bound p >= s -> fail "(e) task %d started after the stop" t
          | _ -> ())
        log
  | None -> ());
  true

(* The claim rule of schedule.mli, replayed for one loop without
   cursors: the order in which it starts [c]'s tasks. *)
let replay c =
  let n = Array.length c.deps in
  let r = reaches c in
  let all = List.init n Fun.id in
  let claimed = Array.make n false and settled = Array.make n false in
  let returned = Array.make n false in
  let deps_done t = Array.for_all (fun d -> returned.(d)) c.deps.(t) in
  let needed t =
    c.leaf.(t) || List.exists (fun l -> c.leaf.(l) && r.(l).(t) && not claimed.(l)) all
  in
  let rec go order =
    if Option.equal Int.equal (Some (List.length order)) c.stop_after then List.rev order
    else
      let head = List.find_opt (fun t -> c.leaf.(t) && not settled.(t)) all in
      let pick =
        match head with
        | Some h when (not claimed.(h)) && deps_done h -> Some h
        | _ -> List.find_opt (fun t -> (not claimed.(t)) && deps_done t && needed t) all
      in
      match pick with
      | None -> List.rev order
      | Some t ->
          claimed.(t) <- true;
          settled.(t) <- true;
          if c.raises.(t) then
            List.iter
              (fun u ->
                if r.(u).(t) && not claimed.(u) then begin
                  claimed.(u) <- true;
                  settled.(u) <- true
                end)
              all
          else returned.(t) <- true;
          go (t :: order)
  in
  go []

let ints l = String.concat " " (List.map string_of_int l)

let prop_claims c =
  let log, metrics = run_case c in
  let ran = List.length (starts log) and counted = Util.Metrics.counter metrics "test.starts" in
  if counted <> ran then fail "the loops' registries hold %d starts of %d" counted ran;
  check_trace c log

let prop_one_loop c =
  let c = { c with loops = 1 } in
  let log, metrics = run_case c in
  let order = starts log in
  let rule = replay c in
  if order <> rule then fail "(d) started [%s]; the claim rule gives [%s]" (ints order) (ints rule);
  if Util.Metrics.observations metrics "engine.wait_s" <> 0 then fail "(d) a lone loop waited";
  let slow, _ = run_case ~sleep:1e-4 c in
  if starts slow <> order then
    fail "(d) with sleeping leaves [%s], at once [%s]" (ints (starts slow)) (ints order);
  check_trace c log && check_trace c slow

(* (f) and the rest at 1, 2 and 4 domains: up to four loops, so at
   least as many loops as domains, often more. *)
let under_cap cap =
  let name, speed, f =
    Helpers.qcheck_case
      (Printf.sprintf "claims on random graphs, %d pool worker(s)" cap)
      arb_case prop_claims
  in
  (name, speed, fun x -> Helpers.with_pool_cap (Some cap) (fun () -> f x))

let test_rejects_bad_graphs () =
  let run loops tasks =
    Schedule.run ~loops ~metrics:(Util.Metrics.create ()) ~failed:(fun _ _ _ -> ()) tasks
      (fun _ _ -> ())
  in
  let leaf deps = { Schedule.deps; leaf = true } in
  Alcotest.check_raises "no loop" (Invalid_argument "Schedule.run: loops must be >= 1") (fun () ->
      run 0 [| leaf [||] |]);
  Alcotest.check_raises "a dependency on a later task"
    (Invalid_argument "Schedule.run: a task depends on itself or a later one") (fun () ->
      run 1 [| leaf [| 1 |]; leaf [||] |]);
  Alcotest.check_raises "a dependency on itself"
    (Invalid_argument "Schedule.run: a task depends on itself or a later one") (fun () ->
      run 1 [| leaf [| 0 |] |])

let suite =
  [
    Helpers.qcheck_case "one loop follows the claim rule" arb_case prop_one_loop;
    under_cap 0;
    under_cap 1;
    under_cap 3;
    Alcotest.test_case "bad graphs are rejected" `Quick test_rejects_bad_graphs;
  ]
