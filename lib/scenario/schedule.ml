(* Claim loops over a task graph (the rules are in schedule.mli).

   All claim state lives under [lock], which [stopped] is polled under;
   tasks and [failed] run outside it.  [head] and [first] only move
   forward: every task before [head] is a non-leaf or a settled leaf,
   and every task before [first] is claimed or needed by no unclaimed
   leaf — neither can change back, since claims are never undone. *)

type task = { deps : int array; leaf : bool }

let run ?(stopped = fun () -> false) ~loops ~metrics ~failed tasks f =
  if loops < 1 then invalid_arg "Schedule.run: loops must be >= 1";
  let n = Array.length tasks in
  let dependents = Array.make n [] in
  for t = n - 1 downto 0 do
    Array.iter
      (fun d ->
        if d < 0 || d >= t then invalid_arg "Schedule.run: a task depends on itself or a later one";
        dependents.(d) <- t :: dependents.(d))
      tasks.(t).deps
  done;
  (* [wanted.(t)]: the leaves that want [t] — itself if a leaf, and
     every leaf that transitively depends on it. *)
  let wanted = Array.make n [] in
  for t = n - 1 downto 0 do
    let below = List.concat_map (fun d -> wanted.(d)) dependents.(t) in
    wanted.(t) <- List.sort_uniq Int.compare (if tasks.(t).leaf then t :: below else below)
  done;
  let lock = Mutex.create () and settles = Condition.create () in
  let claimed = Array.make n false and settled = Array.make n false in
  let missing = Array.map (fun task -> Array.length task.deps) tasks in
  let running = ref 0 and head = ref 0 and first = ref 0 in
  let ready t = (not claimed.(t)) && missing.(t) = 0 in
  let needed t = List.exists (fun l -> not claimed.(l)) wanted.(t) in
  let pick () =
    while !head < n && ((not tasks.(!head).leaf) || settled.(!head)) do
      incr head
    done;
    if !head < n && ready !head then Some !head
    else begin
      while !first < n && (claimed.(!first) || not (needed !first)) do
        incr first
      done;
      let rec scan t =
        if t = n then None else if ready t && needed t then Some t else scan (t + 1)
      in
      scan !first
    end
  in
  (* Under [lock]: the next claim, or [None] once the loop finishes;
     [since] is when the current wait began. *)
  let rec claim reg since =
    let stop = stopped () in
    match if stop then None else pick () with
    | None when (not stop) && !first < n && !running > 0 ->
        let since = match since with Some _ -> since | None -> Some (Util.Metrics.start_span ()) in
        Condition.wait settles lock;
        claim reg since
    | pick ->
        Option.iter (fun s -> ignore (Util.Metrics.stop_span reg "engine.wait_s" s)) since;
        Option.iter
          (fun t ->
            claimed.(t) <- true;
            incr running)
          pick;
        pick
  in
  (* Under [lock]: settle [t]; if it raised, claim and return every
     unclaimed task downstream of it, none of which can ever run. *)
  let settle t ok =
    settled.(t) <- true;
    decr running;
    Condition.broadcast settles;
    if ok then List.iter (fun d -> missing.(d) <- missing.(d) - 1) dependents.(t);
    let rec lose lost = function
      | [] -> List.sort Int.compare lost
      | d :: rest when claimed.(d) -> lose lost rest
      | d :: rest ->
          claimed.(d) <- true;
          settled.(d) <- true;
          lose (d :: lost) (dependents.(d) @ rest)
    in
    if ok then [] else lose [] dependents.(t)
  in
  let rec loop reg =
    match Mutex.protect lock (fun () -> claim reg None) with
    | None -> ()
    | Some t ->
        (match f reg t with
        | () -> ignore (Mutex.protect lock (fun () -> settle t true))
        | exception e -> failed t e (Mutex.protect lock (fun () -> settle t false)));
        loop reg
  in
  let regs = Array.init loops (fun _ -> Util.Metrics.create ()) in
  (* opera-lint: race — loops touch the claim state only under [lock] *)
  Util.Parallel.for_chunks ~domains:loops loops (fun ~chunk ~lo:_ ~hi:_ -> loop regs.(chunk));
  Array.iter (fun reg -> Util.Metrics.merge_into reg ~into:metrics) regs
