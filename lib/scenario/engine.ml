exception Invalid_batch of string

type config = {
  cache_dir : string option;
  jobs_parallel : int;
  domains : int;
  metrics : Util.Metrics.t;
  warm_start : bool;
  precond : Linalg.Precond.kind;
  resume : bool;
  shard : (int * int) option;
}

let default_config =
  {
    cache_dir = None;
    jobs_parallel = 1;
    domains = 0;
    metrics = Util.Metrics.global;
    warm_start = true;
    precond = Linalg.Precond.Cholesky;
    resume = false;
    shard = None;
  }

type result = { job : Job.t; record : Util.Json.t; response : Opera.Response.t option }

type summary = {
  jobs : int;
  groups : int;
  factorizations : int;
  cache_hits : int;
  cache_misses : int;
  cache_corrupt : int;
  replayed : int;
  journaled : int;
  registry_corrupt : int;
  elapsed_seconds : float;
}

(* Shard membership is a pure function of the job's position in the
   batch file, so k processes parsing the same file agree on the
   partition without coordinating — and every index lands in exactly
   one shard. *)
let shard_of i ~shards =
  if shards < 1 then invalid_arg "Engine.shard_of: shard count must be >= 1";
  let h = Util.Codec.fnv1a (Printf.sprintf "job-index:%d" i) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int shards))

let vdd_default = 1.2

(* ---- planning ------------------------------------------------------- *)

let plan jobs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i job ->
      let s = Job.signature job in
      match Hashtbl.find_opt tbl s with
      | Some l -> l := i :: !l
      | None ->
          let l = ref [ i ] in
          Hashtbl.add tbl s l;
          order := l :: !order)
    jobs;
  List.rev !order |> List.map (fun l -> Array.of_list (List.rev !l)) |> Array.of_list

(* ---- artifact keys --------------------------------------------------- *)

let tagged_key job tag =
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ tag)

let h_key job tag h =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e tag;
  Util.Codec.write_float e h;
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ Util.Codec.contents e)

(* One artifact per (h, testing point): the st route factors a distinct
   stepping matrix per point, and the point set is pinned by the
   operator bytes (candidates + seed live there), so index [i] always
   names the same matrix on a warm run. *)
let st_point_key job h i =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e "st-mt";
  Util.Codec.write_float e h;
  Util.Codec.write_int e i;
  Store.key_of_bytes (Job.operator_bytes job ^ "\x00" ^ Util.Codec.contents e)

let chol_version = 1

(* One factorization task: a store hit, or a factorization and its
   write.  A pivot that is not positive says the operator itself is
   indefinite (a [sigma_scale] large enough to drive conductances
   negative), which is a bad job, not a crash: [not_pd] names it. *)
let cached_factor store ~count ~not_pd ~key ~dim build () =
  Store.find_or_build store ~kind:"chol" ~version:chol_version ~key
    ~encode:Linalg.Sparse_cholesky.encode
    ~decode:(fun d ->
      let f = Linalg.Sparse_cholesky.decode d in
      if Linalg.Sparse_cholesky.dim f <> dim then
        raise
          (Util.Codec.Corrupt
             (Printf.sprintf "cholesky artifact has dimension %d, operator needs %d"
                (Linalg.Sparse_cholesky.dim f) dim));
      f)
    ~build:(fun () ->
      count ();
      try build ()
      with Linalg.Sparse_cholesky.Not_positive_definite _ -> raise (Invalid_batch not_pd))

let tp_provider store basis =
  let e = Util.Codec.encoder () in
  Util.Codec.write_string e "triple";
  Array.iter
    (fun f -> Util.Codec.write_string e f.Polychaos.Family.name)
    (Polychaos.Basis.families basis);
  Util.Codec.write_int e (Polychaos.Basis.dim basis);
  Util.Codec.write_int e (Polychaos.Basis.order basis);
  Store.find_or_build store ~kind:"triple" ~version:1
    ~key:(Store.key_of_bytes (Util.Codec.contents e))
    ~encode:Polychaos.Triple_product.encode
    ~decode:(Polychaos.Triple_product.decode basis)
    ~build:(fun () -> Polychaos.Triple_product.create basis)

(* ---- group contexts --------------------------------------------------

   A group's set-up runs in two parts.  Its prelude — grid generation
   or netlist load, chaos expansion, triple-product and ordering
   lookups — runs on the main domain before any job, so every
   [Invalid_batch] it raises precedes the first record.  Each
   factorization the group needs is then one task of [run]'s task
   graph, and a chunk gets a context assembled from exactly the
   factors its [route] applies, once they exist.  Every task assembles
   the matrix it factors itself: the tasks share only read-only values
   (model, ordering, assembled [Ct] or [G]), never a [Lazy.t], which
   OCaml 5 refuses to force from two domains at once. *)

type galerkin_ctx = {
  model : Opera.Stochastic_model.t;
  gspec : Powergrid.Grid_spec.t option;
  gvdd : float;
  fdc : Linalg.Sparse_cholesky.t option;  (** Direct route: factor of Gt *)
  fmt : Linalg.Sparse_cholesky.t option;  (** Direct stepping: Gt + Ct/h at the claim's h *)
  ct : Linalg.Sparse.t option;  (** assembled Ct for stepping right-hand sides *)
}

type special_ctx = {
  sc : Opera.Special_case.t;
  sspec : Powergrid.Grid_spec.t;
  sfdc : Linalg.Sparse_cholesky.t;  (** factor of G *)
  sfbe : Linalg.Sparse_cholesky.t;  (** factor of G + C/h at the claim's h *)
}

type st_ctx = {
  stmodel : Opera.Stochastic_model.t;
  stspec : Powergrid.Grid_spec.t option;
  stvdd : float;
  stpoints : Opera.St_solver.points;
  stf0 : Linalg.Sparse_cholesky.t option;
      (** factor of the mean G(0); [None] under a non-exact [--precond]
          (the solver builds its own mean-block backend) *)
  stfstep : Linalg.Sparse_cholesky.t array option;
      (** at the claim's h: one factor of [G(xi_i) + C(xi_i)/h] per
          testing point; [None] for DC and under a non-exact [--precond] *)
}

type ctx = Galerkin_ctx of galerkin_ctx | Special_ctx of special_ctx | St_ctx of st_ctx

let scaled_varmodel s =
  let vm = Opera.Varmodel.paper_default in
  {
    vm with
    Opera.Varmodel.sigma_w = vm.Opera.Varmodel.sigma_w *. s;
    sigma_t = vm.Opera.Varmodel.sigma_t *. s;
    sigma_l = vm.Opera.Varmodel.sigma_l *. s;
  }

let stepping_hs members =
  Array.to_list members
  |> List.filter_map (fun (j : Job.t) ->
         match j.analysis with Job.Dc -> None | _ -> Some j.h)
  |> List.sort_uniq compare

(* The position of [h] among a group's step sizes.  Floats compare as
   their bit patterns, the identity the artifact and cohort keys use. *)
let h_index hs h =
  let bits = Int64.bits_of_float h in
  let rec find k = function
    | [] -> invalid_arg "Engine.h_index: step size not among its group's"
    | x :: rest -> if Int64.equal (Int64.bits_of_float x) bits then k else find (k + 1) rest
  in
  find 0 hs

(* A group after its prelude: the node count its probes are checked
   against, one closure per factor, and each job's route — the indices
   of the factors it applies and the context assembled from exactly
   those factors, passed in that order.  Jobs of one cohort share a
   route. *)
type setup = {
  nodes : int;
  factors : (unit -> Linalg.Sparse_cholesky.t) array;
  route : Job.t -> int array * (Linalg.Sparse_cholesky.t array -> ctx);
}

(* The usage error for an indefinite operator: a [sigma_scale] large
   enough to drive conductances negative (the special case has no
   chaos-expanded conductance, so there the grid itself is at fault). *)
let not_pd (job : Job.t) =
  match job.analysis with
  | Job.Special _ -> Printf.sprintf "job %s: operator is not positive definite" job.name
  | Job.Dc | Job.Transient | Job.Yield _ ->
      Printf.sprintf "job %s: sigma_scale %g makes the operator not positive definite" job.name
        job.sigma_scale

(* [load] parses a netlist path once per run (see [run]); the parsed
   circuit is shared read-only by every group that names the path. *)
let prelude_galerkin store count ~load ~precond (rep : Job.t) members =
  let circuit, gvdd, gspec =
    match rep.Job.source with
    | Job.Generated { nodes } ->
        let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
        (Powergrid.Grid_gen.generate spec, spec.Powergrid.Grid_spec.vdd, Some spec)
    | Job.Netlist path -> (
        match load path with
        | Ok parsed -> (parsed.Powergrid.Netlist.circuit, vdd_default, None)
        | Error msg -> raise (Invalid_batch (Printf.sprintf "job %s: netlist %s" rep.Job.name msg)))
  in
  let vm = scaled_varmodel rep.sigma_scale in
  let model =
    Opera.Stochastic_model.build ~order:rep.order ~tp:(tp_provider store) vm ~vdd:gvdd circuit
  in
  let n = model.Opera.Stochastic_model.n in
  let not_pd = not_pd rep in
  let hs = stepping_hs members in
  let setup factors route = { nodes = n; factors; route } in
  let no_factors ctx = setup [||] (fun _ -> ([||], fun _ -> ctx)) in
  match rep.solver with
  | Opera.Galerkin.Mean_pcg _ | Opera.Galerkin.Matrix_free_pcg _ ->
      (* Iterative jobs run through the full Galerkin machinery; they
         share the expanded model (and the cached triple-product tensor)
         but factor their small nominal blocks per job. *)
      no_factors (Galerkin_ctx { model; gspec; gvdd; fdc = None; fmt = None; ct = None })
  | Opera.Galerkin.Direct ->
      let size = Polychaos.Basis.size model.Opera.Stochastic_model.basis in
      let dim = size * n in
      let perm =
        Store.find_or_build store ~kind:"perm" ~version:1 ~key:(tagged_key rep "block-ordering")
          ~encode:(fun p e -> Util.Codec.write_int_array e p)
          ~decode:(fun d ->
            let p = Util.Codec.read_int_array d in
            if Array.length p <> dim || not (Linalg.Perm.is_valid p) then
              raise (Util.Codec.Corrupt "perm artifact does not match the operator");
            p)
          ~build:(fun () -> Opera.Galerkin.block_ordering model)
      in
      let ct = if hs = [] then None else Some (Opera.Galerkin.assemble_c model) in
      let gt_task =
        cached_factor store ~count ~not_pd ~key:(tagged_key rep "gt") ~dim (fun () ->
            Linalg.Sparse_cholesky.factor ~perm (Opera.Galerkin.assemble_g model))
      in
      let mt_task h =
        cached_factor store ~count ~not_pd ~key:(h_key rep "mt" h) ~dim (fun () ->
            Linalg.Sparse_cholesky.factor ~perm
              (Linalg.Sparse.axpy ~alpha:(1.0 /. h) (Option.get ct)
                 (Opera.Galerkin.assemble_g model)))
      in
      let ctx fs fmt = Galerkin_ctx { model; gspec; gvdd; fdc = Some fs.(0); fmt; ct } in
      (* DC solves against Gt alone; stepping at h also applies that h's
         Gt + Ct/h. *)
      setup (Array.of_list (gt_task :: List.map mt_task hs)) (fun (job : Job.t) ->
          match job.analysis with
          | Job.Dc -> ([| 0 |], fun fs -> ctx fs None)
          | _ -> ([| 0; 1 + h_index hs job.h |], fun fs -> ctx fs (Some fs.(1))))
  | Opera.Galerkin.St { candidates; seed; _ } ->
      (* Decoupled point solves on grid-sized (n, not size*n) matrices.
         Selection is deterministic given (basis, candidates, seed) and
         cheap next to a factorization, so only the factors and the node
         ordering go through the store. *)
      let points =
        Opera.St_solver.select_points ~candidates ~seed model.Opera.Stochastic_model.basis
      in
      let size = Polychaos.Basis.size model.Opera.Stochastic_model.basis in
      let perm =
        Store.find_or_build store ~kind:"perm" ~version:1
          ~key:(tagged_key rep "st-node-ordering")
          ~encode:(fun p e -> Util.Codec.write_int_array e p)
          ~decode:(fun d ->
            let p = Util.Codec.read_int_array d in
            if Array.length p <> n || not (Linalg.Perm.is_valid p) then
              raise (Util.Codec.Corrupt "st node ordering does not match the grid");
            p)
          ~build:(fun () ->
            Linalg.Ordering.compute Linalg.Ordering.Nested_dissection
              (Opera.Stochastic_model.node_pattern model))
      in
      let ctx stf0 stfstep =
        St_ctx { stmodel = model; stspec = gspec; stvdd = gvdd; stpoints = points; stf0; stfstep }
      in
      (* Under a non-exact preconditioner the engine caches no factors at
         all: passing [f0]/[fstep] would pin the solver's exact path, and
         at the node counts where ic0/amg matter the N+1 per-point
         stepping factors are exactly the memory this knob avoids. *)
      if precond <> Linalg.Precond.Cholesky then no_factors (ctx None None)
      else
        let g0_task =
          cached_factor store ~count ~not_pd ~key:(tagged_key rep "st-g0") ~dim:n (fun () ->
              Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.mean_g model))
        in
        let point_task h i =
          cached_factor store ~count ~not_pd ~key:(st_point_key rep h i) ~dim:n (fun () ->
              Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.step_matrix model points i ~h))
        in
        (* DC refines against G(0) alone; stepping at h also applies that
           h's N+1 point factors. *)
        setup
          (Array.concat ([| g0_task |] :: List.map (fun h -> Array.init size (point_task h)) hs))
          (fun (job : Job.t) ->
            match job.analysis with
            | Job.Dc -> ([| 0 |], fun fs -> ctx (Some fs.(0)) None)
            | _ ->
                let base = 1 + (h_index hs job.h * size) in
                ( Array.append [| 0 |] (Array.init size (fun i -> base + i)),
                  fun fs -> ctx (Some fs.(0)) (Some (Array.sub fs 1 size)) ))

let prelude_special store count (rep : Job.t) members =
  let regions, lambda =
    match rep.Job.analysis with
    | Job.Special { regions; lambda } -> (regions, lambda)
    | _ -> invalid_arg "Engine.prelude_special: not a special-case job"
  in
  let nodes =
    match rep.source with
    | Job.Generated { nodes } -> nodes
    | Job.Netlist _ ->
        (* Job.of_json rejects this combination; keep the invariant local. *)
        invalid_arg "Engine.prelude_special: special-case jobs need a generated grid"
  in
  let rx, ry = Job.region_split regions in
  if rx * ry <> regions then
    (* Job.of_json rejects these; a hand-built job must not silently run
       with a different region count than its signature was hashed on. *)
    invalid_arg
      (Printf.sprintf "Engine.prelude_special: regions %d is not a near-square rx*ry tiling"
         regions);
  let sspec =
    {
      (Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes) with
      Powergrid.Grid_spec.regions_x = rx;
      regions_y = ry;
    }
  in
  let circuit = Powergrid.Grid_gen.generate sspec in
  let leaks =
    Array.init
      (sspec.Powergrid.Grid_spec.rows * sspec.Powergrid.Grid_spec.cols)
      (fun node -> (node, Powergrid.Grid_gen.region_of_node sspec node, 5e-6))
  in
  let sc =
    Opera.Special_case.make ~order:rep.order ~regions ~lambda ~leaks
      ~vdd:sspec.Powergrid.Grid_spec.vdd circuit
  in
  let mna = sc.Opera.Special_case.mna in
  let g = Powergrid.Mna.g_total mna in
  let n = mna.Powergrid.Mna.n in
  let not_pd = not_pd rep in
  let nd = Linalg.Ordering.Nested_dissection in
  let g_task =
    cached_factor store ~count ~not_pd ~key:(tagged_key rep "g") ~dim:n (fun () ->
        Linalg.Sparse_cholesky.factor ~ordering:nd g)
  in
  let be_task h =
    cached_factor store ~count ~not_pd ~key:(h_key rep "be" h) ~dim:n (fun () ->
        Linalg.Sparse_cholesky.factor ~ordering:nd
          (Linalg.Sparse.axpy ~alpha:(1.0 /. h) (Powergrid.Mna.c_total mna) g))
  in
  let hs = stepping_hs members in
  {
    nodes = n;
    factors = Array.of_list (g_task :: List.map be_task hs);
    (* every special-case job steps: G, then its h's G + C/h *)
    route =
      (fun (job : Job.t) ->
        ( [| 0; 1 + h_index hs job.h |],
          fun fs -> Special_ctx { sc; sspec; sfdc = fs.(0); sfbe = fs.(1) } ));
  }

let prelude store count ~load ~precond (rep : Job.t) members =
  match rep.analysis with
  | Job.Special _ -> prelude_special store count rep members
  | Job.Dc | Job.Transient | Job.Yield _ -> prelude_galerkin store count ~load ~precond rep members

(* ---- cohort execution ------------------------------------------------ *)

let resolve_probe (job : Job.t) spec n =
  match job.probe with
  | Some p -> p (* range-checked against n in [run], before jobs fan out *)
  | None -> (
      match spec with Some s -> Powergrid.Grid_gen.center_node s | None -> n / 2)

let scaled_model (model : Opera.Stochastic_model.t) (job : Job.t) =
  if Util.Floats.equal_exact job.drain_scale 1.0 then model
  else
    {
      model with
      Opera.Stochastic_model.u_drain_coefs =
        List.map
          (fun (rank, c) -> (rank, c *. job.drain_scale))
          model.Opera.Stochastic_model.u_drain_coefs;
    }

let num v = Util.Json.Num v

let base_fields (job : Job.t) ~probe extra =
  Util.Json.Obj
    ([
       ("job", Util.Json.Str job.name);
       ("analysis", Util.Json.Str (Job.analysis_name job.analysis));
       ("solver", Util.Json.Str (Job.solver_name job.solver));
       ("probe", num (float_of_int probe));
     ]
    @ extra)

(* DC moments straight from the augmented coefficient vector: block 0 is
   the mean, the variance is the norm-weighted sum of squares of the
   higher blocks. *)
let dc_record (job : Job.t) ~vdd ~(model : Opera.Stochastic_model.t) ~probe coefs =
  let n = model.Opera.Stochastic_model.n in
  let basis = model.Opera.Stochastic_model.basis in
  let size = Polychaos.Basis.size basis in
  let variance_at node =
    let acc = ref 0.0 in
    for k = 1 to size - 1 do
      let a = coefs.((k * n) + node) in
      acc := !acc +. (a *. a *. Polychaos.Basis.norm_sq basis k)
    done;
    !acc
  in
  let worst = ref 0.0 and worst_node = ref 0 in
  for node = 0 to n - 1 do
    let drop = vdd -. coefs.(node) in
    if drop > !worst then begin
      worst := drop;
      worst_node := node
    end
  done;
  base_fields job ~probe
    [
      ("n", num (float_of_int n));
      ("probe_mean", num coefs.(probe));
      ("probe_std", num (sqrt (variance_at probe)));
      ("worst_drop_mean", num !worst);
      ("worst_drop_node", num (float_of_int !worst_node));
    ]

let guarded_worst response ~vdd ~steps ~n =
  let worst = ref 0.0 and worst_node = ref 0 and worst_step = ref 1 in
  for step = 1 to steps do
    for node = 0 to n - 1 do
      let g =
        vdd
        -. Opera.Response.mean_at response ~step ~node
        +. (3.0 *. Opera.Response.std_at response ~step ~node)
      in
      if g > !worst then begin
        worst := g;
        worst_node := node;
        worst_step := step
      end
    done
  done;
  (!worst, !worst_node, !worst_step)

let transient_fields response ~vdd ~probe ~steps ~n =
  let worst, worst_node, worst_step = guarded_worst response ~vdd ~steps ~n in
  [
    ("n", num (float_of_int n));
    ("steps", num (float_of_int steps));
    ("final_mean", num (Opera.Response.mean_at response ~step:steps ~node:probe));
    ("final_std", num (Opera.Response.std_at response ~step:steps ~node:probe));
    ("worst_guarded_drop", num worst);
    ("worst_guarded_node", num (float_of_int worst_node));
    ("worst_guarded_step", num (float_of_int worst_step));
  ]

let yield_fields response ~vdd ~steps ~budget_pct =
  let budget = budget_pct /. 100.0 *. vdd in
  let worst_p = ref 0.0 and worst_step = ref 1 and worst_node = ref 0 in
  for step = 1 to steps do
    let p, node = Opera.Yield.grid_failure_probability_gaussian response ~step ~budget in
    if p > !worst_p then begin
      worst_p := p;
      worst_step := step;
      worst_node := node
    end
  done;
  [
    ("budget_pct", num budget_pct);
    ("worst_fail_p", num !worst_p);
    ("worst_fail_step", num (float_of_int !worst_step));
    ("worst_fail_node", num (float_of_int !worst_node));
  ]

let transient_record (job : Job.t) response ~vdd ~probe ~n =
  let fields = transient_fields response ~vdd ~probe ~steps:job.steps ~n in
  let fields =
    match job.analysis with
    | Job.Yield { budget_pct } -> fields @ yield_fields response ~vdd ~steps:job.steps ~budget_pct
    | _ -> fields
  in
  (base_fields job ~probe fields, Some response)

(* A direct cohort against the group's shared factors: one pass over
   the Gt factor for every member's initial state, then one pass over
   the Gt + Ct/h factor per backward-Euler step — the allocation pattern
   of Galerkin.solve_transient's Direct route with the factorizations
   replaced by block solves of the shared, read-only factors.  Member
   [j]'s state is column [j] of [block], and every column is bitwise
   its single-vector solve.  Spare domains split the columns; a lone
   column is one chunk, which [for_chunks] runs inline. *)
let run_direct_cohort (ctx : galerkin_ctx) fdc (jobs : Job.t array) reg ~inner =
  let k = Array.length jobs in
  let model = ctx.model in
  let n = model.Opera.Stochastic_model.n in
  let basis = model.Opera.Stochastic_model.basis in
  let dim = Polychaos.Basis.size basis * n in
  let vdd = ctx.gvdd in
  let models = Array.map (scaled_model model) jobs in
  let probes = Array.map (fun job -> resolve_probe job ctx.gspec n) jobs in
  let block = Array.make (k * dim) 0.0 in
  let cols = Array.init k Fun.id in
  let chunks = Int.max 1 (Int.min (Util.Parallel.resolve inner) k) in
  let work =
    Array.init chunks (fun c ->
        let lo, hi = Util.Parallel.chunk_bounds ~n:k ~chunks c in
        Array.make (Linalg.Sparse_cholesky.block_work_dim fdc ~k:(hi - lo)) 0.0)
  in
  let solve f =
    (* opera-lint: race — a chunk solves only its own columns of block, through its own workspace *)
    Util.Parallel.for_chunks ~domains:inner k (fun ~chunk ~lo ~hi ->
        Linalg.Sparse_cholesky.solve_block_ws f ~work:work.(chunk) ~cols ~lo ~hi ~src:block
          ~dst:block)
  in
  let drain_buf = Array.make n 0.0 in
  let u = Array.make dim 0.0 in
  for j = 0 to k - 1 do
    Opera.Galerkin.rhs_into models.(j) ~drain_buf 0.0 u;
    Array.blit u 0 block (j * dim) dim
  done;
  let column j = Array.sub block (j * dim) dim in
  match jobs.(0).analysis with
  | Job.Dc ->
      Util.Metrics.span reg "engine.step_s" (fun () -> solve fdc);
      Array.mapi (fun j job -> (dc_record job ~vdd ~model ~probe:probes.(j) (column j), None)) jobs
  | Job.Transient | Job.Yield _ ->
      let h = jobs.(0).h and steps = jobs.(0).steps in
      let f = Option.get ctx.fmt in
      let ct = Option.get ctx.ct in
      let responses =
        Array.map
          (fun probe -> Opera.Response.create ~basis ~n ~steps ~h ~vdd ~probes:[| probe |])
          probes
      in
      let a = Array.make dim 0.0 in
      let ct_a = Array.make dim 0.0 in
      let record step =
        Array.iteri
          (fun j response ->
            Array.blit block (j * dim) a 0 dim;
            Opera.Response.record_step response ~step ~coefs:a)
          responses
      in
      solve fdc;
      record 0;
      for step = 1 to steps do
        let t = float_of_int step *. h in
        for j = 0 to k - 1 do
          let base = j * dim in
          Array.blit block base a 0 dim;
          Opera.Galerkin.rhs_into models.(j) ~drain_buf t u;
          Linalg.Sparse.mul_vec_into ct a ct_a;
          for i = 0 to dim - 1 do
            block.(base + i) <- u.(i) +. (ct_a.(i) /. h)
          done
        done;
        Util.Metrics.span reg "engine.step_s" (fun () -> solve f);
        record step
      done;
      Array.mapi
        (fun j job -> transient_record job responses.(j) ~vdd ~probe:probes.(j) ~n)
        jobs
  | Job.Special _ -> invalid_arg "Engine.run_direct_cohort: special job in a Galerkin group"

let galerkin_options (job : Job.t) reg ~probe ~inner ~warm_start ~precond =
  {
    Opera.Galerkin.default_options with
    Opera.Galerkin.solver = job.solver;
    probes = [| probe |];
    domains = inner;
    policy = job.policy;
    metrics = reg;
    warm_start;
    precond;
  }

(* The iterative routes ([pcg], [matrix-free]) factor their small
   nominal blocks per job, so each job is a cohort of one. *)
let run_iterative_job (ctx : galerkin_ctx) (job : Job.t) reg ~inner ~warm_start ~precond =
  let n = ctx.model.Opera.Stochastic_model.n in
  let probe = resolve_probe job ctx.gspec n in
  let vdd = ctx.gvdd in
  let model = scaled_model ctx.model job in
  let options = galerkin_options job reg ~probe ~inner ~warm_start ~precond in
  match job.analysis with
  | Job.Dc ->
      let coefs = Opera.Galerkin.solve_dc ~options model in
      (dc_record job ~vdd ~model ~probe coefs, None)
  | Job.Transient | Job.Yield _ ->
      let response, _stats =
        Opera.Galerkin.solve_transient ~options model ~h:job.h ~steps:job.steps
      in
      transient_record job response ~vdd ~probe ~n
  | Job.Special _ -> invalid_arg "Engine.run_iterative_job: special job in a Galerkin group"

let run_special_job (ctx : special_ctx) (job : Job.t) reg ~inner =
  let lambda =
    match job.analysis with
    | Job.Special { lambda; _ } -> lambda
    | _ -> invalid_arg "Engine.run_special_job: not a special-case job"
  in
  let n = ctx.sc.Opera.Special_case.mna.Powergrid.Mna.n in
  let probe = resolve_probe job (Some ctx.sspec) n in
  let sc =
    {
      ctx.sc with
      Opera.Special_case.lambda;
      leaks =
        (if Util.Floats.equal_exact job.leak_scale 1.0 then ctx.sc.Opera.Special_case.leaks
         else
           Array.map
             (fun (node, region, i0) -> (node, region, i0 *. job.leak_scale))
             ctx.sc.Opera.Special_case.leaks);
    }
  in
  let response, _elapsed =
    Opera.Special_case.solve ~domains:inner ~metrics:reg ~factors:(ctx.sfdc, ctx.sfbe) sc ~h:job.h
      ~steps:job.steps ~probes:[| probe |]
  in
  let vdd = ctx.sspec.Powergrid.Grid_spec.vdd in
  let pce = Opera.Response.pce_at response ~node:probe ~step:job.steps in
  let fields =
    transient_fields response ~vdd ~probe ~steps:job.steps ~n
    @ [
        ("regions", num (float_of_int ctx.sc.Opera.Special_case.regions));
        ("lambda", num lambda);
        ("basis_size", num (float_of_int (Polychaos.Basis.size ctx.sc.Opera.Special_case.basis)));
        ("final_skew", num (Polychaos.Pce.skewness pce));
      ]
  in
  (base_fields job ~probe fields, Some response)

(* The engine precomputes everything (candidates, seed) shapes — the
   point set and every factor — so only the convergence knobs of the
   job's [St] payload still matter here; a cohort shares them. *)
let st_options_of (job : Job.t) reg ~inner ~precond =
  let tol, max_refine, candidates, seed =
    match job.solver with
    | Opera.Galerkin.St { tol; max_refine; candidates; seed } -> (tol, max_refine, candidates, seed)
    | _ -> invalid_arg "Engine.run_st_cohort: not an st job"
  in
  {
    Opera.St_solver.candidates;
    seed;
    refine_tol = tol;
    refine_max = max_refine;
    ordering = Linalg.Ordering.Nested_dissection;
    precond;
    probes = [||];
    domains = inner;
    metrics = reg;
  }

(* An st cohort: every (job, point) column refines against G(0) in one
   lockstep, and each step solves every point's stepping factor once
   for all the cohort's jobs (St_solver's cohort form). *)
let run_st_cohort (ctx : st_ctx) (jobs : Job.t array) reg ~inner ~precond =
  let rep = jobs.(0) in
  let models = Array.map (scaled_model ctx.stmodel) jobs in
  let n = ctx.stmodel.Opera.Stochastic_model.n in
  let probes = Array.map (fun job -> resolve_probe job ctx.stspec n) jobs in
  let vdd = ctx.stvdd in
  let options = st_options_of rep reg ~inner ~precond in
  match rep.analysis with
  | Job.Dc ->
      let coefs, _stats =
        Opera.St_solver.solve_dc_cohort ~options ~points:ctx.stpoints ?f0:ctx.stf0 models
      in
      Array.mapi
        (fun j job -> (dc_record job ~vdd ~model:models.(j) ~probe:probes.(j) coefs.(j), None))
        jobs
  | Job.Transient | Job.Yield _ ->
      let responses, _stats =
        Opera.St_solver.solve_transient_cohort ~options ~points:ctx.stpoints ?f0:ctx.stf0
          ?fstep:ctx.stfstep
          models
          ~probes:(Array.map (fun p -> [| p |]) probes)
          ~h:rep.h ~steps:rep.steps
      in
      Array.mapi
        (fun j job -> transient_record job responses.(j) ~vdd ~probe:probes.(j) ~n)
        jobs
  | Job.Special _ -> invalid_arg "Engine.run_st_cohort: special job in an st group"

(* One claim: a chunk of a cohort, run as one pass of its route. *)
let run_cohort ctx jobs reg ~inner ~warm_start ~precond =
  let k = Array.length jobs in
  Util.Metrics.incr reg ~by:k "engine.jobs";
  Util.Metrics.incr reg "engine.cohorts";
  Util.Metrics.observe reg "engine.cohort_columns" (float_of_int k);
  Util.Metrics.span reg "engine.job_s" (fun () ->
      match ctx with
      | Galerkin_ctx ({ fdc = Some fdc; _ } as g) -> run_direct_cohort g fdc jobs reg ~inner
      | Galerkin_ctx g ->
          Array.map (fun job -> run_iterative_job g job reg ~inner ~warm_start ~precond) jobs
      | Special_ctx s -> Array.map (fun job -> run_special_job s job reg ~inner) jobs
      | St_ctx s -> run_st_cohort s jobs reg ~inner ~precond)

(* ---- cohorts ----------------------------------------------------------

   A cohort is the set of jobs of one operator group that apply the same
   factors in the same order, so one pass over each factor serves them
   all: the direct DC jobs; the direct transient and yield jobs of one
   (h, steps); the exact-route st jobs of one analysis class, (h,
   steps) — DC solves take no step — and convergence knobs.  Every
   special-case, matrix-free and pcg job, and every st job under an
   approximate mean solver, is a cohort of one.  Floats enter a key as
   their bit patterns, the identity the artifact keys use. *)

type cohort_key =
  | Direct_dc
  | Direct_steps of { h : int64; steps : int }
  | St_dc of { tol : int64; max_refine : int }
  | St_steps of { h : int64; steps : int; tol : int64; max_refine : int }

let cohort_key ~precond (job : Job.t) =
  let bits = Int64.bits_of_float in
  let exact = precond = Linalg.Precond.Cholesky in
  match (job.solver, job.analysis) with
  | Opera.Galerkin.Direct, Job.Dc -> Some Direct_dc
  | Opera.Galerkin.Direct, (Job.Transient | Job.Yield _) ->
      Some (Direct_steps { h = bits job.h; steps = job.steps })
  | Opera.Galerkin.St { tol; max_refine; _ }, Job.Dc when exact ->
      Some (St_dc { tol = bits tol; max_refine })
  | Opera.Galerkin.St { tol; max_refine; _ }, (Job.Transient | Job.Yield _) when exact ->
      Some (St_steps { h = bits job.h; steps = job.steps; tol = bits tol; max_refine })
  | _ -> None

(* The widest panel of Sparse_cholesky.solve_block_ws: a wider cohort
   splits into near-equal claims of at most this many jobs. *)
let cohort_width = 6

let claims_of_groups ~precond jobs groups =
  let claims = ref [] in
  let add members =
    let k = Array.length members in
    let parts = (k + cohort_width - 1) / cohort_width in
    for c = 0 to parts - 1 do
      let lo, hi = Util.Parallel.chunk_bounds ~n:k ~chunks:parts c in
      claims := Array.sub members lo (hi - lo) :: !claims
    done
  in
  Array.iter
    (fun members ->
      let cohorts = Hashtbl.create 4 and order = ref [] in
      Array.iter
        (fun i ->
          match cohort_key ~precond jobs.(i) with
          | None -> add [| i |]
          | Some key -> (
              match Hashtbl.find_opt cohorts key with
              | Some l -> l := i :: !l
              | None ->
                  let l = ref [ i ] in
                  Hashtbl.add cohorts key l;
                  order := l :: !order))
        members;
      List.iter (fun l -> add (Array.of_list (List.rev !l))) !order)
    groups;
  let claims = Array.of_list !claims in
  Array.sort (fun a b -> compare a.(0) b.(0)) claims;
  claims

let cohorts ~precond jobs = claims_of_groups ~precond jobs (plan jobs)

(* ---- batch execution ------------------------------------------------- *)

let shard_filter config jobs =
  match config.shard with
  | None -> jobs
  | Some (i, k) ->
      if k < 1 || i < 0 || i >= k then
        raise
          (Invalid_batch
             (Printf.sprintf "shard %d/%d is not a valid partition (need 0 <= i < k)" i k));
      let sel = ref [] in
      Array.iteri (fun idx job -> if shard_of idx ~shards:k = i then sel := job :: !sel) jobs;
      Array.of_list (List.rev !sel)

let run ?(config = default_config) ?emit jobs =
  let t0 = Util.Timer.start () in
  let metrics = config.metrics in
  if Array.length jobs = 0 then raise (Invalid_batch "empty batch");
  (* Shard membership is decided on batch-file positions, BEFORE resume
     or planning, so k cooperating processes partition the same job set
     no matter which of them already journaled what. *)
  let jobs = shard_filter config jobs in
  let njobs = Array.length jobs in
  let store = Store.create ~metrics ~dir:config.cache_dir () in
  let registry =
    Registry.create ~precond:config.precond ~warm_start:config.warm_start ~dir:config.cache_dir ()
  in
  (* Resume replays journaled records without building anything: a
     replayed job needs no context, no factors, not even its group. *)
  let out : result option array = Array.make njobs None in
  let done_ = Array.make njobs false in
  if config.resume then
    Array.iteri
      (fun i job ->
        match Registry.lookup registry job with
        | Some record ->
            out.(i) <- Some { job; record; response = None };
            done_.(i) <- true
        | None -> ())
      jobs;
  let pending =
    Array.of_list
      (List.filter (fun i -> not done_.(i)) (List.init njobs (fun i -> i)))
  in
  let npending = Array.length pending in
  let pending_jobs = Array.map (fun i -> jobs.(i)) pending in
  let groups = plan pending_jobs in
  let claims = claims_of_groups ~precond:config.precond pending_jobs groups in
  let factorizations = Atomic.make 0 in
  let count () = Atomic.incr factorizations in
  (* Each distinct netlist path is parsed once per run, on the main
     domain; its circuit is shared read-only by every group naming it
     (nothing built from a parsed circuit writes to it). *)
  let netlists = Hashtbl.create 2 in
  let load path =
    match Hashtbl.find_opt netlists path with
    | Some parsed -> parsed
    | None ->
        let parsed = Powergrid.Netlist.load_file path in
        Hashtbl.add netlists path parsed;
        if Result.is_ok parsed then Util.Metrics.incr metrics "engine.netlists";
        parsed
  in
  let setups =
    Array.map
      (fun members ->
        Util.Metrics.span metrics "engine.group_setup_s" (fun () ->
            prelude store count ~load ~precond:config.precond
              jobs.(pending.(members.(0)))
              (Array.map (fun c -> jobs.(pending.(c))) members)))
      groups
  in
  let group_of = Array.make npending 0 in
  Array.iteri (fun g members -> Array.iter (fun c -> group_of.(c) <- g) members) groups;
  (* Probe bounds need the preludes (a netlist's node count is only known
     after parsing), but must be checked before any task runs so a bad
     spec surfaces as a normal usage error, not a backtrace out of a
     worker domain.  Replayed jobs were validated by the run that
     journaled them (an out-of-range probe never completes, hence never
     journals). *)
  Array.iteri
    (fun c i ->
      let job = jobs.(i) in
      match job.Job.probe with
      | None -> ()
      | Some p ->
          let n = setups.(group_of.(c)).nodes in
          if p < 0 || p >= n then
            raise
              (Invalid_batch
                 (Printf.sprintf "job %s: probe %d out of range [0, %d)" job.Job.name p n)))
    pending;
  let jp = Int.max 1 (Int.min (Util.Parallel.resolve config.jobs_parallel) npending) in
  (* Inner solver parallelism is forced sequential whenever the batch
     itself fans out: the loops hold the pool, so a kernel dispatched
     from one would run its chunks inline anyway. *)
  let inner = if jp > 1 then 1 else config.domains in
  (* The task graph: every group's factor tasks in group order (group
     [g]'s factor [k] is task [base.(g) + k]), then the chunks in the
     input order of their first jobs, each a leaf that depends on the
     factors its route applies and gets its context assembled from
     exactly those. *)
  let factors =
    Array.concat
      (Array.to_list
         (Array.mapi (fun g s -> Array.init (Array.length s.factors) (fun k -> (g, k))) setups))
  in
  let nfactors = Array.length factors in
  let base = Array.make (Array.length setups) 0 in
  Array.iteri (fun t (g, k) -> if k = 0 then base.(g) <- t) factors;
  let routes =
    Array.map
      (fun members ->
        let g = group_of.(members.(0)) in
        let ks, assemble = setups.(g).route pending_jobs.(members.(0)) in
        (Array.map (fun k -> base.(g) + k) ks, assemble))
      claims
  in
  let tasks =
    Array.append
      (Array.map (fun _ -> { Schedule.deps = [||]; leaf = false }) factors)
      (Array.map (fun (deps, _) -> { Schedule.deps; leaf = true }) routes)
  in
  let built = Array.make nfactors None in
  (* Records leave in input order, one emit at a time, each as soon as
     it and every earlier-indexed job are done: the loop that publishes
     a chunk's records emits what became ready, so no record waits for
     another loop's long claim, and a killed run's JSONL is an exact
     prefix of the uninterrupted stream.  [run] drains once before the
     loops (the replayed records) and once after them.  A failing job
     parks its exception (lowest input index wins, as in
     Util.Parallel.for_chunks) and later jobs still run; a failing emit
     stops further claims and re-raises after the tasks in flight
     return.  [lock] guards [out], [done_], [job_failure] and
     [next_emit], which moves under [emit_lock] too. *)
  let lock = Mutex.create () in
  let job_failure = ref None in
  let emit_failure = Atomic.make None in
  let park i e =
    match !job_failure with Some (j, _) when j <= i -> () | _ -> job_failure := Some (i, e)
  in
  let next_emit = ref 0 in
  let emit_lock = Mutex.create () in
  let take_ready () =
    Mutex.protect lock (fun () ->
        let ready = ref [] in
        while !next_emit < njobs && done_.(!next_emit) do
          ready := Option.get out.(!next_emit) :: !ready;
          incr next_emit
        done;
        List.rev !ready)
  in
  let drain_ready () =
    match emit with
    | None -> ()
    | Some emit ->
        (* The callback runs outside [lock]: it may flush to a pipe,
           block on a slow consumer, or raise — none of which may stall
           the claims of loops not emitting. *)
        Mutex.protect emit_lock (fun () ->
            List.iter
              (fun r ->
                if Option.is_none (Atomic.get emit_failure) then
                  match emit r with () -> () | exception e -> Atomic.set emit_failure (Some e))
              (take_ready ()))
  in
  let run_task reg t =
    if t < nfactors then
      let g, k = factors.(t) in
      built.(t) <- Some (Util.Metrics.span reg "engine.factor_s" setups.(g).factors.(k))
    else
      let q = t - nfactors in
      let idx = Array.map (fun c -> pending.(c)) claims.(q) in
      let cjobs = Array.map (fun i -> jobs.(i)) idx in
      let deps, assemble = routes.(q) in
      let x = assemble (Array.map (fun t -> Option.get built.(t)) deps) in
      let outcomes =
        match
          run_cohort x cjobs reg ~inner ~warm_start:config.warm_start ~precond:config.precond
        with
        | runs ->
            Array.mapi
              (fun j (record, response) ->
                let job = cjobs.(j) in
                (* Journal-ahead: the record is on disk (atomically) before
                   it can reach the stream, so --resume never misses an
                   emitted record.  Each entry is its own atomic file. *)
                match Registry.record registry job record with
                | () -> Ok { job; record; response }
                | exception e -> Error e)
              runs
        (* The st route factors its testing points inside the job too. *)
        | exception Linalg.Sparse_cholesky.Not_positive_definite _ ->
            raise (Invalid_batch (not_pd cjobs.(0)))
      in
      Mutex.protect lock (fun () ->
          Array.iteri
            (fun j outcome ->
              let i = idx.(j) in
              match outcome with
              | Ok r ->
                  out.(i) <- Some r;
                  done_.(i) <- true
              | Error e -> park i e)
            outcomes);
      drain_ready ()
  in
  (* A raising chunk parks at its first job; a raising factor at the
     first job of the first chunk it fails, if any. *)
  let failed t e lost =
    match List.find_opt (fun t -> t >= nfactors) (t :: lost) with
    | Some t -> Mutex.protect lock (fun () -> park pending.(claims.(t - nfactors).(0)) e)
    | None -> ()
  in
  (* The replayed records stream first. *)
  drain_ready ();
  Schedule.run ~loops:jp ~metrics ~failed
    ~stopped:(fun () -> Option.is_some (Atomic.get emit_failure))
    tasks run_task;
  drain_ready ();
  let factorizations = Atomic.get factorizations in
  if factorizations > 0 then Util.Metrics.incr metrics ~by:factorizations "engine.factorizations";
  Registry.report registry ~into:metrics;
  (match !job_failure with Some (_, e) -> raise e | None -> ());
  (match Atomic.get emit_failure with Some e -> raise e | None -> ());
  let results = Array.map Option.get out in
  let st = Store.stats store in
  let rstats = Registry.stats registry in
  ( results,
    {
      jobs = njobs;
      groups = Array.length groups;
      factorizations;
      cache_hits = st.Store.hits;
      cache_misses = st.Store.misses;
      cache_corrupt = st.Store.corrupt;
      replayed = rstats.Registry.replayed;
      journaled = rstats.Registry.journaled;
      registry_corrupt = rstats.Registry.corrupt;
      elapsed_seconds = Util.Timer.elapsed_s t0;
    } )

let run_jsonl ?config out jobs =
  (* Stream: each record leaves the process the moment its prefix is
     complete, so a crash at job N loses nothing of jobs 0..N-1. *)
  let emit r =
    output_string out (Util.Json.render r.record);
    output_char out '\n';
    flush out
  in
  let _, summary = run ?config ~emit jobs in
  summary

let summary_line s =
  Printf.sprintf
    "batch: %d job(s) in %d group(s), %d factorization(s), cache %d hit(s) / %d miss(es)%s%s, %.2f s"
    s.jobs s.groups s.factorizations s.cache_hits s.cache_misses
    (if s.cache_corrupt > 0 then Printf.sprintf " (%d corrupt)" s.cache_corrupt else "")
    (if s.replayed > 0 || s.registry_corrupt > 0 then
       Printf.sprintf ", %d replayed%s" s.replayed
         (if s.registry_corrupt > 0 then Printf.sprintf " (%d corrupt)" s.registry_corrupt else "")
     else "")
    s.elapsed_seconds
