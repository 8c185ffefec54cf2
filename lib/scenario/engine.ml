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
   factorization the group needs is then one task of [run]'s claim
   loop, run on whichever domain claims it, alongside other groups'
   factors and jobs; a job becomes claimable once all of its group's
   factors exist, and [finish] assembles the context from them.  Every
   task assembles the matrix it factors itself: the tasks share only
   read-only values (model, ordering, assembled [Ct] or [G]), never a
   [Lazy.t], which OCaml 5 refuses to force from two domains at once.
   A shared factor is complete before any job applies it (read-only,
   through workspace-explicit solves). *)

type galerkin_ctx = {
  model : Opera.Stochastic_model.t;
  gspec : Powergrid.Grid_spec.t option;
  gvdd : float;
  fdc : Linalg.Sparse_cholesky.t option;  (** Direct route: factor of Gt *)
  fmt : (float * Linalg.Sparse_cholesky.t) list;  (** Direct route: Gt + Ct/h per h *)
  ct : Linalg.Sparse.t option;  (** assembled Ct for stepping right-hand sides *)
}

type special_ctx = {
  sc : Opera.Special_case.t;
  sspec : Powergrid.Grid_spec.t;
  sfdc : Linalg.Sparse_cholesky.t;  (** factor of G *)
  sfbe : (float * Linalg.Sparse_cholesky.t) list;  (** factor of G + C/h per h *)
}

type st_ctx = {
  stmodel : Opera.Stochastic_model.t;
  stspec : Powergrid.Grid_spec.t option;
  stvdd : float;
  stpoints : Opera.St_solver.points;
  stf0 : Linalg.Sparse_cholesky.t option;
      (** factor of the mean G(0); [None] under a non-exact [--precond]
          (the solver builds its own mean-block backend) *)
  stfstep : (float * Linalg.Sparse_cholesky.t array) list;
      (** per h: one factor of [G(xi_i) + C(xi_i)/h] per testing point;
          empty under a non-exact [--precond] *)
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

(* A group after its prelude: the node count its probes are checked
   against, one closure per factor, and the context assembled from the
   built factors (passed in task order). *)
type setup = {
  nodes : int;
  factors : (unit -> Linalg.Sparse_cholesky.t) array;
  finish : Linalg.Sparse_cholesky.t array -> ctx;
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

let prelude_galerkin store count ~precond (rep : Job.t) members =
  let circuit, gvdd, gspec =
    match rep.Job.source with
    | Job.Generated { nodes } ->
        let spec = Powergrid.Grid_spec.scale_to_nodes Powergrid.Grid_spec.default nodes in
        (Powergrid.Grid_gen.generate spec, spec.Powergrid.Grid_spec.vdd, Some spec)
    | Job.Netlist path -> (
        match Powergrid.Netlist.load_file path with
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
  let setup factors finish = { nodes = n; factors; finish } in
  let no_factors ctx = setup [||] (fun _ -> ctx) in
  match rep.solver with
  | Opera.Galerkin.Mean_pcg _ | Opera.Galerkin.Matrix_free_pcg _ ->
      (* Iterative jobs run through the full Galerkin machinery; they
         share the expanded model (and the cached triple-product tensor)
         but factor their small nominal blocks per job. *)
      no_factors (Galerkin_ctx { model; gspec; gvdd; fdc = None; fmt = []; ct = None })
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
      setup (Array.of_list (gt_task :: List.map mt_task hs)) (fun fs ->
          let fmt = List.mapi (fun k h -> (h, fs.(k + 1))) hs in
          Galerkin_ctx { model; gspec; gvdd; fdc = Some fs.(0); fmt; ct })
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
      if precond <> Linalg.Precond.Cholesky then no_factors (ctx None [])
      else
        let g0_task =
          cached_factor store ~count ~not_pd ~key:(tagged_key rep "st-g0") ~dim:n (fun () ->
              Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.mean_g model))
        in
        let point_task h i =
          cached_factor store ~count ~not_pd ~key:(st_point_key rep h i) ~dim:n (fun () ->
              Linalg.Sparse_cholesky.factor ~perm (Opera.St_solver.step_matrix model points i ~h))
        in
        setup
          (Array.concat ([| g0_task |] :: List.map (fun h -> Array.init size (point_task h)) hs))
          (fun fs ->
            ctx (Some fs.(0)) (List.mapi (fun k h -> (h, Array.sub fs (1 + (k * size)) size)) hs))

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
    finish =
      (fun fs ->
        Special_ctx { sc; sspec; sfdc = fs.(0); sfbe = List.mapi (fun k h -> (h, fs.(k + 1))) hs });
  }

let prelude store count ~precond (rep : Job.t) members =
  match rep.analysis with
  | Job.Special _ -> prelude_special store count rep members
  | Job.Dc | Job.Transient | Job.Yield _ -> prelude_galerkin store count ~precond rep members

(* ---- per-job execution ----------------------------------------------- *)

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

(* Backward-Euler stepping against the group's shared factors — the
   allocation pattern of Galerkin.solve_transient's Direct route with
   the factorizations replaced by workspace-explicit applications of the
   shared, read-only factors. *)
let direct_transient (ctx : galerkin_ctx) (job : Job.t) ~probe ~inner reg =
  let model = scaled_model ctx.model job in
  let n = model.Opera.Stochastic_model.n in
  let basis = model.Opera.Stochastic_model.basis in
  let size = Polychaos.Basis.size basis in
  let dim = size * n in
  let fdc = Option.get ctx.fdc in
  let f = List.assoc job.h ctx.fmt in
  let ct = Option.get ctx.ct in
  let response =
    Opera.Response.create ~basis ~n ~steps:job.steps ~h:job.h ~vdd:ctx.gvdd
      ~probes:[| probe |]
  in
  let drain_buf = Array.make n 0.0 in
  let u = Array.make dim 0.0 in
  let rhs = Array.make dim 0.0 in
  let ct_a = Array.make dim 0.0 in
  let work = Array.make dim 0.0 in
  let a = Array.make dim 0.0 in
  Opera.Galerkin.rhs_into model ~drain_buf 0.0 a;
  Linalg.Sparse_cholesky.solve_in_place_ws fdc ~domains:inner ~work a;
  Opera.Response.record_step response ~step:0 ~coefs:a;
  for k = 1 to job.steps do
    let t = float_of_int k *. job.h in
    Opera.Galerkin.rhs_into model ~drain_buf t u;
    Linalg.Sparse.mul_vec_into ct a ct_a;
    for i = 0 to dim - 1 do
      rhs.(i) <- u.(i) +. (ct_a.(i) /. job.h)
    done;
    Util.Metrics.span reg "engine.step_s" (fun () ->
        Array.blit rhs 0 a 0 dim;
        (* Level-scheduled sweeps when the job owns spare domains;
           bitwise identical to the sequential path. *)
        Linalg.Sparse_cholesky.solve_in_place_ws f ~domains:inner ~work a);
    Opera.Response.record_step response ~step:k ~coefs:a
  done;
  response

let direct_dc (ctx : galerkin_ctx) (job : Job.t) ~inner reg =
  let model = scaled_model ctx.model job in
  let n = model.Opera.Stochastic_model.n in
  let size = Polychaos.Basis.size model.Opera.Stochastic_model.basis in
  let dim = size * n in
  let fdc = Option.get ctx.fdc in
  let drain_buf = Array.make n 0.0 in
  let coefs = Array.make dim 0.0 in
  let work = Array.make dim 0.0 in
  Opera.Galerkin.rhs_into model ~drain_buf 0.0 coefs;
  Util.Metrics.span reg "engine.step_s" (fun () ->
      Linalg.Sparse_cholesky.solve_in_place_ws fdc ~domains:inner ~work coefs);
  coefs

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

let run_galerkin_job (ctx : galerkin_ctx) (job : Job.t) reg ~inner ~warm_start ~precond =
  let n = ctx.model.Opera.Stochastic_model.n in
  let probe = resolve_probe job ctx.gspec n in
  let vdd = ctx.gvdd in
  match (job.analysis, ctx.fdc) with
  | Job.Dc, Some _ ->
      let coefs = direct_dc ctx job ~inner reg in
      (dc_record job ~vdd ~model:ctx.model ~probe coefs, None)
  | Job.Dc, None ->
      let model = scaled_model ctx.model job in
      let options = galerkin_options job reg ~probe ~inner ~warm_start ~precond in
      let coefs = Opera.Galerkin.solve_dc ~options model in
      (dc_record job ~vdd ~model ~probe coefs, None)
  | (Job.Transient | Job.Yield _), _ ->
      let response =
        match ctx.fdc with
        | Some _ -> direct_transient ctx job ~probe ~inner reg
        | None ->
            let model = scaled_model ctx.model job in
            let options = galerkin_options job reg ~probe ~inner ~warm_start ~precond in
            let response, _stats =
              Opera.Galerkin.solve_transient ~options model ~h:job.h ~steps:job.steps
            in
            response
      in
      let fields = transient_fields response ~vdd ~probe ~steps:job.steps ~n in
      let fields =
        match job.analysis with
        | Job.Yield { budget_pct } ->
            fields @ yield_fields response ~vdd ~steps:job.steps ~budget_pct
        | _ -> fields
      in
      (base_fields job ~probe fields, Some response)
  | Job.Special _, _ -> invalid_arg "Engine.run_galerkin_job: special job in a Galerkin group"

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
  let fbe = List.assoc job.h ctx.sfbe in
  let response, _elapsed =
    Opera.Special_case.solve ~domains:inner ~metrics:reg ~factors:(ctx.sfdc, fbe) sc ~h:job.h
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
   job's [St] payload still matter here. *)
let st_options_of (job : Job.t) reg ~probe ~inner ~precond =
  let tol, max_refine, candidates, seed =
    match job.solver with
    | Opera.Galerkin.St { tol; max_refine; candidates; seed } -> (tol, max_refine, candidates, seed)
    | _ -> invalid_arg "Engine.run_st_job: not an st job"
  in
  {
    Opera.St_solver.candidates;
    seed;
    refine_tol = tol;
    refine_max = max_refine;
    ordering = Linalg.Ordering.Nested_dissection;
    precond;
    probes = [| probe |];
    domains = inner;
    metrics = reg;
  }

let run_st_job (ctx : st_ctx) (job : Job.t) reg ~inner ~precond =
  let model = scaled_model ctx.stmodel job in
  let n = model.Opera.Stochastic_model.n in
  let probe = resolve_probe job ctx.stspec n in
  let vdd = ctx.stvdd in
  let options = st_options_of job reg ~probe ~inner ~precond in
  match job.analysis with
  | Job.Dc ->
      let coefs, _stats = Opera.St_solver.solve_dc ~options ~points:ctx.stpoints ?f0:ctx.stf0 model in
      (dc_record job ~vdd ~model ~probe coefs, None)
  | Job.Transient | Job.Yield _ ->
      let fstep = List.assoc_opt job.h ctx.stfstep in
      let response, _stats =
        Opera.St_solver.solve_transient ~options ~points:ctx.stpoints ?f0:ctx.stf0 ?fstep model
          ~h:job.h ~steps:job.steps
      in
      let fields = transient_fields response ~vdd ~probe ~steps:job.steps ~n in
      let fields =
        match job.analysis with
        | Job.Yield { budget_pct } ->
            fields @ yield_fields response ~vdd ~steps:job.steps ~budget_pct
        | _ -> fields
      in
      (base_fields job ~probe fields, Some response)
  | Job.Special _ -> invalid_arg "Engine.run_st_job: special job in an st group"

let run_job ctx job reg ~inner ~warm_start ~precond =
  Util.Metrics.incr reg "engine.jobs";
  Util.Metrics.span reg "engine.job_s" (fun () ->
      match ctx with
      | Galerkin_ctx g -> run_galerkin_job g job reg ~inner ~warm_start ~precond
      | Special_ctx s -> run_special_job s job reg ~inner
      | St_ctx s -> run_st_job s job reg ~inner ~precond)

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

(* What a domain takes next in [run]'s claim loop: a factor task, a
   ready job with its group's context, nothing yet, or nothing ever. *)
type claim = Factor of int | Run of int * ctx | Wait | Finished

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
  let registry = Registry.create ~dir:config.cache_dir () in
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
  let groups = plan (Array.map (fun i -> jobs.(i)) pending) in
  let factorizations = Atomic.make 0 in
  let count () = Atomic.incr factorizations in
  let setups =
    Array.map
      (fun members ->
        Util.Metrics.span metrics "engine.group_setup_s" (fun () ->
            prelude store count ~precond:config.precond
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
  (* Jobs in flight own their domain: inner solver parallelism is forced
     sequential whenever the batch itself fans out, so the domain count
     stays bounded by [jobs_parallel]. *)
  let inner = if jp > 1 then 1 else config.domains in
  let regs = Array.init npending (fun _ -> Util.Metrics.create ()) in
  (* Factor tasks in group order, as (group, factor index). *)
  let tasks =
    Array.concat
      (Array.to_list
         (Array.mapi (fun g s -> Array.init (Array.length s.factors) (fun k -> (g, k))) setups))
  in
  let ntasks = Array.length tasks in
  let tregs = Array.init ntasks (fun _ -> Util.Metrics.create ()) in
  (* The claim loop.  Every domain — the main one included — repeatedly
     claims under [lock]: the first unclaimed factor task, in group
     order; failing that, the first unclaimed job, in input order, whose
     group has all its factors ([ctx.(g)] set); failing that, it waits
     on [cond].  At one domain this is every factor, then every job.  A
     finished factor completes its group's context once the last one
     lands; a finished job journals its record, then publishes it.  Only
     the main domain emits: records leave in input order, each flushed as
     soon as it and every earlier-indexed job are done, so a killed run's
     JSONL is always an exact prefix of the uninterrupted stream.  A
     failing job parks its exception (lowest input index wins, matching
     the deterministic re-raise discipline of Util.Parallel.for_chunks)
     and later jobs still run; a failing factor fails every job of its
     group the same way, parked at the group's first job.  A failing emit
     callback stops further claims and re-raises after the in-flight
     tasks drain. *)
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let built = Array.map (fun s -> Array.make (Array.length s.factors) None) setups in
  let ctx =
    Array.map (fun s -> if Array.length s.factors = 0 then Some (s.finish [||]) else None) setups
  in
  let failed = Array.make (Array.length setups) false in
  let claimed = Array.make npending false in
  let next_task = ref 0 in
  let first_unclaimed = ref 0 in
  let stop = Atomic.make false in
  let remaining = ref npending in
  let job_failure = ref None in
  let emit_failure = ref None in
  let park i e =
    match !job_failure with Some (j, _) when j <= i -> () | _ -> job_failure := Some (i, e)
  in
  let claim () =
    if Atomic.get stop then Finished
    else begin
      while !next_task < ntasks && failed.(fst tasks.(!next_task)) do
        incr next_task
      done;
      if !next_task < ntasks then begin
        incr next_task;
        Factor (!next_task - 1)
      end
      else begin
        while !first_unclaimed < npending && claimed.(!first_unclaimed) do
          incr first_unclaimed
        done;
        let rec ready c =
          if c = npending then if !first_unclaimed < npending then Wait else Finished
          else
            match ctx.(group_of.(c)) with
            | Some x when not claimed.(c) ->
                claimed.(c) <- true;
                Run (c, x)
            | _ -> ready (c + 1)
        in
        ready !first_unclaimed
      end
    end
  in
  let factor_one t =
    let g, k = tasks.(t) in
    let built_f =
      match Util.Metrics.span tregs.(t) "engine.factor_s" setups.(g).factors.(k) with
      | f -> Ok f
      | exception e -> Error e
    in
    Mutex.lock lock;
    (match built_f with
    | Ok f ->
        built.(g).(k) <- Some f;
        if Array.for_all Option.is_some built.(g) then
          ctx.(g) <- Some (setups.(g).finish (Array.map Option.get built.(g)))
    | Error e ->
        (* The group can never become ready, so none of its jobs was
           claimed: claim them all as failed. *)
        if not failed.(g) then begin
          failed.(g) <- true;
          Array.iter (fun c -> claimed.(c) <- true) groups.(g);
          remaining := !remaining - Array.length groups.(g);
          park pending.(groups.(g).(0)) e
        end);
    Condition.broadcast cond;
    Mutex.unlock lock
  in
  let job_one c x =
    let i = pending.(c) in
    let job = jobs.(i) in
    let outcome =
      match
        let record, response =
          run_job x job regs.(c) ~inner ~warm_start:config.warm_start ~precond:config.precond
        in
        (* Journal-ahead: the record is on disk (atomically) before it
           can reach the stream, so --resume never misses an emitted
           record.  Registry serializes its own writes. *)
        Registry.record registry job record;
        { job; record; response }
      with
      | r -> Ok r
      (* The st route factors its testing points inside the job too. *)
      | exception Linalg.Sparse_cholesky.Not_positive_definite _ ->
          Error (Invalid_batch (not_pd job))
      | exception e -> Error e
    in
    Mutex.lock lock;
    (match outcome with
    | Ok r ->
        out.(i) <- Some r;
        done_.(i) <- true
    | Error e -> park i e);
    decr remaining;
    Condition.broadcast cond;
    Mutex.unlock lock
  in
  let perform = function
    | Factor t -> factor_one t
    | Run (c, x) -> job_one c x
    | Wait | Finished -> ()
  in
  let next_emit = ref 0 in
  let drain_ready () =
    match emit with
    | None -> ()
    | Some emit when !emit_failure = None ->
        let ready = ref [] in
        Mutex.lock lock;
        while !next_emit < njobs && done_.(!next_emit) do
          ready := Option.get out.(!next_emit) :: !ready;
          incr next_emit
        done;
        Mutex.unlock lock;
        (* The callback runs unlocked: it may flush to a pipe, block on a
           slow consumer, or raise — none of which may stall workers. *)
        List.iter
          (fun r ->
            if !emit_failure = None then
              match emit r with
              | () -> ()
              | exception e ->
                  emit_failure := Some e;
                  Atomic.set stop true;
                  (* wake domains waiting for a group to become ready *)
                  Mutex.lock lock;
                  Condition.broadcast cond;
                  Mutex.unlock lock)
          (List.rev !ready)
    | Some _ -> ()
  in
  let rec worker_loop () =
    Mutex.lock lock;
    let rec next () =
      match claim () with
      | Wait ->
          Condition.wait cond lock;
          next ()
      | c -> c
    in
    let c = next () in
    Mutex.unlock lock;
    match c with
    | Finished -> ()
    | c ->
        perform c;
        worker_loop ()
  in
  let workers = Array.init (jp - 1) (fun _ -> Domain.spawn worker_loop) in
  (* The main domain emits between tasks, and while it waits. *)
  let rec main_loop () =
    drain_ready ();
    Mutex.lock lock;
    let c = claim () in
    (match c with Wait -> Condition.wait cond lock | _ -> ());
    Mutex.unlock lock;
    match c with
    | Finished -> ()
    | c ->
        perform c;
        main_loop ()
  in
  main_loop ();
  (* Emit stragglers as their prefixes complete; on an emit failure the
     sink is dead, so just drain the in-flight tasks via the joins. *)
  Mutex.lock lock;
  while !remaining > 0 && !emit_failure = None do
    Condition.wait cond lock;
    Mutex.unlock lock;
    drain_ready ();
    Mutex.lock lock
  done;
  Mutex.unlock lock;
  Array.iter Domain.join workers;
  drain_ready ();
  Array.iter (fun reg -> Util.Metrics.merge_into reg ~into:metrics) tregs;
  Array.iter (fun reg -> Util.Metrics.merge_into reg ~into:metrics) regs;
  let factorizations = Atomic.get factorizations in
  if factorizations > 0 then Util.Metrics.incr metrics ~by:factorizations "engine.factorizations";
  let rstats = Registry.stats registry in
  Util.Metrics.incr metrics ~by:rstats.Registry.replayed "registry.replays";
  Util.Metrics.incr metrics ~by:rstats.Registry.journaled "registry.writes";
  Util.Metrics.incr metrics ~by:rstats.Registry.corrupt "registry.corrupt";
  (match !job_failure with Some (_, e) -> raise e | None -> ());
  (match !emit_failure with Some e -> raise e | None -> ());
  let results = Array.map Option.get out in
  let st = Store.stats store in
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
    (if s.replayed > 0 then Printf.sprintf ", %d replayed" s.replayed else "")
    s.elapsed_seconds
