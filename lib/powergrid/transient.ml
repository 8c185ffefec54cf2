type scheme = Backward_euler | Trapezoidal

type config = { h : float; steps : int; scheme : scheme; ordering : Linalg.Ordering.kind }

let default_config ~h ~steps =
  { h; steps; scheme = Backward_euler; ordering = Linalg.Ordering.Nested_dissection }

let run cfg ~g ~c ~inject ~x0 ~on_step =
  if cfg.h <= 0.0 then invalid_arg "Transient.run: step must be positive";
  if cfg.steps < 0 then invalid_arg "Transient.run: negative step count";
  let n, _ = Linalg.Sparse.dims g in
  if Array.length x0 <> n then invalid_arg "Transient.run: x0 dimension mismatch";
  let x = Array.copy x0 in
  let u = Linalg.Vec.create n in
  let rhs = Linalg.Vec.create n in
  let work = Linalg.Vec.create n in
  let metrics = Util.Metrics.global in
  (match cfg.scheme with
  | Backward_euler ->
      (* (G + C/h) x_{k+1} = u(t_{k+1}) + (C/h) x_k *)
      let m = Linalg.Sparse.axpy ~alpha:(1.0 /. cfg.h) c g in
      let f =
        Util.Metrics.span metrics "transient.factor_s" (fun () ->
            Linalg.Sparse_cholesky.factor ~ordering:cfg.ordering m)
      in
      for k = 1 to cfg.steps do
        let t = float_of_int k *. cfg.h in
        let span = Util.Metrics.start_span () in
        inject t u;
        Array.blit u 0 rhs 0 n;
        Linalg.Sparse.mul_vec_acc ~alpha:(1.0 /. cfg.h) c x rhs;
        Linalg.Sparse_cholesky.solve_in_place_ws f ~work rhs;
        Array.blit rhs 0 x 0 n;
        ignore (Util.Metrics.stop_span metrics "transient.step_s" span);
        on_step k t x
      done
  | Trapezoidal ->
      (* (C/h + G/2) x_{k+1} = (C/h - G/2) x_k + (u_k + u_{k+1}) / 2 *)
      let m = Linalg.Sparse.axpy ~alpha:(2.0 /. cfg.h) c g in
      (* factor G + 2C/h, i.e. 2 * (C/h + G/2); scale RHS accordingly *)
      let f =
        Util.Metrics.span metrics "transient.factor_s" (fun () ->
            Linalg.Sparse_cholesky.factor ~ordering:cfg.ordering m)
      in
      let u_prev = Linalg.Vec.create n in
      inject 0.0 u_prev;
      for k = 1 to cfg.steps do
        let t = float_of_int k *. cfg.h in
        let span = Util.Metrics.start_span () in
        inject t u;
        for i = 0 to n - 1 do
          rhs.(i) <- u.(i) +. u_prev.(i)
        done;
        Linalg.Sparse.mul_vec_acc ~alpha:(2.0 /. cfg.h) c x rhs;
        Linalg.Sparse.mul_vec_acc ~alpha:(-1.0) g x rhs;
        Linalg.Sparse_cholesky.solve_in_place_ws f ~work rhs;
        Array.blit rhs 0 x 0 n;
        Array.blit u 0 u_prev 0 n;
        ignore (Util.Metrics.stop_span metrics "transient.step_s" span);
        on_step k t x
      done);
  ignore x

let run_full cfg (sys : Mna.Full.system) ~on_step =
  if cfg.h <= 0.0 then invalid_arg "Transient.run_full: step must be positive";
  let dim = sys.Mna.Full.dim in
  (* DC start: inductors are shorts, capacitors open — solve A x = u(0). *)
  let metrics = Util.Metrics.global in
  let fdc =
    Util.Metrics.span metrics "transient.factor_s" (fun () ->
        Linalg.Sparse_lu.factor ~ordering:cfg.ordering sys.Mna.Full.a)
  in
  let x = Linalg.Sparse_lu.solve fdc (sys.Mna.Full.rhs 0.0) in
  let m = Linalg.Sparse.axpy ~alpha:(1.0 /. cfg.h) sys.Mna.Full.c sys.Mna.Full.a in
  let f =
    Util.Metrics.span metrics "transient.factor_s" (fun () ->
        Linalg.Sparse_lu.factor ~ordering:cfg.ordering m)
  in
  let cx = Linalg.Vec.create dim in
  (* Node-view buffer reused across steps: on_step receives the node
     voltages (MNA state minus branch currents) without a per-step
     Array.sub allocation.  Callers must copy if they retain it. *)
  let node_view = Linalg.Vec.create sys.Mna.Full.nodes in
  for k = 1 to cfg.steps do
    let t = float_of_int k *. cfg.h in
    let span = Util.Metrics.start_span () in
    let u = sys.Mna.Full.rhs t in
    Linalg.Sparse.mul_vec_into sys.Mna.Full.c x cx;
    for i = 0 to dim - 1 do
      x.(i) <- u.(i) +. (cx.(i) /. cfg.h)
    done;
    Linalg.Sparse_lu.solve_in_place f x;
    ignore (Util.Metrics.stop_span metrics "transient.step_s" span);
    Array.blit x 0 node_view 0 sys.Mna.Full.nodes;
    on_step k t node_view
  done

let run_circuit cfg (a : Mna.t) ~on_step =
  let g = Mna.g_total a and c = Mna.c_total a in
  let x0 =
    let f = Linalg.Sparse_cholesky.factor ~ordering:cfg.ordering g in
    Linalg.Sparse_cholesky.solve f (Mna.inject a 0.0)
  in
  run cfg ~g ~c ~inject:(fun t u -> Mna.inject_into a t u) ~x0 ~on_step
