type preconditioner = Vec.t -> Vec.t

type stats = { iterations : int; residual_norm : float; converged : bool }

let identity_preconditioner r = Array.copy r

let jacobi a =
  let d = Sparse.diag a in
  Array.iteri
    (fun i v ->
      if Util.Floats.equal_exact v 0.0 then
        invalid_arg (Printf.sprintf "Cg.jacobi: zero diagonal at %d" i))
    d;
  let inv = Array.map (fun v -> 1.0 /. v) d in
  fun r -> Vec.mul_elementwise inv r

(* IC(0): incomplete Cholesky restricted to the lower-triangular pattern of A. *)
type ic0_factor = {
  ic_n : int;
  ic_colptr : int array;
  ic_rowind : int array;
  ic_lx : float array;
}

let ic0_factorize a =
  let n, m = Sparse.dims a in
  if n <> m then invalid_arg "Cg.ic0: matrix is not square";
  let l = Sparse.lower a in
  let { Sparse.colptr; rowind; values; _ } = l in
  let lx = Array.copy values in
  (* Left-looking IC(0): for each column j, subtract contributions of all
     previous columns k with l(j,k) != 0, restricted to the pattern. *)
  (* Build row-wise access to the lower pattern for the update loop. *)
  let lt = Sparse.transpose l in
  (* lt columns = rows of l *)
  let find_in_col j i =
    (* position of entry (i, j) in l's column j, or -1 *)
    let lo = ref colptr.(j) and hi = ref (colptr.(j + 1) - 1) in
    let res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if rowind.(mid) = i then begin
        res := mid;
        lo := !hi + 1
      end
      else if rowind.(mid) < i then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  in
  for j = 0 to n - 1 do
    (* Subtract sum_k<j l(j,k) * l(i,k) for entries (i,j) in the pattern. *)
    let { Sparse.colptr = tp; rowind = ti; _ } = lt in
    for q = tp.(j) to tp.(j + 1) - 1 do
      let k = ti.(q) in
      (* l(j,k) structural; k ranges over the row pattern of row j *)
      if k < j then begin
        let pjk = find_in_col k j in
        let ljk = if pjk >= 0 then lx.(pjk) else 0.0 in
        if not (Util.Floats.equal_exact ljk 0.0) then
          (* for each i >= j with (i,k) and (i,j) in pattern *)
          for p = colptr.(k) to colptr.(k + 1) - 1 do
            let i = rowind.(p) in
            if i >= j then begin
              let pij = find_in_col j i in
              if pij >= 0 then lx.(pij) <- lx.(pij) -. (ljk *. lx.(p))
            end
          done
      end
    done;
    let pjj = find_in_col j j in
    if pjj < 0 || lx.(pjj) <= 0.0 then failwith "Cg.ic0: pivot breakdown";
    let d = sqrt lx.(pjj) in
    lx.(pjj) <- d;
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      if rowind.(p) > j then lx.(p) <- lx.(p) /. d
    done
  done;
  { ic_n = n; ic_colptr = colptr; ic_rowind = rowind; ic_lx = lx }

let ic0_dim f = f.ic_n

let ic0_nnz f = Array.length f.ic_lx

(* In-place L L^T solve on the incomplete factor: the allocation-free
   apply behind both the closure form below and the mean-block
   preconditioner's ic0 backend. *)
let[@opera.hot] ic0_solve_in_place f (y : Vec.t) =
  let n = f.ic_n in
  if Array.length y <> n then invalid_arg "Cg.ic0_solve_in_place: dimension mismatch";
  let colptr = f.ic_colptr and rowind = f.ic_rowind and lx = f.ic_lx in
  (* Forward solve L y = r; columns sorted so diagonal is first. *)
  for j = 0 to n - 1 do
    let pjj = colptr.(j) in
    let yj = y.(j) /. lx.(pjj) in
    y.(j) <- yj;
    for p = pjj + 1 to colptr.(j + 1) - 1 do
      y.(rowind.(p)) <- y.(rowind.(p)) -. (lx.(p) *. yj)
    done
  done;
  (* Back solve L^T z = y. *)
  for j = n - 1 downto 0 do
    let pjj = colptr.(j) in
    let acc = ref y.(j) in
    for p = pjj + 1 to colptr.(j + 1) - 1 do
      acc := !acc -. (lx.(p) *. y.(rowind.(p)))
    done;
    y.(j) <- !acc /. lx.(pjj)
  done

let ic0 a =
  let f = ic0_factorize a in
  fun r ->
    let y = Array.copy r in
    ic0_solve_in_place f y;
    y

(* Bounded ring buffer of residual norms: keeps the [cap] most recent
   observations and lists them oldest-first. *)
type history = { cap : int; data : float array; mutable next : int; mutable count : int }

let history_create cap = { cap; data = Array.make (Int.max cap 1) 0.0; next = 0; count = 0 }

let history_push h v =
  if h.cap > 0 then begin
    h.data.(h.next) <- v;
    h.next <- (h.next + 1) mod h.cap;
    h.count <- Int.min (h.count + 1) h.cap
  end

let history_to_array h =
  if h.cap = 0 || h.count = 0 then [||]
  else
    let start = if h.count < h.cap then 0 else h.next in
    Array.init h.count (fun i -> h.data.((start + i) mod h.cap))

type workspace = { ws_r : Vec.t; ws_p : Vec.t }

let workspace_create n = { ws_r = Vec.create n; ws_p = Vec.create n }

let workspace_dim ws = Array.length ws.ws_r

(* Allocation-free PCG: the caller owns the solution buffer [x] (initial
   guess on entry, solution on exit) and the residual/direction scratch
   [ws], so a transient loop running 50+ solves per run allocates
   nothing per step.  [matvec] and [precond] may return shared internal
   buffers, valid until their next call — both are consumed immediately.
   The iteration is operation-for-operation the one in {!solve_report},
   so the two produce bitwise-identical solutions and reports. *)
let[@opera.hot] solve_report_in_place ?(precond = identity_preconditioner) ?max_iter ?(tol = 1e-10)
    ?(history_cap = 0) ~ws ~matvec ~b ~x () =
  let t0 = Util.Timer.start () in
  let n = Array.length b in
  if Array.length x <> n then invalid_arg "Cg.solve_report_in_place: x/b dimension mismatch";
  if workspace_dim ws <> n then
    invalid_arg "Cg.solve_report_in_place: workspace dimension mismatch";
  let bnorm = Vec.norm2 b in
  if Util.Floats.equal_exact bnorm 0.0 then begin
    (* The exact solution of an SPD system with a zero right-hand side is
       zero: return it outright instead of iterating against a zero
       target (which could never be met from a nonzero initial guess). *)
    Vec.fill x 0.0;
    Solve_report.make ~solver:"cg" ~iterations:0 ~residual_norm:0.0 ~rhs_norm:0.0 ~tol
      ~converged:true ~wall_seconds:(Util.Timer.elapsed_s t0) ()
  end
  else begin
    let max_iter = match max_iter with Some m -> m | None -> Int.max 100 (10 * n) in
    let r = ws.ws_r and p = ws.ws_p in
    let ax = matvec x in
    for i = 0 to n - 1 do
      r.(i) <- b.(i) -. ax.(i)
    done;
    let target = tol *. bnorm in
    let z = precond r in
    Array.blit z 0 p 0 n;
    let rz = ref (Vec.dot r z) in
    let iter = ref 0 in
    let rnorm = ref (Vec.norm2 r) in
    let hist = history_create history_cap in
    history_push hist !rnorm;
    while !rnorm > target && !iter < max_iter do
      incr iter;
      let ap = matvec p in
      let alpha = !rz /. Vec.dot p ap in
      Vec.axpy ~alpha p x;
      Vec.axpy ~alpha:(-.alpha) ap r;
      rnorm := Vec.norm2 r;
      history_push hist !rnorm;
      if !rnorm > target then begin
        let z = precond r in
        let rz' = Vec.dot r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to n - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done
      end
    done;
    Solve_report.make ~solver:"cg" ~iterations:!iter ~residual_norm:!rnorm ~rhs_norm:bnorm
      ~tol ~converged:(!rnorm <= target) ~wall_seconds:(Util.Timer.elapsed_s t0)
      ~residual_history:(history_to_array hist) ()
  end

let solve_report ?precond ?max_iter ?tol ?history_cap ~matvec ~b ~x0 () =
  let x = Array.copy x0 in
  let ws = workspace_create (Array.length b) in
  let report =
    solve_report_in_place ?precond ?max_iter ?tol ?history_cap ~ws ~matvec ~b ~x ()
  in
  (x, report)

let stats_of_report (r : Solve_report.t) =
  {
    iterations = r.Solve_report.iterations;
    residual_norm = r.Solve_report.residual_norm;
    converged = r.Solve_report.converged;
  }

let solve ?precond ?max_iter ?tol ~matvec ~b ~x0 () =
  let x, report = solve_report ?precond ?max_iter ?tol ~matvec ~b ~x0 () in
  (x, stats_of_report report)

let solve_sparse ?precond ?max_iter ?tol a b =
  let n, m = Sparse.dims a in
  if n <> m then invalid_arg "Cg.solve_sparse: matrix is not square";
  solve ?precond ?max_iter ?tol ~matvec:(Sparse.mul_vec a) ~b ~x0:(Vec.create n) ()
