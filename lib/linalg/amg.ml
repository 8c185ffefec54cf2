(* Smoothed-aggregation AMG, structured as a first-class preconditioner.

   The hierarchy is built once (greedy aggregation, a Jacobi-smoothed
   prolongator P = (I - w D^-1 A) P0 over the piecewise-constant
   aggregate map P0, truncated row by row, Galerkin coarse operators
   P^T A P — all sequential and deterministic) and then applied as a
   fixed number of V(1,1)-cycles with weighted-Jacobi smoothing and a
   dense direct solve at the coarsest level.  The one apply path,
   {!apply_block}, serves k columns per pass and is allocation-free:
   every level's solution / rhs / residual scratch lives in a
   caller-owned {!block_ws}, so block-parallel users (the mean-block
   preconditioner, the ST point solves) give each column chunk its own
   workspace and the per-column arithmetic is bitwise-identical at any
   domain count — one application is a purely sequential pass over the
   hierarchy.  A single vector is the one-column block.

   Level storage is Bigarray-backed ({!Util.Codec.fsection} /
   {!Util.Codec.isection}) so a hierarchy decoded from a v2 artifact
   can keep zero-copy [Unix.map_file] views of the file: a warm
   million-node setup replays without decoding its gigabytes. *)

type fvec = Util.Codec.fsection
type ivec = Util.Codec.isection

type plevel = {
  pn : int;  (* unknowns on this level *)
  pcoarse : int;  (* aggregates = unknowns one level down *)
  pcol : ivec;  (* CSC colptr, [pn + 1] *)
  prow : ivec;  (* CSC rowind *)
  pval : fvec;  (* CSC values *)
  pdiag : fvec;  (* 1 / diag, zeros masked to 0 *)
  qcol : ivec;  (* prolongator P (pn x pcoarse) CSC colptr, [pcoarse + 1] *)
  qrow : ivec;  (* P rowind *)
  qval : fvec;  (* P values *)
}

type t = {
  pls : plevel array;  (* finest first *)
  coarse_dim : int;
  coarse_l : float array;  (* dense lower factor, row-major coarse_dim^2 *)
  coarse_csc : Sparse.t;  (* coarsest operator, kept for (re-)encoding *)
  ncycles : int;
  nfine : int;
}

let omega = 2.0 /. 3.0

(* ---- deterministic greedy aggregation -------------------------------- *)

(* Each unaggregated node grabs its unaggregated neighbors (in column
   order); leftovers join the strongest neighboring aggregate.  Purely
   sequential — the aggregate map is a function of the matrix alone. *)
let aggregate a =
  let n, _ = Sparse.dims a in
  let { Sparse.colptr; rowind; values; _ } = a in
  let agg = Array.make n (-1) in
  let next = ref 0 in
  for j = 0 to n - 1 do
    if agg.(j) < 0 then begin
      let members = ref [ j ] in
      for k = colptr.(j) to colptr.(j + 1) - 1 do
        let i = rowind.(k) in
        if i <> j && agg.(i) < 0 then members := i :: !members
      done;
      if List.length !members > 1 || colptr.(j + 1) - colptr.(j) <= 1 then begin
        List.iter (fun v -> agg.(v) <- !next) !members;
        incr next
      end
    end
  done;
  for j = 0 to n - 1 do
    if agg.(j) < 0 then begin
      let best = ref (-1) and best_w = ref 0.0 in
      for k = colptr.(j) to colptr.(j + 1) - 1 do
        let i = rowind.(k) in
        if i <> j && agg.(i) >= 0 then begin
          let w = Float.abs values.(k) in
          if w > !best_w then begin
            best_w := w;
            best := agg.(i)
          end
        end
      done;
      if !best >= 0 then agg.(j) <- !best
      else begin
        agg.(j) <- !next;
        incr next
      end
    end
  done;
  (agg, !next)

(* ---- smoothed prolongator and Galerkin product -------------------------- *)

let power_iterations = 10

(* Largest eigenvalue of D^-1 A by ten power iterations from a fixed,
   sign-mixed start vector (an integer hash of the index, so the
   estimate is a function of the matrix alone).  Power iteration
   approaches rho from below, which is the side the 4/3 weight
   tolerates; a Gershgorin bound overestimates rho and under-smooths. *)
let spectral_radius_dinv a inv_diag =
  let n, _ = Sparse.dims a in
  let v = Array.init n (fun i -> float_of_int (((i + 1) * 2654435761) land 0xffff) -. 32768.0) in
  let w = Array.make n 0.0 in
  let rho = ref 0.0 in
  let nv = Vec.norm2 v in
  if nv > 0.0 then Vec.scale (1.0 /. nv) v;
  for _ = 1 to power_iterations do
    Sparse.mul_vec_into a v w;
    for i = 0 to n - 1 do
      w.(i) <- w.(i) *. inv_diag.(i)
    done;
    let nw = Vec.norm2 w in
    rho := nw;
    if nw > 0.0 then
      for i = 0 to n - 1 do
        v.(i) <- w.(i) /. nw
      done
  done;
  !rho

(* Insertion sort of one column's row indices [lo, hi): columns hold a
   few dozen entries, and CSC wants them strictly increasing. *)
let sort_rows (rows : int array) lo hi =
  for k = lo + 1 to hi - 1 do
    let i = rows.(k) in
    let p = ref k in
    while !p > lo && rows.(!p - 1) > i do
      rows.(!p) <- rows.(!p - 1);
      decr p
    done;
    rows.(!p) <- i
  done

(* Members of each aggregate, ascending: aggregate c owns
   [mem.(start.(c)) .. mem.(start.(c + 1) - 1)]. *)
let members agg nc =
  let start = Array.make (nc + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) agg;
  for c = 1 to nc do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let next = Array.sub start 0 nc in
  let mem = Array.make (Array.length agg) 0 in
  Array.iteri
    (fun i c ->
      mem.(next.(c)) <- i;
      next.(c) <- next.(c) + 1)
    agg;
  (start, mem)

(* Truncation threshold of the smoothed prolongator, relative to the
   largest entry of the row (the classical AMG interpolation-truncation
   factor). *)
let truncation = 0.2

(* P = (I - w D^-1 A) P0 with w = 4 / (3 rho(D^-1 A)), column by column:
   column c of A P0 is the sum of A's columns over aggregate c, gathered
   in a dense accumulator.  Every A entry opens at most one slot of P
   and every node one more, so nnz(A) + n bounds the storage.

   Smoothing widens each column by one stencil ring, and P^T A P by two;
   on grids that aggregate only ~2 nodes per aggregate the first coarse
   operator would outgrow the fine one.  So each row then drops the
   entries below [truncation] times its largest (never the entry of its
   own aggregate) and rescales the kept positive and negative entries
   to their row's original positive and negative sums, so P 1 — the
   smoothed constant vector — is unchanged. *)
let smoothed_prolongator a inv_diag agg nc =
  let n, _ = Sparse.dims a in
  let { Sparse.colptr; rowind; values; _ } = a in
  let rho = spectral_radius_dinv a inv_diag in
  let w = if rho > 0.0 then 4.0 /. (3.0 *. rho) else 0.0 in
  let start, mem = members agg nc in
  let cap = Sparse.nnz a + n in
  let prow = Array.make cap 0 and pval = Array.make cap 0.0 in
  let pcol = Array.make (nc + 1) 0 in
  let acc = Array.make n 0.0 and mark = Array.make n (-1) in
  let nz = ref 0 in
  let touch c i =
    if mark.(i) <> c then begin
      mark.(i) <- c;
      acc.(i) <- 0.0;
      prow.(!nz) <- i;
      incr nz
    end
  in
  for c = 0 to nc - 1 do
    let lo = !nz in
    for m = start.(c) to start.(c + 1) - 1 do
      let j = mem.(m) in
      touch c j;
      for k = colptr.(j) to colptr.(j + 1) - 1 do
        let i = rowind.(k) in
        touch c i;
        acc.(i) <- acc.(i) +. values.(k)
      done
    done;
    sort_rows prow lo !nz;
    for k = lo to !nz - 1 do
      let i = prow.(k) in
      let p0 = if agg.(i) = c then 1.0 else 0.0 in
      pval.(k) <- p0 -. (w *. inv_diag.(i) *. acc.(i))
    done;
    pcol.(c + 1) <- !nz
  done;
  (* Row statistics: largest magnitude, positive and negative sums, then
     the same sums over the entries that survive. *)
  let rmax = Array.make n 0.0 and pos = Array.make n 0.0 and neg = Array.make n 0.0 in
  for k = 0 to !nz - 1 do
    let i = prow.(k) and v = pval.(k) in
    rmax.(i) <- Float.max rmax.(i) (Float.abs v);
    if v > 0.0 then pos.(i) <- pos.(i) +. v else neg.(i) <- neg.(i) +. v
  done;
  let kpos = Array.make n 0.0 and kneg = Array.make n 0.0 in
  let kept = ref 0 and lo = ref 0 in
  for c = 0 to nc - 1 do
    let hi = pcol.(c + 1) in
    for k = !lo to hi - 1 do
      let i = prow.(k) and v = pval.(k) in
      if agg.(i) = c || Float.abs v >= truncation *. rmax.(i) then begin
        prow.(!kept) <- i;
        pval.(!kept) <- v;
        if v > 0.0 then kpos.(i) <- kpos.(i) +. v else kneg.(i) <- kneg.(i) +. v;
        incr kept
      end
    done;
    lo := hi;
    pcol.(c + 1) <- !kept
  done;
  for k = 0 to !kept - 1 do
    let i = prow.(k) and v = pval.(k) in
    if v > 0.0 then pval.(k) <- v *. (pos.(i) /. kpos.(i))
    else if v < 0.0 then pval.(k) <- v *. (neg.(i) /. kneg.(i))
  done;
  Sparse.create ~nrows:n ~ncols:nc ~colptr:pcol ~rowind:(Array.sub prow 0 !kept)
    ~values:(Array.sub pval 0 !kept)

(* Coarse operator P^T A P, one coarse column at a time: y = A P(:,c)
   gathers on the fine level, then P^T y scatters through the rows of P
   (the columns of its transpose) into a coarse accumulator.  Neither
   A P nor any triplet list is materialized; the output arrays grow by
   doubling.  The traversal order is fixed, so the sums are a function
   of (A, P) alone. *)
let galerkin_product a p =
  let n, nc = Sparse.dims p in
  let pt = Sparse.transpose p in
  let facc = Array.make n 0.0 and fmark = Array.make n (-1) and frows = Array.make n 0 in
  let cacc = Array.make nc 0.0 and cmark = Array.make nc (-1) in
  let cap = ref (Int.max 16 (2 * Sparse.nnz p)) in
  let rows = ref (Array.make !cap 0) and vals = ref (Array.make !cap 0.0) in
  let colptr = Array.make (nc + 1) 0 in
  let nz = ref 0 in
  for c = 0 to nc - 1 do
    let nf = ref 0 in
    for kp = p.Sparse.colptr.(c) to p.Sparse.colptr.(c + 1) - 1 do
      let j = p.Sparse.rowind.(kp) and pj = p.Sparse.values.(kp) in
      for k = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
        let i = a.Sparse.rowind.(k) in
        if fmark.(i) <> c then begin
          fmark.(i) <- c;
          facc.(i) <- 0.0;
          frows.(!nf) <- i;
          incr nf
        end;
        facc.(i) <- facc.(i) +. (a.Sparse.values.(k) *. pj)
      done
    done;
    let lo = !nz in
    for t = 0 to !nf - 1 do
      let i = frows.(t) in
      let yi = facc.(i) in
      for k = pt.Sparse.colptr.(i) to pt.Sparse.colptr.(i + 1) - 1 do
        let q = pt.Sparse.rowind.(k) in
        if cmark.(q) <> c then begin
          cmark.(q) <- c;
          cacc.(q) <- 0.0;
          if !nz = !cap then begin
            cap := 2 * !cap;
            let r' = Array.make !cap 0 and v' = Array.make !cap 0.0 in
            Array.blit !rows 0 r' 0 !nz;
            Array.blit !vals 0 v' 0 !nz;
            rows := r';
            vals := v'
          end;
          !rows.(!nz) <- q;
          incr nz
        end;
        cacc.(q) <- cacc.(q) +. (pt.Sparse.values.(k) *. yi)
      done
    done;
    let r = !rows and v = !vals in
    sort_rows r lo !nz;
    for k = lo to !nz - 1 do
      v.(k) <- cacc.(r.(k))
    done;
    colptr.(c + 1) <- !nz
  done;
  Sparse.create ~nrows:nc ~ncols:nc ~colptr ~rowind:(Array.sub !rows 0 !nz)
    ~values:(Array.sub !vals 0 !nz)

(* ---- build ------------------------------------------------------------ *)

let ivec_of_array a =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

let fvec_of_array a =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

let inverse_diag a =
  Array.map (fun d -> if Util.Floats.equal_exact d 0.0 then 0.0 else 1.0 /. d) (Sparse.diag a)

let plevel_of_sparse a inv_diag p =
  let n, _ = Sparse.dims a in
  {
    pn = n;
    pcoarse = snd (Sparse.dims p);
    pcol = ivec_of_array a.Sparse.colptr;
    prow = ivec_of_array a.Sparse.rowind;
    pval = fvec_of_array a.Sparse.values;
    pdiag = fvec_of_array inv_diag;
    qcol = ivec_of_array p.Sparse.colptr;
    qrow = ivec_of_array p.Sparse.rowind;
    qval = fvec_of_array p.Sparse.values;
  }

(* Flat row-major lower Cholesky factor of the coarsest operator — the
   direct bottom solve, extracted once so applying it allocates
   nothing. *)
let coarse_factor csc =
  let cn, _ = Sparse.dims csc in
  let f = Cholesky.factor (Sparse.to_dense csc) in
  let l = Cholesky.lower f in
  Array.init (cn * cn) (fun idx -> Dense.get l (idx / cn) (idx mod cn))

let build ?(cycles = 1) ?(max_levels = 10) ?(coarsest = 64) a0 =
  let n0, m0 = Sparse.dims a0 in
  if n0 <> m0 then invalid_arg "Amg.build: matrix is not square";
  if cycles < 1 then invalid_arg "Amg.build: cycle count must be positive";
  let rec go a depth levels =
    let n, _ = Sparse.dims a in
    if n <= coarsest || depth >= max_levels then (List.rev levels, a)
    else begin
      let agg, coarse_n = aggregate a in
      if coarse_n >= n then (List.rev levels, a) (* aggregation stalled *)
      else begin
        let inv_diag = inverse_diag a in
        let p = smoothed_prolongator a inv_diag agg coarse_n in
        go (galerkin_product a p) (depth + 1) (plevel_of_sparse a inv_diag p :: levels)
      end
    end
  in
  let levels, bottom = go a0 0 [] in
  let coarse_dim, _ = Sparse.dims bottom in
  {
    pls = Array.of_list levels;
    coarse_dim;
    coarse_l = coarse_factor bottom;
    coarse_csc = bottom;
    ncycles = cycles;
    nfine = n0;
  }

let dim t = t.nfine

let cycles t = t.ncycles

let stored_nnz t =
  Array.fold_left
    (fun acc pl -> acc + Bigarray.Array1.dim pl.prow + Bigarray.Array1.dim pl.qrow)
    0 t.pls
  + (t.coarse_dim * t.coarse_dim)

let levels t = Array.length t.pls + 1

let level_dims t =
  Array.to_list (Array.map (fun pl -> pl.pn) t.pls) @ [ t.coarse_dim ]

(* ---- width-1 V-cycle kernels ------------------------------------------- *)

(* r <- b - A x over the level's CSC (A symmetric, columns = rows). *)
let[@opera.hot] residual_into pl ~b ~x ~r =
  let n = pl.pn in
  Array.blit b 0 r 0 n;
  for j = 0 to n - 1 do
    let xj = x.(j) in
    if not (Util.Floats.equal_exact xj 0.0) then begin
      let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
      let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
      for k = k0 to k1 - 1 do
        let i = Bigarray.Array1.unsafe_get pl.prow k in
        r.(i) <- r.(i) -. (Bigarray.Array1.unsafe_get pl.pval k *. xj)
      done
    end
  done

(* rc <- P^T r: one dot product per column of P. *)
let[@opera.hot] restrict_into pl ~r ~rc =
  for c = 0 to pl.pcoarse - 1 do
    let s = ref 0.0 in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for k = k0 to k1 - 1 do
      let i = Bigarray.Array1.unsafe_get pl.qrow k in
      s := !s +. (Bigarray.Array1.unsafe_get pl.qval k *. r.(i))
    done;
    rc.(c) <- !s
  done

(* x <- x + P xc (inject the coarse correction). *)
let[@opera.hot] prolong_add pl ~xc ~x =
  for c = 0 to pl.pcoarse - 1 do
    let v = xc.(c) in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for k = k0 to k1 - 1 do
      let i = Bigarray.Array1.unsafe_get pl.qrow k in
      x.(i) <- x.(i) +. (Bigarray.Array1.unsafe_get pl.qval k *. v)
    done
  done

(* ---- multi-vector V-cycle ----------------------------------------------

   [apply_block] runs the same V(1,1)-cycles on k right-hand sides in
   panels of up to [panel] columns.  Inside a panel of width [w] every
   level keeps its vectors node-major — entry (i, c) at [i * w + c] —
   so each entry of a level operator or prolongator, loaded once,
   updates [w] adjacent slots.  The residual, restriction and
   prolongation are unrolled for widths 6, 4, 3 and 2 with one float
   register per column (a generic loop over the width measured slower
   than one-column applies); width 1 is the single-vector kernels
   above.  Per column every kernel performs the width-1 kernel's
   operations in the same order, the residual's exact-zero skip
   included, so each column equals the one-column apply bit for bit. *)

let panel = 6

type block_ws = {
  bk : int;  (* widest block this workspace serves *)
  kx : float array array;  (* per-level solution, node-major [pn * panel] *)
  kb : float array array;  (* per-level rhs *)
  kr : float array array;  (* per-level residual *)
  kc : float array;  (* coarse rhs / solution, [coarse_dim * panel] *)
}

let create_block_ws t ~k =
  let k = Int.max k 1 in
  let w = Int.min k panel in
  let level l = Array.make (t.pls.(l).pn * w) 0.0 in
  let nl = Array.length t.pls in
  {
    bk = k;
    kx = Array.init nl level;
    kb = Array.init nl level;
    kr = Array.init nl level;
    kc = Array.make (t.coarse_dim * w) 0.0;
  }

(* Column [j] of the residual, one panel column at a time with the
   exact-zero skip: the fallback when a panel's [x_j] has a zero. *)
let[@opera.hot] residual_column pl ~w ~x ~r j =
  let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
  let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
  for c = 0 to w - 1 do
    let xj = x.((j * w) + c) in
    if not (Util.Floats.equal_exact xj 0.0) then
      for q = k0 to k1 - 1 do
        let i = (Bigarray.Array1.unsafe_get pl.prow q * w) + c in
        r.(i) <- r.(i) -. (Bigarray.Array1.unsafe_get pl.pval q *. xj)
      done
  done

let[@opera.hot] residual_p6 pl ~b ~x ~r =
  Array.blit b 0 r 0 (pl.pn * 6);
  for j = 0 to pl.pn - 1 do
    let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
    let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
    let xb = j * 6 in
    let x0 = x.(xb) in
    let x1 = x.(xb + 1) in
    let x2 = x.(xb + 2) in
    let x3 = x.(xb + 3) in
    let x4 = x.(xb + 4) in
    let x5 = x.(xb + 5) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
      && (not (Util.Floats.equal_exact x2 0.0))
      && (not (Util.Floats.equal_exact x3 0.0))
      && (not (Util.Floats.equal_exact x4 0.0))
      && (not (Util.Floats.equal_exact x5 0.0))
    then
      for q = k0 to k1 - 1 do
        let rb = Bigarray.Array1.unsafe_get pl.prow q * 6 in
        let v = Bigarray.Array1.unsafe_get pl.pval q in
        r.(rb) <- r.(rb) -. (v *. x0);
        r.(rb + 1) <- r.(rb + 1) -. (v *. x1);
        r.(rb + 2) <- r.(rb + 2) -. (v *. x2);
        r.(rb + 3) <- r.(rb + 3) -. (v *. x3);
        r.(rb + 4) <- r.(rb + 4) -. (v *. x4);
        r.(rb + 5) <- r.(rb + 5) -. (v *. x5)
      done
    else residual_column pl ~w:6 ~x ~r j
  done

let[@opera.hot] residual_p4 pl ~b ~x ~r =
  Array.blit b 0 r 0 (pl.pn * 4);
  for j = 0 to pl.pn - 1 do
    let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
    let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
    let xb = j * 4 in
    let x0 = x.(xb) in
    let x1 = x.(xb + 1) in
    let x2 = x.(xb + 2) in
    let x3 = x.(xb + 3) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
      && (not (Util.Floats.equal_exact x2 0.0))
      && (not (Util.Floats.equal_exact x3 0.0))
    then
      for q = k0 to k1 - 1 do
        let rb = Bigarray.Array1.unsafe_get pl.prow q * 4 in
        let v = Bigarray.Array1.unsafe_get pl.pval q in
        r.(rb) <- r.(rb) -. (v *. x0);
        r.(rb + 1) <- r.(rb + 1) -. (v *. x1);
        r.(rb + 2) <- r.(rb + 2) -. (v *. x2);
        r.(rb + 3) <- r.(rb + 3) -. (v *. x3)
      done
    else residual_column pl ~w:4 ~x ~r j
  done

let[@opera.hot] residual_p3 pl ~b ~x ~r =
  Array.blit b 0 r 0 (pl.pn * 3);
  for j = 0 to pl.pn - 1 do
    let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
    let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
    let xb = j * 3 in
    let x0 = x.(xb) in
    let x1 = x.(xb + 1) in
    let x2 = x.(xb + 2) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
      && (not (Util.Floats.equal_exact x2 0.0))
    then
      for q = k0 to k1 - 1 do
        let rb = Bigarray.Array1.unsafe_get pl.prow q * 3 in
        let v = Bigarray.Array1.unsafe_get pl.pval q in
        r.(rb) <- r.(rb) -. (v *. x0);
        r.(rb + 1) <- r.(rb + 1) -. (v *. x1);
        r.(rb + 2) <- r.(rb + 2) -. (v *. x2)
      done
    else residual_column pl ~w:3 ~x ~r j
  done

let[@opera.hot] residual_p2 pl ~b ~x ~r =
  Array.blit b 0 r 0 (pl.pn * 2);
  for j = 0 to pl.pn - 1 do
    let k0 = Bigarray.Array1.unsafe_get pl.pcol j in
    let k1 = Bigarray.Array1.unsafe_get pl.pcol (j + 1) in
    let xb = j * 2 in
    let x0 = x.(xb) in
    let x1 = x.(xb + 1) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
    then
      for q = k0 to k1 - 1 do
        let rb = Bigarray.Array1.unsafe_get pl.prow q * 2 in
        let v = Bigarray.Array1.unsafe_get pl.pval q in
        r.(rb) <- r.(rb) -. (v *. x0);
        r.(rb + 1) <- r.(rb + 1) -. (v *. x1)
      done
    else residual_column pl ~w:2 ~x ~r j
  done

let[@opera.hot] restrict_p6 pl ~r ~rc =
  for c = 0 to pl.pcoarse - 1 do
    let s0 = ref 0.0 in
    let s1 = ref 0.0 in
    let s2 = ref 0.0 in
    let s3 = ref 0.0 in
    let s4 = ref 0.0 in
    let s5 = ref 0.0 in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 6 in
      let v = Bigarray.Array1.unsafe_get pl.qval q in
      s0 := !s0 +. (v *. r.(ib));
      s1 := !s1 +. (v *. r.(ib + 1));
      s2 := !s2 +. (v *. r.(ib + 2));
      s3 := !s3 +. (v *. r.(ib + 3));
      s4 := !s4 +. (v *. r.(ib + 4));
      s5 := !s5 +. (v *. r.(ib + 5))
    done;
    let cb = c * 6 in
    rc.(cb) <- !s0;
    rc.(cb + 1) <- !s1;
    rc.(cb + 2) <- !s2;
    rc.(cb + 3) <- !s3;
    rc.(cb + 4) <- !s4;
    rc.(cb + 5) <- !s5
  done

let[@opera.hot] restrict_p4 pl ~r ~rc =
  for c = 0 to pl.pcoarse - 1 do
    let s0 = ref 0.0 in
    let s1 = ref 0.0 in
    let s2 = ref 0.0 in
    let s3 = ref 0.0 in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 4 in
      let v = Bigarray.Array1.unsafe_get pl.qval q in
      s0 := !s0 +. (v *. r.(ib));
      s1 := !s1 +. (v *. r.(ib + 1));
      s2 := !s2 +. (v *. r.(ib + 2));
      s3 := !s3 +. (v *. r.(ib + 3))
    done;
    let cb = c * 4 in
    rc.(cb) <- !s0;
    rc.(cb + 1) <- !s1;
    rc.(cb + 2) <- !s2;
    rc.(cb + 3) <- !s3
  done

let[@opera.hot] restrict_p3 pl ~r ~rc =
  for c = 0 to pl.pcoarse - 1 do
    let s0 = ref 0.0 in
    let s1 = ref 0.0 in
    let s2 = ref 0.0 in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 3 in
      let v = Bigarray.Array1.unsafe_get pl.qval q in
      s0 := !s0 +. (v *. r.(ib));
      s1 := !s1 +. (v *. r.(ib + 1));
      s2 := !s2 +. (v *. r.(ib + 2))
    done;
    let cb = c * 3 in
    rc.(cb) <- !s0;
    rc.(cb + 1) <- !s1;
    rc.(cb + 2) <- !s2
  done

let[@opera.hot] restrict_p2 pl ~r ~rc =
  for c = 0 to pl.pcoarse - 1 do
    let s0 = ref 0.0 in
    let s1 = ref 0.0 in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 2 in
      let v = Bigarray.Array1.unsafe_get pl.qval q in
      s0 := !s0 +. (v *. r.(ib));
      s1 := !s1 +. (v *. r.(ib + 1))
    done;
    let cb = c * 2 in
    rc.(cb) <- !s0;
    rc.(cb + 1) <- !s1
  done

let[@opera.hot] prolong_p6 pl ~xc ~x =
  for c = 0 to pl.pcoarse - 1 do
    let cb = c * 6 in
    let v0 = xc.(cb) in
    let v1 = xc.(cb + 1) in
    let v2 = xc.(cb + 2) in
    let v3 = xc.(cb + 3) in
    let v4 = xc.(cb + 4) in
    let v5 = xc.(cb + 5) in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 6 in
      let p = Bigarray.Array1.unsafe_get pl.qval q in
      x.(ib) <- x.(ib) +. (p *. v0);
      x.(ib + 1) <- x.(ib + 1) +. (p *. v1);
      x.(ib + 2) <- x.(ib + 2) +. (p *. v2);
      x.(ib + 3) <- x.(ib + 3) +. (p *. v3);
      x.(ib + 4) <- x.(ib + 4) +. (p *. v4);
      x.(ib + 5) <- x.(ib + 5) +. (p *. v5)
    done
  done

let[@opera.hot] prolong_p4 pl ~xc ~x =
  for c = 0 to pl.pcoarse - 1 do
    let cb = c * 4 in
    let v0 = xc.(cb) in
    let v1 = xc.(cb + 1) in
    let v2 = xc.(cb + 2) in
    let v3 = xc.(cb + 3) in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 4 in
      let p = Bigarray.Array1.unsafe_get pl.qval q in
      x.(ib) <- x.(ib) +. (p *. v0);
      x.(ib + 1) <- x.(ib + 1) +. (p *. v1);
      x.(ib + 2) <- x.(ib + 2) +. (p *. v2);
      x.(ib + 3) <- x.(ib + 3) +. (p *. v3)
    done
  done

let[@opera.hot] prolong_p3 pl ~xc ~x =
  for c = 0 to pl.pcoarse - 1 do
    let cb = c * 3 in
    let v0 = xc.(cb) in
    let v1 = xc.(cb + 1) in
    let v2 = xc.(cb + 2) in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 3 in
      let p = Bigarray.Array1.unsafe_get pl.qval q in
      x.(ib) <- x.(ib) +. (p *. v0);
      x.(ib + 1) <- x.(ib + 1) +. (p *. v1);
      x.(ib + 2) <- x.(ib + 2) +. (p *. v2)
    done
  done

let[@opera.hot] prolong_p2 pl ~xc ~x =
  for c = 0 to pl.pcoarse - 1 do
    let cb = c * 2 in
    let v0 = xc.(cb) in
    let v1 = xc.(cb + 1) in
    let k0 = Bigarray.Array1.unsafe_get pl.qcol c in
    let k1 = Bigarray.Array1.unsafe_get pl.qcol (c + 1) in
    for q = k0 to k1 - 1 do
      let ib = Bigarray.Array1.unsafe_get pl.qrow q * 2 in
      let p = Bigarray.Array1.unsafe_get pl.qval q in
      x.(ib) <- x.(ib) +. (p *. v0);
      x.(ib + 1) <- x.(ib + 1) +. (p *. v1)
    done
  done

let[@opera.hot] residual_panel pl ~w ~b ~x ~r =
  match w with
  | 6 -> residual_p6 pl ~b ~x ~r
  | 4 -> residual_p4 pl ~b ~x ~r
  | 3 -> residual_p3 pl ~b ~x ~r
  | 2 -> residual_p2 pl ~b ~x ~r
  | _ -> residual_into pl ~b ~x ~r

let[@opera.hot] restrict_panel pl ~w ~r ~rc =
  match w with
  | 6 -> restrict_p6 pl ~r ~rc
  | 4 -> restrict_p4 pl ~r ~rc
  | 3 -> restrict_p3 pl ~r ~rc
  | 2 -> restrict_p2 pl ~r ~rc
  | _ -> restrict_into pl ~r ~rc

let[@opera.hot] prolong_panel pl ~w ~xc ~x =
  match w with
  | 6 -> prolong_p6 pl ~xc ~x
  | 4 -> prolong_p4 pl ~xc ~x
  | 3 -> prolong_p3 pl ~xc ~x
  | 2 -> prolong_p2 pl ~xc ~x
  | _ -> prolong_add pl ~xc ~x

let[@opera.hot] smooth_from_zero_panel pl ~w ~b ~x =
  for i = 0 to pl.pn - 1 do
    let wd = omega *. Bigarray.Array1.unsafe_get pl.pdiag i in
    for s = i * w to (i * w) + w - 1 do
      x.(s) <- wd *. b.(s)
    done
  done

let[@opera.hot] smooth_correct_panel pl ~w ~r ~x =
  for i = 0 to pl.pn - 1 do
    let wd = omega *. Bigarray.Array1.unsafe_get pl.pdiag i in
    for s = i * w to (i * w) + w - 1 do
      x.(s) <- x.(s) +. (wd *. r.(s))
    done
  done

let[@opera.hot] coarse_solve_panel l cn ~w y =
  for i = 0 to cn - 1 do
    let base = i * cn and ib = i * w in
    for j = 0 to i - 1 do
      let v = l.(base + j) and jb = j * w in
      for s = 0 to w - 1 do
        y.(ib + s) <- y.(ib + s) -. (v *. y.(jb + s))
      done
    done;
    let d = l.(base + i) in
    for s = ib to ib + w - 1 do
      y.(s) <- y.(s) /. d
    done
  done;
  for i = cn - 1 downto 0 do
    let ib = i * w in
    for j = i + 1 to cn - 1 do
      let v = l.((j * cn) + i) and jb = j * w in
      for s = 0 to w - 1 do
        y.(ib + s) <- y.(ib + s) -. (v *. y.(jb + s))
      done
    done;
    let d = l.((i * cn) + i) in
    for s = ib to ib + w - 1 do
      y.(s) <- y.(s) /. d
    done
  done

(* One V(1,1)-cycle on one panel; level 0 lives in the workspace too
   ([kb.(0)] gathered from the caller, [kx.(0)] scattered back).
   [zero_x] marks a known-zero incoming iterate, which saves the first
   residual pass; everything below level 0 starts from zero by
   construction.  Strictly sequential: bitwise-deterministic no matter
   how many domains the caller fans out across. *)
let[@opera.hot] cycle_panel t bw ~w ~zero_x =
  let nl = Array.length t.pls in
  for l = 0 to nl - 1 do
    let pl = t.pls.(l) in
    let bl = bw.kb.(l) and xl = bw.kx.(l) and rl = bw.kr.(l) in
    if l = 0 && not zero_x then begin
      residual_panel pl ~w ~b:bl ~x:xl ~r:rl;
      smooth_correct_panel pl ~w ~r:rl ~x:xl
    end
    else smooth_from_zero_panel pl ~w ~b:bl ~x:xl;
    residual_panel pl ~w ~b:bl ~x:xl ~r:rl;
    let rc = if l = nl - 1 then bw.kc else bw.kb.(l + 1) in
    restrict_panel pl ~w ~r:rl ~rc
  done;
  coarse_solve_panel t.coarse_l t.coarse_dim ~w bw.kc;
  for l = nl - 1 downto 0 do
    let pl = t.pls.(l) in
    let bl = bw.kb.(l) and xl = bw.kx.(l) and rl = bw.kr.(l) in
    let xc = if l = nl - 1 then bw.kc else bw.kx.(l + 1) in
    prolong_panel pl ~w ~xc ~x:xl;
    residual_panel pl ~w ~b:bl ~x:xl ~r:rl;
    smooth_correct_panel pl ~w ~r:rl ~x:xl
  done

let[@opera.hot] apply_block t bw ~src ~dst ~cols ~lo ~hi =
  let n = t.nfine in
  if lo < 0 || hi > Array.length cols || lo > hi then
    invalid_arg "Amg.apply_block: column range out of bounds";
  if hi - lo > bw.bk then invalid_arg "Amg.apply_block: block wider than the workspace";
  if Array.length bw.kx <> Array.length t.pls
     || Array.length bw.kc <> t.coarse_dim * Int.min bw.bk panel
  then invalid_arg "Amg.apply_block: workspace built for another hierarchy";
  for c = lo to hi - 1 do
    let col = cols.(c) in
    if col < 0 || (col + 1) * n > Array.length src || (col + 1) * n > Array.length dst then
      invalid_arg "Amg.apply_block: column outside the block vectors"
  done;
  let nl = Array.length t.pls in
  (* Level-0 rhs and solution: the hierarchy's own slots, or the coarse
     buffer when the fine level is solved directly. *)
  let b0 = if nl = 0 then bw.kc else bw.kb.(0) in
  let x0 = if nl = 0 then bw.kc else bw.kx.(0) in
  let c0 = ref lo in
  while !c0 < hi do
    let left = hi - !c0 in
    let w = if left >= 6 then 6 else if left = 5 then 3 else left in
    for c = 0 to w - 1 do
      let off = cols.(!c0 + c) * n in
      for i = 0 to n - 1 do
        b0.((i * w) + c) <- src.(off + i)
      done
    done;
    if nl = 0 then coarse_solve_panel t.coarse_l t.coarse_dim ~w bw.kc
    else begin
      cycle_panel t bw ~w ~zero_x:true;
      for _c = 2 to t.ncycles do
        cycle_panel t bw ~w ~zero_x:false
      done
    end;
    for c = 0 to w - 1 do
      let off = cols.(!c0 + c) * n in
      for i = 0 to n - 1 do
        dst.(off + i) <- x0.((i * w) + c)
      done
    done;
    c0 := !c0 + w
  done

(* ---- solver-compatible wrapper ---------------------------------------- *)

let solve ?(tol = 1e-10) ?max_iter t a b =
  let w = create_block_ws t ~k:1 in
  let x0 = Array.make (Array.length b) 0.0 in
  let z = Array.make t.nfine 0.0 in
  let cols = [| 0 |] in
  let precond r =
    apply_block t w ~src:r ~dst:z ~cols ~lo:0 ~hi:1;
    z
  in
  Cg.solve ~precond ?max_iter ~tol ~matvec:(Sparse.mul_vec a) ~b ~x0 ()

(* ---- codec ------------------------------------------------------------ *)

(* v2 frame: meta carries the shape (dims, cycle count, per-level nnz of
   the operator and of the prolongator), the bulk arrays live in
   8-aligned sections — seven per level (operator colptr, rowind,
   values, inv-diag, then the prolongator's colptr, rowind, values) plus
   the coarsest CSC, from which the dense bottom factor is rebuilt on
   load.  A mapped load keeps the section views zero-copy.  Version 1
   frames (piecewise-constant aggregate maps) fail the version check and
   are rebuilt. *)

let artifact_kind = "amg"

let artifact_version = 2

let sections_per_level = 7

let to_frame t =
  let nl = Array.length t.pls in
  let cn = t.coarse_dim in
  let meta e =
    Util.Codec.write_int e t.nfine;
    Util.Codec.write_int e t.ncycles;
    Util.Codec.write_int e nl;
    Util.Codec.write_int e cn;
    Array.iter
      (fun pl ->
        Util.Codec.write_int e pl.pn;
        Util.Codec.write_int e pl.pcoarse;
        Util.Codec.write_int e (Bigarray.Array1.dim pl.prow);
        Util.Codec.write_int e (Bigarray.Array1.dim pl.qrow))
      t.pls;
    Util.Codec.write_int e (Sparse.nnz t.coarse_csc)
  in
  let sections =
    List.concat_map
      (fun pl ->
        [
          Util.Codec.I_big pl.pcol;
          Util.Codec.I_big pl.prow;
          Util.Codec.F_big pl.pval;
          Util.Codec.F_big pl.pdiag;
          Util.Codec.I_big pl.qcol;
          Util.Codec.I_big pl.qrow;
          Util.Codec.F_big pl.qval;
        ])
      (Array.to_list t.pls)
    @ [
        Util.Codec.I_arr t.coarse_csc.Sparse.colptr;
        Util.Codec.I_arr t.coarse_csc.Sparse.rowind;
        Util.Codec.F_arr t.coarse_csc.Sparse.values;
      ]
  in
  (meta, sections)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Util.Codec.Corrupt s)) fmt

(* Validate one CSC view: [ncols + 1] colptr starting at 0, monotone,
   closing at the row-index count, row indices below [nrows]. *)
let check_csc what ~nrows ~ncols col row =
  let nnz = Bigarray.Array1.dim row in
  if Bigarray.Array1.dim col <> ncols + 1 then corrupt "amg %s colptr length mismatch" what;
  if Bigarray.Array1.get col 0 <> 0 then corrupt "amg %s colptr must start at 0" what;
  for j = 0 to ncols - 1 do
    if Bigarray.Array1.get col j > Bigarray.Array1.get col (j + 1) then
      corrupt "amg %s colptr not monotone at %d" what j
  done;
  if Bigarray.Array1.get col ncols <> nnz then corrupt "amg %s colptr does not close" what;
  for k = 0 to nnz - 1 do
    let i = Bigarray.Array1.get row k in
    if i < 0 || i >= nrows then corrupt "amg %s row index %d out of range" what i
  done

(* Validate one level: dimensions chain, the operator and prolongator
   CSCs are well formed.  Linear in nnz — trivial next to the checksum
   pass that already touched every byte. *)
let check_level ~nfix pl =
  if pl.pn <> nfix then corrupt "amg level dimension %d does not chain (%d)" pl.pn nfix;
  if pl.pcoarse <= 0 || pl.pcoarse >= pl.pn then
    corrupt "amg level coarse dimension %d out of range (n = %d)" pl.pcoarse pl.pn;
  if Bigarray.Array1.dim pl.pval <> Bigarray.Array1.dim pl.prow then
    corrupt "amg level values length mismatch";
  if Bigarray.Array1.dim pl.pdiag <> pl.pn then corrupt "amg level diag length mismatch";
  if Bigarray.Array1.dim pl.qval <> Bigarray.Array1.dim pl.qrow then
    corrupt "amg prolongator values length mismatch";
  check_csc "level" ~nrows:pl.pn ~ncols:pl.pn pl.pcol pl.prow;
  check_csc "prolongator" ~nrows:pl.pn ~ncols:pl.pcoarse pl.qcol pl.qrow

let of_frame_sections d s =
  let nfine = Util.Codec.read_int d in
  let ncycles = Util.Codec.read_int d in
  let nl = Util.Codec.read_int d in
  let cn = Util.Codec.read_int d in
  if nfine <= 0 || ncycles < 1 || nl < 0 || cn <= 0 then corrupt "amg frame shape out of range";
  let want = (nl * sections_per_level) + 3 in
  if Util.Codec.section_count s <> want then
    corrupt "amg frame carries %d sections, want %d" (Util.Codec.section_count s) want;
  let shapes =
    Array.init nl (fun _ ->
        let n = Util.Codec.read_int d in
        let c = Util.Codec.read_int d in
        let nnz = Util.Codec.read_int d in
        let pnnz = Util.Codec.read_int d in
        (n, c, nnz, pnnz))
  in
  let coarse_nnz = Util.Codec.read_int d in
  Util.Codec.expect_end d;
  let coarse_of (_, c, _, _) = c in
  let pls =
    Array.init nl (fun l ->
        let n, c, nnz, pnnz = shapes.(l) in
        let base = l * sections_per_level in
        let pl =
          {
            pn = n;
            pcoarse = c;
            pcol = Util.Codec.section_int s base;
            prow = Util.Codec.section_int s (base + 1);
            pval = Util.Codec.section_float s (base + 2);
            pdiag = Util.Codec.section_float s (base + 3);
            qcol = Util.Codec.section_int s (base + 4);
            qrow = Util.Codec.section_int s (base + 5);
            qval = Util.Codec.section_float s (base + 6);
          }
        in
        if Bigarray.Array1.dim pl.prow <> nnz then corrupt "amg level nnz mismatch";
        if Bigarray.Array1.dim pl.qrow <> pnnz then corrupt "amg prolongator nnz mismatch";
        let nfix = if l = 0 then nfine else coarse_of shapes.(l - 1) in
        check_level ~nfix pl;
        pl)
  in
  let expect_cn = if nl = 0 then nfine else coarse_of shapes.(nl - 1) in
  if cn <> expect_cn then corrupt "amg coarse dimension %d does not chain (%d)" cn expect_cn;
  let base = nl * sections_per_level in
  let arr_of_ivec v = Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v) in
  let arr_of_fvec v = Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v) in
  let colptr = arr_of_ivec (Util.Codec.section_int s base) in
  let rowind = arr_of_ivec (Util.Codec.section_int s (base + 1)) in
  let values = arr_of_fvec (Util.Codec.section_float s (base + 2)) in
  if Array.length rowind <> coarse_nnz || Array.length values <> coarse_nnz then
    corrupt "amg coarse nnz mismatch";
  let coarse_csc =
    match Sparse.create ~nrows:cn ~ncols:cn ~colptr ~rowind ~values with
    | csc -> csc
    | exception Invalid_argument why -> corrupt "amg coarse operator malformed: %s" why
  in
  let coarse_l =
    match coarse_factor coarse_csc with
    | l -> l
    | exception Cholesky.Not_positive_definite _ ->
        corrupt "amg coarse operator is not positive definite"
  in
  { pls; coarse_dim = cn; coarse_l; coarse_csc; ncycles; nfine }
