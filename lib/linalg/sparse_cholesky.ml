exception Not_positive_definite of int

(* Level-schedule data, derived from the factor on the first solve that
   asks for more than one domain (see [levels_of]) — never at [factor]
   or [decode] time, and it never crosses the codec.  Sequential solves,
   the only kind most factors ever see, therefore pay neither the build
   nor the three re-laid copies of [L] it holds.

   The forward sweep [L y = b] is re-expressed row-wise: row [i] of the
   strict lower triangle is gathered ([acc -= L_ij * y_j] for ascending
   [j]), then divided by the diagonal.  Because the CSR arrays are built
   by scanning CSC columns in ascending order, the per-row gather
   subtracts contributions in exactly the order the sequential CSC
   scatter applies them, so the row-wise sweep is bitwise identical to
   {!lower_solve}.  Rows are grouped into dependency levels
   ([level i = 1 + max over row entries j of level j]); rows within a
   level read only earlier levels and write disjoint slots, so each
   level parallelizes with no change in arithmetic.

   The backward sweep [L^T x = y] is already a gather over CSC columns
   ({!upper_solve}); column [j] depends only on rows [i > j], giving the
   mirrored level structure.  Backward kernels also fuse the
   un-permutation ([b.(p.(j)) <- x_j]) and the forward kernels fuse the
   permutation ([acc] starts from [b.(p.(i))]), saving two full passes
   over [n] per solve versus the sequential path.

   Layout: both sweeps' entry arrays are stored in *sweep order* — slot
   [t] of the forward arrays holds row [f_rows.(t)], slot [t] of the
   backward arrays holds column [b_cols.(t)].  The sequential sweeps
   stream [lx] linearly, and a level-ordered sweep through row-ordered
   storage would jump around a factor far bigger than cache; permuting
   the values once, when the schedule is built, makes every solve a
   linear scan of its entry arrays, which is what lets the level path
   match (and, with the fused permutations, beat) the sequential path
   even on one domain.

   Serial tail.  Fill-reducing orders eliminate separators last, so the
   end of the forward dependency DAG degenerates into a long run of
   width-1 levels over near-dense rows — on large grids that run can
   hold >80% of the factor's nonzeros, and a per-row gather there is a
   serial floating-point dependency chain with no level parallelism to
   hide its latency.  [build_levels] therefore cuts the index range at
   [f_cut] — the smallest row index seen in the trailing run of narrow
   (width <= 2) levels — and splits the forward sweep into three
   phases:

     1. level-scheduled row gathers over the head rows ([< f_cut]),
        whose dependencies all lie inside the head;
     2. one wide, chunkable "prefix" level: each tail row gathers its
        entries with column [< f_cut] (all available after phase 1)
        into a partial accumulator, in ascending column order;
     3. a sequential CSC scatter over columns [f_cut..n) straight off
        [lp]/[li]/[lx] (whose tail is one linear stream) — exactly
        {!lower_solve} restricted to the tail block, whose independent
        column updates give the instruction-level parallelism the
        chain-bound gather lacks.

   A tail row [i] receives its contributions as (columns [< f_cut],
   ascending) then (columns [f_cut..i), ascending — scatter applies
   column [j] when [j] completes, and the tail completes in ascending
   order): globally ascending, i.e. the exact order of the sequential
   sweep, so the hybrid stays bitwise identical.  A narrow run shorter
   than [tail_threshold] sets [f_cut = n] (no tail, pure level
   schedule); a factor that is one long chain puts [f_cut] near 0 and
   phase 3 degenerates to the plain sequential sweep. *)
type levels = {
  f_ptr : int array; (* forward level pointers into [f_rows] (head rows only) *)
  f_rows : int array; (* head rows grouped by forward level, ascending in level *)
  fp : int array; (* entry pointers by forward slot, length |head|+1 *)
  fc : int array; (* column indices, ascending within each row *)
  fx : float array; (* strict-lower values of row [f_rows.(t)] *)
  fd : float array; (* diagonal of L, by forward slot *)
  f_cut : int; (* first tail index; [n] when there is no tail *)
  tp : int array; (* prefix-entry pointers by tail slot, length n-f_cut+1 *)
  tc : int array; (* prefix column indices (< f_cut), ascending per row *)
  tx : float array; (* matching values *)
  b_ptr : int array; (* backward level pointers into [b_cols] *)
  b_cols : int array; (* columns grouped by backward level, ascending in level *)
  bp : int array; (* entry pointers by backward slot, length n+1 *)
  bi : int array; (* row indices, ascending within each column *)
  bx : float array; (* strict-lower values of column [b_cols.(t)] *)
  bd : float array; (* diagonal of L, by backward slot *)
}

type t = {
  n : int;
  p : Perm.t;
  lp : int array; (* column pointers of L *)
  li : int array; (* row indices, diagonal entry first per column *)
  lx : float array;
  work : float array; (* scratch for solve_in_place *)
  levels : levels option Atomic.t; (* built on first parallel solve *)
}

(* Group indices [0, n) by [lev.(i)] with a counting sort: ascending
   index order within each level (required for determinism of the
   chunk decomposition, and cache-friendly). *)
let group_by_level ~n lev nlev =
  let ptr = Array.make (nlev + 1) 0 in
  for i = 0 to n - 1 do
    ptr.(lev.(i) + 1) <- ptr.(lev.(i) + 1) + 1
  done;
  for l = 0 to nlev - 1 do
    ptr.(l + 1) <- ptr.(l + 1) + ptr.(l)
  done;
  let rows = Array.make n 0 in
  let fill = Array.sub ptr 0 (Int.max nlev 1) in
  for i = 0 to n - 1 do
    let l = lev.(i) in
    rows.(fill.(l)) <- i;
    fill.(l) <- fill.(l) + 1
  done;
  (ptr, rows)

let build_levels ~n ~lp ~li ~lx =
  (* CSR of the strict lower triangle: scanning CSC columns in ascending
     order appends each row's entries in ascending column order. *)
  let rp = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for q = lp.(j) + 1 to lp.(j + 1) - 1 do
      rp.(li.(q) + 1) <- rp.(li.(q) + 1) + 1
    done
  done;
  for i = 0 to n - 1 do
    rp.(i + 1) <- rp.(i + 1) + rp.(i)
  done;
  let nnz = rp.(n) in
  let rc = Array.make nnz 0 and rx = Array.make nnz 0.0 in
  let fill = Array.sub rp 0 (Int.max n 1) in
  for j = 0 to n - 1 do
    for q = lp.(j) + 1 to lp.(j + 1) - 1 do
      let i = li.(q) in
      let pos = fill.(i) in
      fill.(i) <- pos + 1;
      rc.(pos) <- j;
      rx.(pos) <- lx.(q)
    done
  done;
  (* Forward levels: row i waits for every column j it references. *)
  let lev_f = Array.make (Int.max n 1) 0 in
  let nlev_f = ref 0 in
  for i = 0 to n - 1 do
    let m = ref 0 in
    for q = rp.(i) to rp.(i + 1) - 1 do
      let l = lev_f.(rc.(q)) + 1 in
      if l > !m then m := l
    done;
    lev_f.(i) <- !m;
    if !m + 1 > !nlev_f then nlev_f := !m + 1
  done;
  (* Backward levels: column j waits for every row i > j it references;
     computed descending so dependencies are already leveled. *)
  let lev_b = Array.make (Int.max n 1) 0 in
  let nlev_b = ref 0 in
  for j = n - 1 downto 0 do
    let m = ref 0 in
    for q = lp.(j) + 1 to lp.(j + 1) - 1 do
      let l = lev_b.(li.(q)) + 1 in
      if l > !m then m := l
    done;
    lev_b.(j) <- !m;
    if !m + 1 > !nlev_b then nlev_b := !m + 1
  done;
  let f_ptr_all, f_rows_all = group_by_level ~n lev_f (if n = 0 then 0 else !nlev_f) in
  let b_ptr, b_cols = group_by_level ~n lev_b (if n = 0 then 0 else !nlev_b) in
  (* Serial-tail cut: walk levels from the last one while they stay
     narrow, and take the smallest row index seen — every row from there
     on is handled by the phase-2 prefix gather + phase-3 scatter.  Rows
     in [f_cut..n) that sat in earlier wide levels simply move into the
     tail (the scatter is strictly more sequential, never less correct);
     head rows can never depend on them because forward dependencies
     point at smaller indices only. *)
  let tail_threshold = 32 in
  let f_cut =
    let nlev = Array.length f_ptr_all - 1 in
    let cut = ref n in
    let l = ref (nlev - 1) in
    let narrow = ref true in
    while !narrow && !l >= 0 do
      let lo = f_ptr_all.(!l) and hi = f_ptr_all.(!l + 1) in
      if hi - lo <= 2 then begin
        for t = lo to hi - 1 do
          if f_rows_all.(t) < !cut then cut := f_rows_all.(t)
        done;
        decr l
      end
      else narrow := false
    done;
    if n - !cut >= tail_threshold then !cut else n
  in
  (* Head structure: drop tail rows from the level grouping (compressing
     levels emptied by the cut) and permute their entries into sweep
     order (see the layout note above) so the level sweeps stream
     [fx]/[bx] linearly.  [Array.blit] preserves the within-row /
     within-column entry order, so arithmetic order — and hence bitwise
     identity with the sequential sweeps — is unchanged. *)
  let head = ref 0 in
  for i = 0 to n - 1 do
    if i < f_cut then incr head
  done;
  let hn = !head in
  let f_rows = Array.make (Int.max hn 1) 0 in
  let rev_ptrs = ref [] in
  let pos = ref 0 in
  for l = 0 to Array.length f_ptr_all - 2 do
    let start = !pos in
    for t = f_ptr_all.(l) to f_ptr_all.(l + 1) - 1 do
      let r = f_rows_all.(t) in
      if r < f_cut then begin
        f_rows.(!pos) <- r;
        incr pos
      end
    done;
    if !pos > start then rev_ptrs := !pos :: !rev_ptrs
  done;
  let f_ptr = Array.of_list (0 :: List.rev !rev_ptrs) in
  let fp = Array.make (hn + 1) 0 in
  for t = 0 to hn - 1 do
    let i = f_rows.(t) in
    fp.(t + 1) <- fp.(t) + (rp.(i + 1) - rp.(i))
  done;
  let fnnz = fp.(hn) in
  let fc = Array.make (Int.max fnnz 1) 0 and fx = Array.make (Int.max fnnz 1) 0.0 in
  let fd = Array.make (Int.max hn 1) 0.0 in
  for t = 0 to hn - 1 do
    let i = f_rows.(t) in
    let len = rp.(i + 1) - rp.(i) in
    Array.blit rc rp.(i) fc fp.(t) len;
    Array.blit rx rp.(i) fx fp.(t) len;
    fd.(t) <- lx.(lp.(i))
  done;
  (* Tail prefix entries: columns < f_cut of each tail row.  Columns are
     ascending within a CSR row, so the prefix is a leading segment. *)
  let tn = n - f_cut in
  let tp = Array.make (tn + 1) 0 in
  for k = 0 to tn - 1 do
    let i = f_cut + k in
    let q = ref rp.(i) in
    while !q < rp.(i + 1) && rc.(!q) < f_cut do
      incr q
    done;
    tp.(k + 1) <- tp.(k) + (!q - rp.(i))
  done;
  let tnnz = tp.(tn) in
  let tc = Array.make (Int.max tnnz 1) 0 and tx = Array.make (Int.max tnnz 1) 0.0 in
  for k = 0 to tn - 1 do
    let i = f_cut + k in
    let len = tp.(k + 1) - tp.(k) in
    Array.blit rc rp.(i) tc tp.(k) len;
    Array.blit rx rp.(i) tx tp.(k) len
  done;
  let bp = Array.make (n + 1) 0 in
  for t = 0 to n - 1 do
    let j = b_cols.(t) in
    bp.(t + 1) <- bp.(t) + (lp.(j + 1) - lp.(j) - 1)
  done;
  let bi = Array.make (Int.max nnz 1) 0 and bx = Array.make (Int.max nnz 1) 0.0 in
  let bd = Array.make (Int.max n 1) 0.0 in
  for t = 0 to n - 1 do
    let j = b_cols.(t) in
    let len = lp.(j + 1) - lp.(j) - 1 in
    Array.blit li (lp.(j) + 1) bi bp.(t) len;
    Array.blit lx (lp.(j) + 1) bx bp.(t) len;
    bd.(t) <- lx.(lp.(j))
  done;
  { f_ptr; f_rows; fp; fc; fx; fd; f_cut; tp; tc; tx; b_ptr; b_cols; bp; bi; bx; bd }

(* Elimination tree of an upper-triangular CSC matrix (cs_etree). *)
let etree ~n ~colptr ~rowind =
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    for p = colptr.(k) to colptr.(k + 1) - 1 do
      let i = ref rowind.(p) in
      while !i <> -1 && !i < k do
        let next = ancestor.(!i) in
        ancestor.(!i) <- k;
        if next = -1 then parent.(!i) <- k;
        i := next
      done
    done
  done;
  parent

(* Pattern of row k of L via elimination-tree reach (cs_ereach).
   Returns [top]; the pattern is [stack.(top) .. stack.(n-1)] in
   topological order. [w] holds the visit stamps. *)
let ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path =
  let n = Array.length parent in
  let top = ref n in
  w.(k) <- k;
  for p = colptr.(k) to colptr.(k + 1) - 1 do
    let i0 = rowind.(p) in
    if i0 < k then begin
      let len = ref 0 in
      let i = ref i0 in
      while w.(!i) <> k do
        path.(!len) <- !i;
        incr len;
        w.(!i) <- k;
        i := parent.(!i)
      done;
      while !len > 0 do
        decr len;
        decr top;
        stack.(!top) <- path.(!len)
      done
    end
  done;
  !top

let factor ?(ordering = Ordering.Min_degree) ?perm a =
  let n, m = Sparse.dims a in
  if n <> m then invalid_arg "Sparse_cholesky.factor: matrix is not square";
  let p =
    match perm with
    | Some p ->
        if Array.length p <> n then invalid_arg "Sparse_cholesky.factor: permutation length";
        p
    | None -> Ordering.compute ordering a
  in
  let ap = Sparse.permute_sym a p in
  let upper = Sparse.upper ap in
  let { Sparse.colptr; rowind; values; _ } = upper in
  let parent = etree ~n ~colptr ~rowind in
  let w = Array.make n (-1) in
  let stack = Array.make n 0 in
  let path = Array.make n 0 in
  (* Symbolic pass: column counts of L. *)
  let counts = Array.make n 1 (* diagonal *) in
  for k = 0 to n - 1 do
    let top = ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path in
    for t = top to n - 1 do
      counts.(stack.(t)) <- counts.(stack.(t)) + 1
    done
  done;
  let lp = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    lp.(j + 1) <- lp.(j) + counts.(j)
  done;
  let total = lp.(n) in
  let li = Array.make total 0 and lx = Array.make total 0.0 in
  let fill = Array.make n 0 in
  (* fill.(j) = next free slot in column j *)
  for j = 0 to n - 1 do
    fill.(j) <- lp.(j)
  done;
  Array.fill w 0 n (-1);
  let x = Array.make n 0.0 in
  (* Numeric up-looking pass. *)
  for k = 0 to n - 1 do
    let top = ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path in
    (* Scatter the upper column k of A into x. *)
    let d = ref 0.0 in
    for p = colptr.(k) to colptr.(k + 1) - 1 do
      let i = rowind.(p) in
      if i = k then d := values.(p) else x.(i) <- values.(p)
    done;
    for t = top to n - 1 do
      let i = stack.(t) in
      let lki = x.(i) /. lx.(lp.(i)) in
      x.(i) <- 0.0;
      for p = lp.(i) + 1 to fill.(i) - 1 do
        x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. lki)
      done;
      d := !d -. (lki *. lki);
      let pos = fill.(i) in
      fill.(i) <- pos + 1;
      li.(pos) <- k;
      lx.(pos) <- lki
    done;
    if !d <= 0.0 then raise (Not_positive_definite k);
    let pos = fill.(k) in
    fill.(k) <- pos + 1;
    li.(pos) <- k;
    lx.(pos) <- sqrt !d
  done;
  { n; p; lp; li; lx; work = Array.make n 0.0; levels = Atomic.make None }

(* The factor's level schedule, built on first use.  Domains racing on a
   fresh factor may each build one; the compare-and-set publishes exactly
   one, and every caller sweeps with the published copy.  [build_levels]
   is a pure function of [L], so whichever copy wins, solves are
   bitwise the same. *)
let levels_of f =
  match Atomic.get f.levels with
  | Some lv -> lv
  | None ->
      let lv = build_levels ~n:f.n ~lp:f.lp ~li:f.li ~lx:f.lx in
      if Atomic.compare_and_set f.levels None (Some lv) then lv
      else Option.get (Atomic.get f.levels)

let lower_solve f y =
  (* L y' = y, in place; diagonal entry is first in each column. *)
  let { lp; li; lx; n; _ } = f in
  for j = 0 to n - 1 do
    let yj = y.(j) /. lx.(lp.(j)) in
    y.(j) <- yj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      y.(li.(p)) <- y.(li.(p)) -. (lx.(p) *. yj)
    done
  done

let upper_solve f y =
  (* L^T y' = y, in place. *)
  let { lp; li; lx; n; _ } = f in
  for j = n - 1 downto 0 do
    let acc = ref y.(j) in
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      acc := !acc -. (lx.(p) *. y.(li.(p)))
    done;
    y.(j) <- !acc /. lx.(lp.(j))
  done

(* ---- level-scheduled sweeps ----------------------------------------
   Disjoint-slice kernels: each call owns rows/columns
   [rows.(lo .. hi-1)] of one dependency level and writes only
   [work.(i)] (forward) or [work.(j)] and [b.(p.(j))] (backward) for
   indices in its slice — [p] is a permutation, so the [b] writes are
   disjoint too.  The gather order within a row/column matches the
   sequential sweeps exactly (see the [levels] comment), so parallel
   and sequential solves are bitwise identical. *)

(* Each per-row (per-column) gather is a serial floating-point
   dependency chain — [acc] feeds every subtract — so a single row runs
   latency-bound.  Rows within a level are independent, which lets the
   kernels interleave *two* rows' chains and double the instruction-level
   parallelism without touching either row's summation order: pairing
   changes which chains run concurrently, never the order of adds within
   a chain, so results stay bitwise identical for any chunking. *)

let[@opera.hot] fwd_rows f lv ~work b lo hi =
  let { f_rows; fp; fc; fx; fd; _ } = lv in
  let p = f.p in
  let one t =
    let i = f_rows.(t) in
    let acc = ref b.(p.(i)) in
    for q = fp.(t) to fp.(t + 1) - 1 do
      acc := !acc -. (fx.(q) *. work.(fc.(q)))
    done;
    work.(i) <- !acc /. fd.(t)
  in
  let t = ref lo in
  while !t + 1 < hi do
    let t0 = !t and t1 = !t + 1 in
    let i0 = f_rows.(t0) and i1 = f_rows.(t1) in
    let s0 = fp.(t0) and e0 = fp.(t0 + 1) in
    let s1 = fp.(t1) and e1 = fp.(t1 + 1) in
    let acc0 = ref b.(p.(i0)) and acc1 = ref b.(p.(i1)) in
    let c = Int.min (e0 - s0) (e1 - s1) in
    for k = 0 to c - 1 do
      acc0 := !acc0 -. (fx.(s0 + k) *. work.(fc.(s0 + k)));
      acc1 := !acc1 -. (fx.(s1 + k) *. work.(fc.(s1 + k)))
    done;
    for q = s0 + c to e0 - 1 do
      acc0 := !acc0 -. (fx.(q) *. work.(fc.(q)))
    done;
    for q = s1 + c to e1 - 1 do
      acc1 := !acc1 -. (fx.(q) *. work.(fc.(q)))
    done;
    work.(i0) <- !acc0 /. fd.(t0);
    work.(i1) <- !acc1 /. fd.(t1);
    t := !t + 2
  done;
  if !t < hi then one !t

(* Phase 2 of the forward sweep: partial accumulators for tail rows —
   the rhs start minus every contribution from head columns.  Tail slots
   are independent of each other (they read only head results), so this
   is one wide level; the same two-chain interleave applies. *)
let[@opera.hot] fwd_tail_prefix f lv ~work b lo hi =
  let { f_cut; tp; tc; tx; _ } = lv in
  let p = f.p in
  let one k =
    let acc = ref b.(p.(f_cut + k)) in
    for q = tp.(k) to tp.(k + 1) - 1 do
      acc := !acc -. (tx.(q) *. work.(tc.(q)))
    done;
    work.(f_cut + k) <- !acc
  in
  let k = ref lo in
  while !k + 1 < hi do
    let k0 = !k and k1 = !k + 1 in
    let s0 = tp.(k0) and e0 = tp.(k0 + 1) in
    let s1 = tp.(k1) and e1 = tp.(k1 + 1) in
    let acc0 = ref b.(p.(f_cut + k0)) and acc1 = ref b.(p.(f_cut + k1)) in
    let c = Int.min (e0 - s0) (e1 - s1) in
    for q = 0 to c - 1 do
      acc0 := !acc0 -. (tx.(s0 + q) *. work.(tc.(s0 + q)));
      acc1 := !acc1 -. (tx.(s1 + q) *. work.(tc.(s1 + q)))
    done;
    for q = s0 + c to e0 - 1 do
      acc0 := !acc0 -. (tx.(q) *. work.(tc.(q)))
    done;
    for q = s1 + c to e1 - 1 do
      acc1 := !acc1 -. (tx.(q) *. work.(tc.(q)))
    done;
    work.(f_cut + k0) <- !acc0;
    work.(f_cut + k1) <- !acc1;
    k := !k + 2
  done;
  if !k < hi then one !k

(* Phase 3: sequential CSC scatter over the tail block, operating on the
   partial accumulators phase 2 left in [work] — {!lower_solve}
   restricted to columns [f_cut..n) (every sub-diagonal entry of a tail
   column lands in a tail row). *)
let[@opera.hot] fwd_tail_scatter f lv ~work =
  let { lp; li; lx; n; _ } = f in
  let f_cut = lv.f_cut in
  for j = f_cut to n - 1 do
    let v = work.(j) /. lx.(lp.(j)) in
    work.(j) <- v;
    for q = lp.(j) + 1 to lp.(j + 1) - 1 do
      work.(li.(q)) <- work.(li.(q)) -. (lx.(q) *. v)
    done
  done

let[@opera.hot] bwd_cols f lv ~work b lo hi =
  let { b_cols; bp; bi; bx; bd; _ } = lv in
  let p = f.p in
  let one t =
    let j = b_cols.(t) in
    let acc = ref work.(j) in
    for q = bp.(t) to bp.(t + 1) - 1 do
      acc := !acc -. (bx.(q) *. work.(bi.(q)))
    done;
    let v = !acc /. bd.(t) in
    work.(j) <- v;
    b.(p.(j)) <- v
  in
  let t = ref lo in
  while !t + 1 < hi do
    let t0 = !t and t1 = !t + 1 in
    let j0 = b_cols.(t0) and j1 = b_cols.(t1) in
    let s0 = bp.(t0) and e0 = bp.(t0 + 1) in
    let s1 = bp.(t1) and e1 = bp.(t1 + 1) in
    let acc0 = ref work.(j0) and acc1 = ref work.(j1) in
    let c = Int.min (e0 - s0) (e1 - s1) in
    for k = 0 to c - 1 do
      acc0 := !acc0 -. (bx.(s0 + k) *. work.(bi.(s0 + k)));
      acc1 := !acc1 -. (bx.(s1 + k) *. work.(bi.(s1 + k)))
    done;
    for q = s0 + c to e0 - 1 do
      acc0 := !acc0 -. (bx.(q) *. work.(bi.(q)))
    done;
    for q = s1 + c to e1 - 1 do
      acc1 := !acc1 -. (bx.(q) *. work.(bi.(q)))
    done;
    let v0 = !acc0 /. bd.(t0) and v1 = !acc1 /. bd.(t1) in
    work.(j0) <- v0;
    work.(j1) <- v1;
    b.(p.(j0)) <- v0;
    b.(p.(j1)) <- v1;
    t := !t + 2
  done;
  if !t < hi then one !t

(* Levels narrower than this run on the calling domain: the two mutex
   acquisitions per chunk of a pool dispatch cost more than the handful
   of rows they would spread.  Purely a performance gate — either path
   computes bitwise-identical results. *)
let level_dispatch_cutoff = 64

let solve_level_scheduled f ~domains ~work b =
  let lv = levels_of f in
  let sweep nlev_ptr kernel =
    let nlev = Array.length nlev_ptr - 1 in
    for l = 0 to nlev - 1 do
      let lo = nlev_ptr.(l) and hi = nlev_ptr.(l + 1) in
      if hi - lo < level_dispatch_cutoff then kernel lo hi
      else
        (* opera-lint: race — rows within one level are dependence-free *)
        Util.Parallel.for_chunks ~domains (hi - lo) (fun ~chunk:_ ~lo:clo ~hi:chi ->
            kernel (lo + clo) (lo + chi))
    done
  in
  sweep lv.f_ptr (fwd_rows f lv ~work b);
  let tn = f.n - lv.f_cut in
  if tn > 0 then begin
    (if tn < level_dispatch_cutoff then fwd_tail_prefix f lv ~work b 0 tn
     else
       (* opera-lint: race — tail rows write disjoint work/b entries *)
       Util.Parallel.for_chunks ~domains tn (fun ~chunk:_ ~lo ~hi ->
           fwd_tail_prefix f lv ~work b lo hi));
    fwd_tail_scatter f lv ~work
  end;
  sweep lv.b_ptr (bwd_cols f lv ~work b)

let[@opera.hot] solve_in_place_ws f ?(domains = 1) ~work b =
  if Array.length b <> f.n then invalid_arg "Sparse_cholesky.solve: dimension mismatch";
  if Array.length work <> f.n then
    invalid_arg "Sparse_cholesky.solve_in_place_ws: workspace dimension mismatch";
  if Util.Parallel.resolve domains > 1 then
    solve_level_scheduled f ~domains:(Util.Parallel.resolve domains) ~work b
  else begin
    let y = work in
    (* y = P b *)
    for k = 0 to f.n - 1 do
      y.(k) <- b.(f.p.(k))
    done;
    lower_solve f y;
    upper_solve f y;
    for k = 0 to f.n - 1 do
      b.(f.p.(k)) <- y.(k)
    done
  end

let solve_in_place f b = solve_in_place_ws f ~work:f.work b

let solve f b =
  let x = Array.copy b in
  solve_in_place f x;
  x

(* ---- artifact serialization ----------------------------------------
   A factor is five arrays; the bytes are exact (floats cross the codec
   as bit patterns), so a decoded factor solves bitwise identically to
   the one that was encoded.  [decode] re-validates every structural
   invariant — the artifact store's checksum catches corruption, this
   catches a well-formed frame holding a malformed factor. *)

let encode (f : t) (e : Util.Codec.encoder) =
  Util.Codec.write_int e f.n;
  Util.Codec.write_int_array e f.p;
  Util.Codec.write_int_array e f.lp;
  Util.Codec.write_int_array e f.li;
  Util.Codec.write_float_array e f.lx

let decode (d : Util.Codec.decoder) =
  let fail fmt = Printf.ksprintf (fun s -> raise (Util.Codec.Corrupt s)) fmt in
  let n = Util.Codec.read_int d in
  if n < 0 then fail "cholesky: negative dimension %d" n;
  let p = Util.Codec.read_int_array d in
  let lp = Util.Codec.read_int_array d in
  let li = Util.Codec.read_int_array d in
  let lx = Util.Codec.read_float_array d in
  if Array.length p <> n then fail "cholesky: permutation length %d <> %d" (Array.length p) n;
  if not (Perm.is_valid p) then fail "cholesky: invalid permutation";
  if Array.length lp <> n + 1 then fail "cholesky: colptr length %d <> %d" (Array.length lp) (n + 1);
  if n > 0 && lp.(0) <> 0 then fail "cholesky: colptr does not start at 0";
  for j = 0 to n - 1 do
    if lp.(j + 1) < lp.(j) + 1 then fail "cholesky: non-monotone colptr at column %d" j
  done;
  let total = if n = 0 then 0 else lp.(n) in
  if Array.length li <> total then fail "cholesky: rowind length %d <> %d" (Array.length li) total;
  if Array.length lx <> total then fail "cholesky: values length %d <> %d" (Array.length lx) total;
  for j = 0 to n - 1 do
    (* diagonal entry first in each column, rows in range *)
    if li.(lp.(j)) <> j then fail "cholesky: column %d does not start at its diagonal" j;
    for q = lp.(j) to lp.(j + 1) - 1 do
      if li.(q) < 0 || li.(q) >= n then fail "cholesky: row index %d out of range" li.(q);
      (* Off-diagonal entries live strictly below the diagonal — the
         level-schedule construction depends on this. *)
      if q > lp.(j) && li.(q) <= j then
        fail "cholesky: column %d has a non-strict lower entry at row %d" j li.(q)
    done
  done;
  (* The level schedule is derived data: built on the first parallel
     solve, never serialized, so the artifact format (chol_version = 1)
     is unchanged. *)
  { n; p; lp; li; lx; work = Array.make n 0.0; levels = Atomic.make None }

let nnz_l f = f.lp.(f.n)

let dim f = f.n

let permutation f = Array.copy f.p

