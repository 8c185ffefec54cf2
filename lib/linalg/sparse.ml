type t = {
  nrows : int;
  ncols : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

let validate a =
  let { nrows; ncols; colptr; rowind; values } = a in
  if nrows < 0 || ncols < 0 then invalid_arg "Sparse: negative dimension";
  if Array.length colptr <> ncols + 1 then invalid_arg "Sparse: colptr length";
  if colptr.(0) <> 0 then invalid_arg "Sparse: colptr must start at 0";
  if Array.length rowind <> colptr.(ncols) || Array.length values <> colptr.(ncols) then
    invalid_arg "Sparse: rowind/values length must equal colptr.(ncols)";
  for j = 0 to ncols - 1 do
    if colptr.(j) > colptr.(j + 1) then invalid_arg "Sparse: colptr not monotone";
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(k) in
      if i < 0 || i >= nrows then invalid_arg "Sparse: row index out of range";
      if k > colptr.(j) && rowind.(k - 1) >= i then
        invalid_arg "Sparse: row indices must be strictly increasing per column"
    done
  done;
  a

let create ~nrows ~ncols ~colptr ~rowind ~values =
  validate { nrows; ncols; colptr; rowind; values }

let zero ~nrows ~ncols =
  { nrows; ncols; colptr = Array.make (ncols + 1) 0; rowind = [||]; values = [||] }

(* One bottom-up merge pass over [n] entries: runs of [width] in
   [sr]/[sv] from [so] merge pairwise into [dr]/[dv] from [d0].  Ties
   take the left run first, so the sort is stable. *)
let[@opera.hot] merge_pass (sr : int array) (sv : float array) so (dr : int array)
    (dv : float array) d0 n width =
  let s = ref 0 in
  while !s < n do
    let mid = Int.min n (!s + width) and stop = Int.min n (!s + (2 * width)) in
    let a = ref !s and b = ref mid in
    for o = !s to stop - 1 do
      if !b >= stop || (!a < mid && sr.(so + !a) <= sr.(so + !b)) then begin
        dr.(d0 + o) <- sr.(so + !a);
        dv.(d0 + o) <- sv.(so + !a);
        incr a
      end
      else begin
        dr.(d0 + o) <- sr.(so + !b);
        dv.(d0 + o) <- sv.(so + !b);
        incr b
      end
    done;
    s := stop
  done

(* In-place sort + duplicate merge of one column segment [lo, hi): a
   stable merge sort by row index, ping-ponging through the scratch
   pair [sr]/[sv] (at least [hi - lo] long), so duplicate contributions
   sum in emission order — deterministic run to run, and O(k log k) on
   a column of k stamps however high a node's fan-in; then compact
   equal rows to the segment head, dropping exact-zero sums.  Returns
   the merged entry count. *)
let[@opera.hot] sort_merge_column (rowind : int array) (values : float array) sr sv lo hi =
  let n = hi - lo in
  let width = ref 1 and in_scratch = ref false in
  while !width < n do
    if !in_scratch then merge_pass sr sv 0 rowind values lo n !width
    else merge_pass rowind values lo sr sv 0 n !width;
    in_scratch := not !in_scratch;
    width := 2 * !width
  done;
  if !in_scratch then begin
    Array.blit sr 0 rowind lo n;
    Array.blit sv 0 values lo n
  end;
  let out = ref lo and k = ref lo in
  while !k < hi do
    let i = rowind.(!k) in
    let acc = ref values.(!k) in
    incr k;
    while !k < hi && rowind.(!k) = i do
      acc := !acc +. values.(!k);
      incr k
    done;
    if not (Util.Floats.equal_exact !acc 0.0) then begin
      rowind.(!out) <- i;
      values.(!out) <- !acc;
      incr out
    end
  done;
  !out - lo

(* Streaming CSC assembly, the one stamps-to-CSC routine: every MNA,
   variation-term and triplet matrix is built here.
   [emit stamp] must call [stamp i j v] once per contribution and must
   produce the same stamp sequence on both invocations — it runs twice,
   a counting pass that sizes every column exactly and a fill pass that
   lands each contribution in its column segment.  No triplet list is
   ever materialized: peak memory is the raw stamp arrays (16 bytes per
   stamp), the sort's scratch pair (16 bytes per entry of the longest
   column) and two (ncols+1) counters, and the result shrinks to the
   merged CSC.  Duplicates sum in emission order (stable per-column
   sort), so the result is deterministic; exact-zero sums are dropped.
   Stamp/entry counts and the raw peak land in [metrics], when given
   ([sparse.stream_stamps], [sparse.stream_nnz],
   [sparse.stream_peak_bytes]). *)
let of_stamps ?metrics ~nrows ~ncols emit =
  if nrows < 0 || ncols < 0 then invalid_arg "Sparse.of_stamps: negative dimension";
  let count = Array.make (ncols + 1) 0 in
  let stamps = ref 0 in
  emit (fun i j v ->
      if i < 0 || i >= nrows || j < 0 || j >= ncols then
        invalid_arg (Printf.sprintf "Sparse.of_stamps: (%d,%d) out of %dx%d" i j nrows ncols);
      ignore v;
      count.(j + 1) <- count.(j + 1) + 1;
      incr stamps);
  for j = 1 to ncols do
    count.(j) <- count.(j) + count.(j - 1)
  done;
  let raw = count in
  (* raw.(j) .. raw.(j+1) is column j's segment *)
  let nraw = raw.(ncols) in
  let rowind = Array.make nraw 0 in
  let values = Array.make nraw 0.0 in
  let cursor = Array.make ncols 0 in
  Array.blit raw 0 cursor 0 ncols;
  emit (fun i j v ->
      if i < 0 || i >= nrows || j < 0 || j >= ncols || cursor.(j) >= raw.(j + 1) then
        invalid_arg "Sparse.of_stamps: emit changed between the counting and fill passes";
      rowind.(cursor.(j)) <- i;
      values.(cursor.(j)) <- v;
      cursor.(j) <- cursor.(j) + 1);
  for j = 0 to ncols - 1 do
    if cursor.(j) <> raw.(j + 1) then
      invalid_arg "Sparse.of_stamps: emit changed between the counting and fill passes"
  done;
  (* The column sort's scratch pair, as long as the longest column. *)
  let longest = ref 0 in
  for j = 0 to ncols - 1 do
    longest := Int.max !longest (raw.(j + 1) - raw.(j))
  done;
  let sr = Array.make !longest 0 and sv = Array.make !longest 0.0 in
  (* Merge every column in place, then compact left: each column's
     merged entries move to their final offset (always <= the source
     offset, so the in-place shift is safe). *)
  let colptr = Array.make (ncols + 1) 0 in
  for j = 0 to ncols - 1 do
    let lo = raw.(j) and hi = raw.(j + 1) in
    let kept = sort_merge_column rowind values sr sv lo hi in
    let dst = colptr.(j) in
    if dst <> lo then begin
      Array.blit rowind lo rowind dst kept;
      Array.blit values lo values dst kept
    end;
    colptr.(j + 1) <- dst + kept
  done;
  let total = colptr.(ncols) in
  let rowind = if total = nraw then rowind else Array.sub rowind 0 total in
  let values = if total = nraw then values else Array.sub values 0 total in
  Option.iter
    (fun metrics ->
      Util.Metrics.incr ~by:!stamps metrics "sparse.stream_stamps";
      Util.Metrics.incr ~by:total metrics "sparse.stream_nnz";
      Util.Metrics.observe metrics "sparse.stream_peak_bytes"
        (float_of_int ((16 * (nraw + Array.length sr)) + (8 * 2 * (ncols + 1)))))
    metrics;
  validate { nrows; ncols; colptr; rowind; values }

let of_triplets ~nrows ~ncols triplets =
  of_stamps ~nrows ~ncols (fun stamp -> List.iter (fun (i, j, v) -> stamp i j v) triplets)

let to_triplets a =
  let out = ref [] in
  for j = a.ncols - 1 downto 0 do
    for k = a.colptr.(j + 1) - 1 downto a.colptr.(j) do
      out := (a.rowind.(k), j, a.values.(k)) :: !out
    done
  done;
  !out

let identity n =
  {
    nrows = n;
    ncols = n;
    colptr = Array.init (n + 1) (fun j -> j);
    rowind = Array.init n (fun i -> i);
    values = Array.make n 1.0;
  }

let of_dense d =
  let nrows, ncols = Dense.dims d in
  let triplets = ref [] in
  for j = ncols - 1 downto 0 do
    for i = nrows - 1 downto 0 do
      let v = Dense.get d i j in
      if not (Util.Floats.equal_exact v 0.0) then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~nrows ~ncols !triplets

let to_dense a =
  let d = Dense.create a.nrows a.ncols in
  for j = 0 to a.ncols - 1 do
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      Dense.set d a.rowind.(k) j a.values.(k)
    done
  done;
  d

let dims a = (a.nrows, a.ncols)

let nnz a = a.colptr.(a.ncols)

let get a i j =
  if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols then invalid_arg "Sparse.get: out of bounds";
  let lo = ref a.colptr.(j) and hi = ref (a.colptr.(j + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = a.rowind.(mid) in
    if r = i then begin
      result := a.values.(mid);
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* Column [j]'s step of {!mul_vec_acc} on the slices at [xoff] and
   [yoff]: [xj = alpha * x.(xoff + j)], skipped when exactly zero, then
   [y.(yoff + rowind k) += values k * xj] in storage order — the
   panels' fallback when one of their [xj] is zero.  It reads [xj]
   itself: a float argument would be boxed at every call. *)
let[@opera.hot] acc_column a ~alpha ~x ~xoff ~y ~yoff j =
  let xj = alpha *. Array.unsafe_get x (xoff + j) in
  if not (Util.Floats.equal_exact xj 0.0) then
    for k = Array.unsafe_get a.colptr j to Array.unsafe_get a.colptr (j + 1) - 1 do
      let r = yoff + Array.unsafe_get a.rowind k in
      Array.unsafe_set y r (Array.unsafe_get y r +. (Array.unsafe_get a.values k *. xj))
    done

(* ---- multi-vector product -------------------------------------------
   [mul_block_acc] reads each column of A once for a panel of up to
   three vectors: the columns stay in the caller's column-major blocks,
   and beyond three scattered output streams the panel's offsets and
   operands no longer fit in registers (a six-wide panel measured
   slower than two three-wide ones).  Per vector the arithmetic is {!mul_vec_acc}'s: [xj =
   alpha * x_c(j)], skipped when exactly zero, then the column's
   entries scattered in storage order — so each column of the result
   is bitwise the single-vector product.  When one of the panel's [xj]
   is zero the column falls back to per-vector scatters, which keeps
   the skip exact (adding [v * 0] could turn a [-0] into [+0]). *)

let[@opera.hot] mul_panel3 a ~alpha ~x ~y ~cols ~c0 =
  let { colptr; rowind; values; ncols; _ } = a in
  let n = ncols in
  let o0 = Array.unsafe_get cols c0 * n in
  let o1 = Array.unsafe_get cols (c0 + 1) * n in
  let o2 = Array.unsafe_get cols (c0 + 2) * n in
  for j = 0 to ncols - 1 do
    let x0 = alpha *. Array.unsafe_get x (o0 + j) in
    let x1 = alpha *. Array.unsafe_get x (o1 + j) in
    let x2 = alpha *. Array.unsafe_get x (o2 + j) in
    let k0 = Array.unsafe_get colptr j and k1 = Array.unsafe_get colptr (j + 1) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
      && (not (Util.Floats.equal_exact x2 0.0))
    then
      for k = k0 to k1 - 1 do
        let v = Array.unsafe_get values k and r = Array.unsafe_get rowind k in
        Array.unsafe_set y (o0 + r) (Array.unsafe_get y (o0 + r) +. (v *. x0));
        Array.unsafe_set y (o1 + r) (Array.unsafe_get y (o1 + r) +. (v *. x1));
        Array.unsafe_set y (o2 + r) (Array.unsafe_get y (o2 + r) +. (v *. x2))
      done
    else begin
      acc_column a ~alpha ~x ~xoff:o0 ~y ~yoff:o0 j;
      acc_column a ~alpha ~x ~xoff:o1 ~y ~yoff:o1 j;
      acc_column a ~alpha ~x ~xoff:o2 ~y ~yoff:o2 j
    end
  done

let[@opera.hot] mul_panel2 a ~alpha ~x ~y ~cols ~c0 =
  let { colptr; rowind; values; ncols; _ } = a in
  let n = ncols in
  let o0 = Array.unsafe_get cols c0 * n in
  let o1 = Array.unsafe_get cols (c0 + 1) * n in
  for j = 0 to ncols - 1 do
    let x0 = alpha *. Array.unsafe_get x (o0 + j) in
    let x1 = alpha *. Array.unsafe_get x (o1 + j) in
    let k0 = Array.unsafe_get colptr j and k1 = Array.unsafe_get colptr (j + 1) in
    if
      (not (Util.Floats.equal_exact x0 0.0))
      && (not (Util.Floats.equal_exact x1 0.0))
    then
      for k = k0 to k1 - 1 do
        let v = Array.unsafe_get values k and r = Array.unsafe_get rowind k in
        Array.unsafe_set y (o0 + r) (Array.unsafe_get y (o0 + r) +. (v *. x0));
        Array.unsafe_set y (o1 + r) (Array.unsafe_get y (o1 + r) +. (v *. x1))
      done
    else begin
      acc_column a ~alpha ~x ~xoff:o0 ~y ~yoff:o0 j;
      acc_column a ~alpha ~x ~xoff:o1 ~y ~yoff:o1 j
    end
  done

(* The one-column panel, on the vectors at offset [off] of [x] and [y]:
   the single-vector product {!mul_vec_acc} at [off = 0], where [a] may
   be rectangular. *)
let[@opera.hot] mul_panel1 a ~alpha ~x ~y ~off =
  let { colptr; rowind; values; ncols; _ } = a in
  for j = 0 to ncols - 1 do
    let xj = alpha *. Array.unsafe_get x (off + j) in
    if not (Util.Floats.equal_exact xj 0.0) then
      for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
        let r = off + Array.unsafe_get rowind k in
        Array.unsafe_set y r (Array.unsafe_get y r +. (Array.unsafe_get values k *. xj))
      done
  done

let[@opera.hot] mul_vec_acc ?(alpha = 1.0) a x y =
  if Array.length x <> a.ncols || Array.length y <> a.nrows then
    invalid_arg "Sparse.mul_vec_acc: dimension mismatch";
  mul_panel1 a ~alpha ~x ~y ~off:0

(* [y <- 0 + 1.0 * A x]: [1.0 *. x] is exact, so this is the plain
   product bit for bit. *)
let mul_vec_into a x y =
  Array.fill y 0 (Array.length y) 0.0;
  mul_vec_acc a x y

let mul_vec a x =
  let y = Vec.create a.nrows in
  mul_vec_acc a x y;
  y

let[@opera.hot] mul_block_acc ?(alpha = 1.0) a ~x ~y ~cols ~lo ~hi =
  if a.nrows <> a.ncols then invalid_arg "Sparse.mul_block_acc: matrix is not square";
  if lo < 0 || hi > Array.length cols || lo > hi then
    invalid_arg "Sparse.mul_block_acc: column range out of bounds";
  let n = a.ncols in
  for c = lo to hi - 1 do
    let col = cols.(c) in
    if col < 0 || (col + 1) * n > Array.length x || (col + 1) * n > Array.length y then
      invalid_arg "Sparse.mul_block_acc: column outside the block vectors"
  done;
  let c0 = ref lo in
  while !c0 < hi do
    let left = hi - !c0 in
    let width = Int.min left 3 in
    (match width with
    | 3 -> mul_panel3 a ~alpha ~x ~y ~cols ~c0:!c0
    | 2 -> mul_panel2 a ~alpha ~x ~y ~cols ~c0:!c0
    | _ -> mul_panel1 a ~alpha ~x ~y ~off:(cols.(!c0) * n));
    c0 := !c0 + width
  done

let mul_vec_t a x =
  if Array.length x <> a.nrows then invalid_arg "Sparse.mul_vec_t: dimension mismatch";
  let y = Vec.create a.ncols in
  for j = 0 to a.ncols - 1 do
    let acc = ref 0.0 in
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      acc := !acc +. (a.values.(k) *. x.(a.rowind.(k)))
    done;
    y.(j) <- !acc
  done;
  y

let transpose a =
  (* Counting sort of entries by row. *)
  let counts = Array.make (a.nrows + 1) 0 in
  Array.iter (fun i -> counts.(i + 1) <- counts.(i + 1) + 1) a.rowind;
  for i = 1 to a.nrows do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let colptr = Array.copy counts in
  let next = Array.copy counts in
  let m = nnz a in
  let rowind = Array.make m 0 and values = Array.make m 0.0 in
  for j = 0 to a.ncols - 1 do
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(k) in
      let pos = next.(i) in
      next.(i) <- pos + 1;
      rowind.(pos) <- j;
      values.(pos) <- a.values.(k)
    done
  done;
  { nrows = a.ncols; ncols = a.nrows; colptr; rowind; values }

(* Merge two sorted columns: the workhorse for add/axpy. *)
let axpy ~alpha a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then invalid_arg "Sparse.axpy: dimension mismatch";
  let colptr = Array.make (a.ncols + 1) 0 in
  let cap = nnz a + nnz b in
  let rowind = Array.make cap 0 and values = Array.make cap 0.0 in
  let pos = ref 0 in
  for j = 0 to a.ncols - 1 do
    let ka = ref a.colptr.(j) and kb = ref b.colptr.(j) in
    let ea = a.colptr.(j + 1) and eb = b.colptr.(j + 1) in
    while !ka < ea || !kb < eb do
      let push i v =
        if not (Util.Floats.equal_exact v 0.0) then begin
          rowind.(!pos) <- i;
          values.(!pos) <- v;
          incr pos
        end
      in
      if !ka < ea && (!kb >= eb || a.rowind.(!ka) < b.rowind.(!kb)) then begin
        push a.rowind.(!ka) (alpha *. a.values.(!ka));
        incr ka
      end
      else if !kb < eb && (!ka >= ea || b.rowind.(!kb) < a.rowind.(!ka)) then begin
        push b.rowind.(!kb) b.values.(!kb);
        incr kb
      end
      else begin
        push a.rowind.(!ka) ((alpha *. a.values.(!ka)) +. b.values.(!kb));
        incr ka;
        incr kb
      end
    done;
    colptr.(j + 1) <- !pos
  done;
  {
    nrows = a.nrows;
    ncols = a.ncols;
    colptr;
    rowind = Array.sub rowind 0 !pos;
    values = Array.sub values 0 !pos;
  }

let add a b = axpy ~alpha:1.0 a b

let scale alpha a =
  if Util.Floats.equal_exact alpha 0.0 then zero ~nrows:a.nrows ~ncols:a.ncols
  else { a with values = Array.map (fun v -> alpha *. v) a.values }

let map_values f a = { a with values = Array.map f a.values }

let diag a =
  if a.nrows <> a.ncols then invalid_arg "Sparse.diag: matrix is not square";
  Array.init a.nrows (fun i -> get a i i)

let of_diag d =
  let n = Array.length d in
  of_triplets ~nrows:n ~ncols:n (List.init n (fun i -> (i, i, d.(i))))

(* Process-wide count of kron invocations.  The matrix-free Galerkin
   path promises never to build the augmented Kronecker operator; tests
   pin that promise by sampling this counter around a solve. *)
let kron_calls = Atomic.make 0

let kron_count () = Atomic.get kron_calls

let kron c a =
  Atomic.incr kron_calls;
  let crows, ccols = Dense.dims c in
  let nrows = crows * a.nrows and ncols = ccols * a.ncols in
  (* Count entries per output column first, then fill. *)
  let nz_per_col_c = Array.make ccols 0 in
  for jc = 0 to ccols - 1 do
    let cnt = ref 0 in
    for ic = 0 to crows - 1 do
      if not (Util.Floats.equal_exact (Dense.get c ic jc) 0.0) then incr cnt
    done;
    nz_per_col_c.(jc) <- !cnt
  done;
  let colptr = Array.make (ncols + 1) 0 in
  for jc = 0 to ccols - 1 do
    for ja = 0 to a.ncols - 1 do
      let j = (jc * a.ncols) + ja in
      colptr.(j + 1) <- nz_per_col_c.(jc) * (a.colptr.(ja + 1) - a.colptr.(ja))
    done
  done;
  for j = 1 to ncols do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  let total = colptr.(ncols) in
  let rowind = Array.make total 0 and values = Array.make total 0.0 in
  for jc = 0 to ccols - 1 do
    for ja = 0 to a.ncols - 1 do
      let j = (jc * a.ncols) + ja in
      let pos = ref colptr.(j) in
      for ic = 0 to crows - 1 do
        let cij = Dense.get c ic jc in
        if not (Util.Floats.equal_exact cij 0.0) then
          for k = a.colptr.(ja) to a.colptr.(ja + 1) - 1 do
            rowind.(!pos) <- (ic * a.nrows) + a.rowind.(k);
            values.(!pos) <- cij *. a.values.(k);
            incr pos
          done
      done
    done
  done;
  validate { nrows; ncols; colptr; rowind; values }

let permute_sym a p =
  if a.nrows <> a.ncols then invalid_arg "Sparse.permute_sym: matrix is not square";
  if Array.length p <> a.nrows then invalid_arg "Sparse.permute_sym: permutation length";
  let n = a.nrows in
  let pinv = Perm.inverse p in
  (* Counting pass over new columns, then fill and per-column sort. *)
  let counts = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let nj = pinv.(j) in
    counts.(nj + 1) <- counts.(nj + 1) + (a.colptr.(j + 1) - a.colptr.(j))
  done;
  for j = 1 to n do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let m = nnz a in
  let colptr = Array.copy counts in
  let next = Array.copy counts in
  let rowind = Array.make m 0 and values = Array.make m 0.0 in
  for j = 0 to n - 1 do
    let nj = pinv.(j) in
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let pos = next.(nj) in
      next.(nj) <- pos + 1;
      rowind.(pos) <- pinv.(a.rowind.(k));
      values.(pos) <- a.values.(k)
    done
  done;
  (* Sort each column by row index (insertion-friendly segments). *)
  for j = 0 to n - 1 do
    let lo = colptr.(j) and hi = colptr.(j + 1) in
    let seg = Array.init (hi - lo) (fun t -> (rowind.(lo + t), values.(lo + t))) in
    Array.sort (fun (r1, _) (r2, _) -> compare r1 r2) seg;
    Array.iteri
      (fun t (r, v) ->
        rowind.(lo + t) <- r;
        values.(lo + t) <- v)
      seg
  done;
  { nrows = n; ncols = n; colptr; rowind; values }

let filter pred a =
  (* Array-based structural filter preserving per-column order. *)
  let m = nnz a in
  let rowind = Array.make m 0 and values = Array.make m 0.0 in
  let colptr = Array.make (a.ncols + 1) 0 in
  let pos = ref 0 in
  for j = 0 to a.ncols - 1 do
    for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      let i = a.rowind.(k) in
      if pred i j then begin
        rowind.(!pos) <- i;
        values.(!pos) <- a.values.(k);
        incr pos
      end
    done;
    colptr.(j + 1) <- !pos
  done;
  {
    nrows = a.nrows;
    ncols = a.ncols;
    colptr;
    rowind = Array.sub rowind 0 !pos;
    values = Array.sub values 0 !pos;
  }

let lower a = filter (fun i j -> i >= j) a

let upper a = filter (fun i j -> i <= j) a

let is_symmetric ?(tol = 1e-12) a =
  a.nrows = a.ncols
  &&
  let at = transpose a in
  let d = axpy ~alpha:(-1.0) at a in
  Array.for_all (fun v -> Float.abs v <= tol) d.values

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a.values

let approx_equal ?(tol = 1e-9) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  &&
  let d = axpy ~alpha:(-1.0) a b in
  Array.for_all (fun v -> Float.abs v <= tol) d.values
