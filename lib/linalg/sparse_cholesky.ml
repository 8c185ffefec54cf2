exception Not_positive_definite of int

type t = {
  n : int;
  p : Perm.t;
  lp : int array; (* column pointers of L *)
  li : int array; (* row indices, diagonal entry first per column *)
  lx : float array;
}

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
  (* Numeric up-looking pass.  The column update below is the hot loop:
     it reads unchecked, on invariants the factor maintains itself —
     every [stack] entry is below [n]; [lp.(i) + 1 <= fill.(i) <=
     lp.(i+1)], so the slots read lie in column [i]; and the rows
     written so far are below [k].  It runs four entries at a time.  The
     rows one column updates are distinct, so each [x] slot still takes
     exactly the subtraction the one-at-a-time loop gave it: no sum is
     reordered and [L] is the same bit for bit. *)
  for k = 0 to n - 1 do
    let top = ereach ~colptr ~rowind ~parent ~k ~w ~stack ~path in
    (* Scatter the upper column k of A into x. *)
    let d = ref 0.0 in
    for p = colptr.(k) to colptr.(k + 1) - 1 do
      let i = rowind.(p) in
      if i = k then d := values.(p) else x.(i) <- values.(p)
    done;
    for t = top to n - 1 do
      let i = Array.unsafe_get stack t in
      let p0 = Array.unsafe_get lp i + 1 and p1 = Array.unsafe_get fill i in
      let lki = Array.unsafe_get x i /. Array.unsafe_get lx (p0 - 1) in
      Array.unsafe_set x i 0.0;
      let p = ref p0 in
      while !p + 3 < p1 do
        let q = !p in
        let r0 = Array.unsafe_get li q and r1 = Array.unsafe_get li (q + 1) in
        let r2 = Array.unsafe_get li (q + 2) and r3 = Array.unsafe_get li (q + 3) in
        Array.unsafe_set x r0 (Array.unsafe_get x r0 -. (Array.unsafe_get lx q *. lki));
        Array.unsafe_set x r1 (Array.unsafe_get x r1 -. (Array.unsafe_get lx (q + 1) *. lki));
        Array.unsafe_set x r2 (Array.unsafe_get x r2 -. (Array.unsafe_get lx (q + 2) *. lki));
        Array.unsafe_set x r3 (Array.unsafe_get x r3 -. (Array.unsafe_get lx (q + 3) *. lki));
        p := q + 4
      done;
      for q = !p to p1 - 1 do
        let r = Array.unsafe_get li q in
        Array.unsafe_set x r (Array.unsafe_get x r -. (Array.unsafe_get lx q *. lki))
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
  { n; p; lp; li; lx }

(* ---- triangular solves ---------------------------------------------
   One kernel solves with [L L^T]: {!solve_block_ws}, a single
   right-hand side being its one-column call.  The forward sweep
   scatters column [j] into the rows below it once [y_j] is final; the
   backward sweep gathers column [j] from the rows below it, all
   final by then.  Both run in place over a workspace the caller
   owns, so a factor is immutable and one factor serves any number of
   domains at once.  There is no parallel sweep over one right-hand
   side: domains split a block's columns instead. *)

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

(* ---- panels ---------------------------------------------------------
   One pass over [L] serves a panel of up to [block_panel] right-hand
   sides held node-major in the workspace: entry (i, c) sits at
   [i * w + c] for a panel of width [w], so each entry of [L] updates
   [w] adjacent slots.  The gather fuses the permutation [y = P b] and
   the scatter its inverse, reading and writing the caller's
   column-major blocks directly.  Within each column the arithmetic is
   {!lower_solve} then {!upper_solve} operation for operation — the
   forward scatter in column order, the backward gather in ascending
   row order — so every column equals the one-column sweep bit for bit
   whatever the panel it rode in.

   Panels are unrolled for widths 6, 4, 3 and 2 (a width of 5 splits
   3 + 2; a single column runs {!lower_solve} then {!upper_solve} on the
   workspace), with one float register per column and unchecked
   indexing: a generic loop over the panel width reloads its bounds and
   loop counter per entry and runs slower than single solves.  The
   indices are safe by construction —
   [factor] builds, and [decode] re-validates, monotone column pointers
   and in-range row indices, and the entry checks below bound the
   caller's arrays. *)

let block_panel = 6

let block_work_dim f ~k = Int.min (Int.max k 1) block_panel * f.n

let[@opera.hot] gather_panel f (w : Vec.t) ~width ~cols ~c0 (src : Vec.t) =
  let n = f.n and p = f.p in
  for c = 0 to width - 1 do
    let off = Array.unsafe_get cols (c0 + c) * n in
    for i = 0 to n - 1 do
      Array.unsafe_set w ((i * width) + c) (Array.unsafe_get src (off + Array.unsafe_get p i))
    done
  done

let[@opera.hot] scatter_panel f (w : Vec.t) ~width ~cols ~c0 (dst : Vec.t) =
  let n = f.n and p = f.p in
  for c = 0 to width - 1 do
    let off = Array.unsafe_get cols (c0 + c) * n in
    for i = 0 to n - 1 do
      Array.unsafe_set dst (off + Array.unsafe_get p i) (Array.unsafe_get w ((i * width) + c))
    done
  done

let[@opera.hot] sweep_panel6 f w =
  let lp = f.lp and li = f.li and lx = f.lx in
  for j = 0 to f.n - 1 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let d = Array.unsafe_get lx q0 and bj = 6 * j in
    let y0 = Array.unsafe_get w bj /. d in
    let y1 = Array.unsafe_get w (bj + 1) /. d in
    let y2 = Array.unsafe_get w (bj + 2) /. d in
    let y3 = Array.unsafe_get w (bj + 3) /. d in
    let y4 = Array.unsafe_get w (bj + 4) /. d in
    let y5 = Array.unsafe_get w (bj + 5) /. d in
    Array.unsafe_set w bj y0;
    Array.unsafe_set w (bj + 1) y1;
    Array.unsafe_set w (bj + 2) y2;
    Array.unsafe_set w (bj + 3) y3;
    Array.unsafe_set w (bj + 4) y4;
    Array.unsafe_set w (bj + 5) y5;
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 6 * Array.unsafe_get li q in
      Array.unsafe_set w r (Array.unsafe_get w r -. (v *. y0));
      Array.unsafe_set w (r + 1) (Array.unsafe_get w (r + 1) -. (v *. y1));
      Array.unsafe_set w (r + 2) (Array.unsafe_get w (r + 2) -. (v *. y2));
      Array.unsafe_set w (r + 3) (Array.unsafe_get w (r + 3) -. (v *. y3));
      Array.unsafe_set w (r + 4) (Array.unsafe_get w (r + 4) -. (v *. y4));
      Array.unsafe_set w (r + 5) (Array.unsafe_get w (r + 5) -. (v *. y5))
    done
  done;
  for j = f.n - 1 downto 0 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let bj = 6 * j in
    let a0 = ref (Array.unsafe_get w bj) in
    let a1 = ref (Array.unsafe_get w (bj + 1)) in
    let a2 = ref (Array.unsafe_get w (bj + 2)) in
    let a3 = ref (Array.unsafe_get w (bj + 3)) in
    let a4 = ref (Array.unsafe_get w (bj + 4)) in
    let a5 = ref (Array.unsafe_get w (bj + 5)) in
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 6 * Array.unsafe_get li q in
      a0 := !a0 -. (v *. Array.unsafe_get w r);
      a1 := !a1 -. (v *. Array.unsafe_get w (r + 1));
      a2 := !a2 -. (v *. Array.unsafe_get w (r + 2));
      a3 := !a3 -. (v *. Array.unsafe_get w (r + 3));
      a4 := !a4 -. (v *. Array.unsafe_get w (r + 4));
      a5 := !a5 -. (v *. Array.unsafe_get w (r + 5))
    done;
    let d = Array.unsafe_get lx q0 in
    Array.unsafe_set w bj (!a0 /. d);
    Array.unsafe_set w (bj + 1) (!a1 /. d);
    Array.unsafe_set w (bj + 2) (!a2 /. d);
    Array.unsafe_set w (bj + 3) (!a3 /. d);
    Array.unsafe_set w (bj + 4) (!a4 /. d);
    Array.unsafe_set w (bj + 5) (!a5 /. d)
  done

let[@opera.hot] sweep_panel4 f w =
  let lp = f.lp and li = f.li and lx = f.lx in
  for j = 0 to f.n - 1 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let d = Array.unsafe_get lx q0 and bj = 4 * j in
    let y0 = Array.unsafe_get w bj /. d in
    let y1 = Array.unsafe_get w (bj + 1) /. d in
    let y2 = Array.unsafe_get w (bj + 2) /. d in
    let y3 = Array.unsafe_get w (bj + 3) /. d in
    Array.unsafe_set w bj y0;
    Array.unsafe_set w (bj + 1) y1;
    Array.unsafe_set w (bj + 2) y2;
    Array.unsafe_set w (bj + 3) y3;
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 4 * Array.unsafe_get li q in
      Array.unsafe_set w r (Array.unsafe_get w r -. (v *. y0));
      Array.unsafe_set w (r + 1) (Array.unsafe_get w (r + 1) -. (v *. y1));
      Array.unsafe_set w (r + 2) (Array.unsafe_get w (r + 2) -. (v *. y2));
      Array.unsafe_set w (r + 3) (Array.unsafe_get w (r + 3) -. (v *. y3))
    done
  done;
  for j = f.n - 1 downto 0 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let bj = 4 * j in
    let a0 = ref (Array.unsafe_get w bj) in
    let a1 = ref (Array.unsafe_get w (bj + 1)) in
    let a2 = ref (Array.unsafe_get w (bj + 2)) in
    let a3 = ref (Array.unsafe_get w (bj + 3)) in
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 4 * Array.unsafe_get li q in
      a0 := !a0 -. (v *. Array.unsafe_get w r);
      a1 := !a1 -. (v *. Array.unsafe_get w (r + 1));
      a2 := !a2 -. (v *. Array.unsafe_get w (r + 2));
      a3 := !a3 -. (v *. Array.unsafe_get w (r + 3))
    done;
    let d = Array.unsafe_get lx q0 in
    Array.unsafe_set w bj (!a0 /. d);
    Array.unsafe_set w (bj + 1) (!a1 /. d);
    Array.unsafe_set w (bj + 2) (!a2 /. d);
    Array.unsafe_set w (bj + 3) (!a3 /. d)
  done

let[@opera.hot] sweep_panel3 f w =
  let lp = f.lp and li = f.li and lx = f.lx in
  for j = 0 to f.n - 1 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let d = Array.unsafe_get lx q0 and bj = 3 * j in
    let y0 = Array.unsafe_get w bj /. d in
    let y1 = Array.unsafe_get w (bj + 1) /. d in
    let y2 = Array.unsafe_get w (bj + 2) /. d in
    Array.unsafe_set w bj y0;
    Array.unsafe_set w (bj + 1) y1;
    Array.unsafe_set w (bj + 2) y2;
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 3 * Array.unsafe_get li q in
      Array.unsafe_set w r (Array.unsafe_get w r -. (v *. y0));
      Array.unsafe_set w (r + 1) (Array.unsafe_get w (r + 1) -. (v *. y1));
      Array.unsafe_set w (r + 2) (Array.unsafe_get w (r + 2) -. (v *. y2))
    done
  done;
  for j = f.n - 1 downto 0 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let bj = 3 * j in
    let a0 = ref (Array.unsafe_get w bj) in
    let a1 = ref (Array.unsafe_get w (bj + 1)) in
    let a2 = ref (Array.unsafe_get w (bj + 2)) in
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 3 * Array.unsafe_get li q in
      a0 := !a0 -. (v *. Array.unsafe_get w r);
      a1 := !a1 -. (v *. Array.unsafe_get w (r + 1));
      a2 := !a2 -. (v *. Array.unsafe_get w (r + 2))
    done;
    let d = Array.unsafe_get lx q0 in
    Array.unsafe_set w bj (!a0 /. d);
    Array.unsafe_set w (bj + 1) (!a1 /. d);
    Array.unsafe_set w (bj + 2) (!a2 /. d)
  done

let[@opera.hot] sweep_panel2 f w =
  let lp = f.lp and li = f.li and lx = f.lx in
  for j = 0 to f.n - 1 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let d = Array.unsafe_get lx q0 and bj = 2 * j in
    let y0 = Array.unsafe_get w bj /. d in
    let y1 = Array.unsafe_get w (bj + 1) /. d in
    Array.unsafe_set w bj y0;
    Array.unsafe_set w (bj + 1) y1;
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 2 * Array.unsafe_get li q in
      Array.unsafe_set w r (Array.unsafe_get w r -. (v *. y0));
      Array.unsafe_set w (r + 1) (Array.unsafe_get w (r + 1) -. (v *. y1))
    done
  done;
  for j = f.n - 1 downto 0 do
    let q0 = Array.unsafe_get lp j and q1 = Array.unsafe_get lp (j + 1) in
    let bj = 2 * j in
    let a0 = ref (Array.unsafe_get w bj) in
    let a1 = ref (Array.unsafe_get w (bj + 1)) in
    for q = q0 + 1 to q1 - 1 do
      let v = Array.unsafe_get lx q and r = 2 * Array.unsafe_get li q in
      a0 := !a0 -. (v *. Array.unsafe_get w r);
      a1 := !a1 -. (v *. Array.unsafe_get w (r + 1))
    done;
    let d = Array.unsafe_get lx q0 in
    Array.unsafe_set w bj (!a0 /. d);
    Array.unsafe_set w (bj + 1) (!a1 /. d)
  done

let[@opera.hot] solve_block_ws f ~work ~cols ~lo ~hi ~src ~dst =
  let n = f.n in
  if lo < 0 || hi > Array.length cols || lo > hi then
    invalid_arg "Sparse_cholesky.solve_block_ws: column range out of bounds";
  if Array.length work < block_work_dim f ~k:(hi - lo) then
    invalid_arg "Sparse_cholesky.solve_block_ws: workspace too small";
  for c = lo to hi - 1 do
    let col = cols.(c) in
    if col < 0 || (col + 1) * n > Array.length src || (col + 1) * n > Array.length dst then
      invalid_arg "Sparse_cholesky.solve_block_ws: column outside the block vectors"
  done;
  let c0 = ref lo in
  while !c0 < hi do
    let left = hi - !c0 in
    let width = if left >= 6 then 6 else if left = 5 then 3 else left in
    gather_panel f work ~width ~cols ~c0:!c0 src;
    (match width with
    | 6 -> sweep_panel6 f work
    | 4 -> sweep_panel4 f work
    | 3 -> sweep_panel3 f work
    | 2 -> sweep_panel2 f work
    | _ ->
        lower_solve f work;
        upper_solve f work);
    scatter_panel f work ~width ~cols ~c0:!c0 dst;
    c0 := !c0 + width
  done

(* The one column of a single right-hand side: column 0 of [b] itself.
   Never written. *)
let one_column = [| 0 |]

let[@opera.hot] solve_in_place_ws f ?domains:_ ~work b =
  if Array.length b <> f.n then invalid_arg "Sparse_cholesky.solve_in_place_ws: dimension mismatch";
  if Array.length work <> f.n then
    invalid_arg "Sparse_cholesky.solve_in_place_ws: workspace dimension mismatch";
  solve_block_ws f ~work ~cols:one_column ~lo:0 ~hi:1 ~src:b ~dst:b

let solve f b =
  let x = Array.copy b in
  solve_in_place_ws f ~work:(Array.make f.n 0.0) x;
  x

(* ---- artifact serialization ----------------------------------------
   A factor is its dimension and four arrays; the bytes are exact
   (floats cross the codec as bit patterns), so a decoded factor solves
   bitwise identically to the one that was encoded.  [decode]
   re-validates every structural invariant — the artifact store's
   checksum catches corruption, this catches a well-formed frame holding
   a malformed factor. *)

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
      (* Off-diagonal entries live strictly below the diagonal: the
         in-place sweeps assume no row a column updates in the forward
         pass is final yet, and every row it reads in the backward pass
         is. *)
      if q > lp.(j) && li.(q) <= j then
        fail "cholesky: column %d has a non-strict lower entry at row %d" j li.(q)
    done
  done;
  { n; p; lp; li; lx }

let nnz_l f = f.lp.(f.n)

let dim f = f.n

let permutation f = Array.copy f.p
