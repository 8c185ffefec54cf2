type t = {
  nrows : int;
  ncols : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
}

let create ?(capacity = 64) ~nrows ~ncols () =
  let capacity = Int.max capacity 1 in
  {
    nrows;
    ncols;
    rows = Array.make capacity 0;
    cols = Array.make capacity 0;
    vals = Array.make capacity 0.0;
    len = 0;
  }

let grow b =
  let cap = Array.length b.rows in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.rows <- extend b.rows 0;
  b.cols <- extend b.cols 0;
  b.vals <- extend b.vals 0.0

let add b i j v =
  if i < 0 || i >= b.nrows || j < 0 || j >= b.ncols then
    invalid_arg (Printf.sprintf "Sparse_builder.add: (%d,%d) out of %dx%d" i j b.nrows b.ncols);
  if b.len = Array.length b.rows then grow b;
  b.rows.(b.len) <- i;
  b.cols.(b.len) <- j;
  b.vals.(b.len) <- v;
  b.len <- b.len + 1

let stamp_conductance b n1 n2 g =
  match (n1, n2) with
  | None, None -> ()
  | Some i, None | None, Some i -> add b i i g
  | Some i, Some j ->
      add b i i g;
      add b j j g;
      add b i j (-.g);
      add b j i (-.g)

let nnz_triplets b = b.len

let to_csc b =
  let n = b.len in
  (* Counting sort by column, then sort each column segment by row and merge
     duplicates. *)
  let counts = Array.make (b.ncols + 1) 0 in
  for k = 0 to n - 1 do
    counts.(b.cols.(k) + 1) <- counts.(b.cols.(k) + 1) + 1
  done;
  for j = 1 to b.ncols do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let next = Array.copy counts in
  let rows_sorted = Array.make n 0 and vals_sorted = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let j = b.cols.(k) in
    let pos = next.(j) in
    next.(j) <- pos + 1;
    rows_sorted.(pos) <- b.rows.(k);
    vals_sorted.(pos) <- b.vals.(k)
  done;
  let colptr = Array.make (b.ncols + 1) 0 in
  let rowind = Array.make n 0 and values = Array.make n 0.0 in
  let pos = ref 0 in
  for j = 0 to b.ncols - 1 do
    let lo = counts.(j) and hi = counts.(j + 1) in
    let seg = Array.init (hi - lo) (fun t -> (rows_sorted.(lo + t), vals_sorted.(lo + t))) in
    Array.sort (fun (r1, _) (r2, _) -> compare r1 r2) seg;
    let m = Array.length seg in
    let k = ref 0 in
    while !k < m do
      let r, _ = seg.(!k) in
      let acc = ref 0.0 in
      while !k < m && fst seg.(!k) = r do
        acc := !acc +. snd seg.(!k);
        incr k
      done;
      if not (Util.Floats.equal_exact !acc 0.0) then begin
        rowind.(!pos) <- r;
        values.(!pos) <- !acc;
        incr pos
      end
    done;
    colptr.(j + 1) <- !pos
  done;
  Sparse.create ~nrows:b.nrows ~ncols:b.ncols ~colptr
    ~rowind:(Array.sub rowind 0 !pos)
    ~values:(Array.sub values 0 !pos)
