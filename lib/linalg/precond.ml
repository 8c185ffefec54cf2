(* Mean-block preconditioner backends.

   The Galerkin solvers and the ST collocation backend both reduce to
   repeated solves with the n x n nominal (mean) matrix; this module is
   the knob that picks how those solves happen.  [Cholesky] is the
   exact factor (today's default, unchanged bitwise); [Ic0] trades
   setup cost for an approximate apply; [Amg] (smoothed aggregation)
   keeps both setup and apply near-linear in n, which is what survives
   at 10^5-10^6 nodes;
   [Auto] resolves to [Cholesky] below {!auto_threshold} unknowns and
   [Amg] at or above it.

   Every backend applies through one block kernel and a caller-owned
   workspace, so the chunked mean-block loop stays allocation-free, and
   every apply is sequential, hence deterministic at any domain count:
   domains split the columns of a block, never one apply.  The block
   apply serves k vectors per pass over the backend's data; a single
   vector is the one-column block. *)

type kind = Cholesky | Ic0 | Amg | Auto

let to_string = function
  | Cholesky -> "cholesky"
  | Ic0 -> "ic0"
  | Amg -> "amg"
  | Auto -> "auto"

let of_string = function
  | "cholesky" -> Some Cholesky
  | "ic0" -> Some Ic0
  | "amg" -> Some Amg
  | "auto" -> Some Auto
  | _ -> None

let all = [ Cholesky; Ic0; Amg; Auto ]

let usage = "cholesky|ic0|amg|auto"

(* Below this many unknowns the exact factor's superlinear setup is
   still cheap and its apply unbeatable; above it the factor's fill
   (memory as much as time) is what breaks first. *)
let auto_threshold = 20_000

let resolve kind ~n =
  match kind with Auto -> if n >= auto_threshold then Amg else Cholesky | k -> k

type t =
  | Exact of Sparse_cholesky.t
  | Incomplete of Cg.ic0_factor
  | Multigrid of Amg.t

let of_factor f = Exact f

let make ?(cycles = 1) ?perm ?(ordering = Ordering.Nested_dissection) kind a =
  let n, _ = Sparse.dims a in
  match resolve kind ~n with
  | Cholesky ->
      Exact
        (match perm with
        | Some p -> Sparse_cholesky.factor ~perm:p a
        | None -> Sparse_cholesky.factor ~ordering a)
  | Ic0 -> Incomplete (Cg.ic0_factorize a)
  | Amg -> Multigrid (Amg.build ~cycles a)
  | Auto -> assert false (* resolve never returns Auto *)

let backend = function
  | Exact _ -> Cholesky
  | Incomplete _ -> Ic0
  | Multigrid _ -> Amg

let dim = function
  | Exact f -> Sparse_cholesky.dim f
  | Incomplete f -> Cg.ic0_dim f
  | Multigrid t -> Amg.dim t

let stored_nnz = function
  | Exact f -> Sparse_cholesky.nnz_l f
  | Incomplete f -> Cg.ic0_nnz f
  | Multigrid t -> Amg.stored_nnz t

(* Block applies: one pass of the backend over k columns.  The exact
   factor and AMG have true multi-vector kernels; IC(0) loops its
   single-vector solve over the columns through one column buffer. *)
type block_ws =
  | Exact_bws of Vec.t
  | Incomplete_bws of Vec.t
  | Multigrid_bws of Amg.block_ws

let create_block_ws t ~k =
  match t with
  | Exact f -> Exact_bws (Array.make (Sparse_cholesky.block_work_dim f ~k) 0.0)
  | Incomplete f -> Incomplete_bws (Array.make (Cg.ic0_dim f) 0.0)
  | Multigrid a -> Multigrid_bws (Amg.create_block_ws a ~k)

let apply_block t bws ~src ~dst ~cols ~lo ~hi =
  match (t, bws) with
  | Exact f, Exact_bws work -> Sparse_cholesky.solve_block_ws f ~work ~cols ~lo ~hi ~src ~dst
  | Incomplete f, Incomplete_bws col ->
      let n = Array.length col in
      for c = lo to hi - 1 do
        let off = cols.(c) * n in
        Array.blit src off col 0 n;
        Cg.ic0_solve_in_place f col;
        Array.blit col 0 dst off n
      done
  | Multigrid a, Multigrid_bws w -> Amg.apply_block a w ~src ~dst ~cols ~lo ~hi
  | _ -> invalid_arg "Precond.apply_block: workspace does not match backend"

(* A single vector is the one-column block. *)
let create_ws t = create_block_ws t ~k:1

(* Column 0 of [x], in place; only ever read, so one array serves every
   caller. *)
let one_column = [| 0 |]

(* [domains] is accepted and ignored: every backend's apply is one
   sequential pass. *)
let apply_in_place t ws ?domains:_ (x : Vec.t) =
  if Array.length x <> dim t then invalid_arg "Precond.apply_in_place: dimension mismatch";
  apply_block t ws ~src:x ~dst:x ~cols:one_column ~lo:0 ~hi:1

let as_cg_preconditioner t =
  let ws = create_ws t in
  fun r ->
    let y = Array.copy r in
    apply_in_place t ws y;
    y
