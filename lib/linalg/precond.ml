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

   Every backend applies in place through a caller-owned workspace, so
   the chunked mean-block loop stays allocation-free, and every apply
   is deterministic at any domain count: the exact factor's
   level-scheduled sweeps are bitwise-stable by construction, and the
   IC(0) and AMG applies are purely sequential. *)

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

type ws =
  | Exact_ws of Vec.t
  | Incomplete_ws
  | Multigrid_ws of { mb : Vec.t; mw : Amg.ws }

let create_ws = function
  | Exact f -> Exact_ws (Array.make (Sparse_cholesky.dim f) 0.0)
  | Incomplete _ -> Incomplete_ws
  | Multigrid t -> Multigrid_ws { mb = Array.make (Amg.dim t) 0.0; mw = Amg.create_ws t }

(* [domains] only reaches the exact factor, whose level-scheduled
   triangular sweeps are bitwise-identical to the sequential ones; the
   approximate backends are sequential applies.  The option is passed
   through unopened: re-wrapping it would allocate a [Some] per call. *)
let apply_in_place t ws ?domains (x : Vec.t) =
  match (t, ws) with
  | Exact f, Exact_ws work -> Sparse_cholesky.solve_in_place_ws f ?domains ~work x
  | Incomplete f, Incomplete_ws -> Cg.ic0_solve_in_place f x
  | Multigrid t, Multigrid_ws { mb; mw } ->
      Array.blit x 0 mb 0 (Array.length x);
      Amg.apply t mw ~b:mb ~x
  | _ -> invalid_arg "Precond.apply_in_place: workspace does not match backend"

let as_cg_preconditioner t =
  let ws = create_ws t in
  fun r ->
    let y = Array.copy r in
    apply_in_place t ws y;
    y
