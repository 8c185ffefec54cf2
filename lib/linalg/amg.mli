(** Smoothed-aggregation algebraic multigrid, packaged as a
    preconditioner.

    Greedy aggregation; a Jacobi-smoothed prolongator
    [P = (I - w D^-1 A) P0] over the piecewise-constant aggregate map
    [P0], with [w = 4 / (3 rho)] and [rho] the largest eigenvalue of
    [D^-1 A] from ten power iterations, each row then truncated below
    0.2 of its largest entry and rescaled; Galerkin coarse operators
    [P^T A P]; weighted-Jacobi V(1,1)-cycles and a dense direct
    coarsest solve — the "multi-grid" complexity reducer the paper
    points to (its reference [4]).  One V-cycle contracts the error by
    about 0.45 on the generated 10^4-node grids, so it converges both
    as a stationary iteration and, much faster, as a CG
    preconditioner.

    The hierarchy is built once ({!build}) and applied as a fixed number
    of V-cycles by one kernel, {!apply_block}, through a caller-owned
    workspace, so the apply path allocates nothing and a million-node
    mean block can be preconditioned thousands of times per solve.  It
    runs the cycles on k right-hand sides per pass over each level; a
    single vector is the one-column block, and every column of a wider
    block is bitwise that one-column apply.  The apply is a purely
    sequential pass: given the same hierarchy and right-hand sides it is
    bitwise-identical at any domain count, which is what lets the
    mean-block preconditioner and the ST point solves split their
    columns across domains without perturbing the repo's determinism
    guarantees.

    Setup state round-trips through the v2 artifact codec
    ({!to_frame} / {!of_frame_sections}): level storage is
    Bigarray-backed, so a mapped load keeps zero-copy views over the
    artifact file. *)

type t

val build : ?cycles:int -> ?max_levels:int -> ?coarsest:int -> Sparse.t -> t
(** [build a] constructs the hierarchy for the SPD matrix [a].
    [cycles] is the fixed V-cycle count per {!apply_block} (default 1);
    [max_levels] caps the depth (default 10); [coarsest] is the size
    below which the level is solved directly (default 64).
    Aggregation, smoothing and the Galerkin products are sequential and
    deterministic — a function of [a] alone. *)

val dim : t -> int
(** Fine-level dimension [n]. *)

val cycles : t -> int
(** Fixed V-cycle count one {!apply_block} runs. *)

val stored_nnz : t -> int
(** Stored entries across the hierarchy (level operators and
    prolongators plus the dense coarsest factor) — the memory figure
    analogous to a factor's [nnz_l]. *)

val levels : t -> int

val level_dims : t -> int list
(** Unknown counts per level, finest first. *)

(** {1 Allocation-free application} *)

type block_ws
(** Node-major per-level scratch for {!apply_block}, holding up to a
    fixed number of columns.  One per concurrent applier:
    block-parallel callers give each chunk its own. *)

val create_block_ws : t -> k:int -> block_ws
(** Workspace for blocks of up to [k] columns: three floats per unknown
    of every level for each column of the widest panel, [min k 6]. *)

val apply_block :
  t -> block_ws -> src:Vec.t -> dst:Vec.t -> cols:int array -> lo:int -> hi:int -> unit
(** [apply_block t ws ~src ~dst ~cols ~lo ~hi] overwrites each column
    [c] in [cols.(lo .. hi-1)] of the column-major block vector [dst]
    with [cycles t] V(1,1)-cycles, started from zero, for the same
    column of [src] ([src == dst] is allowed), column [c] occupying
    [c*n .. c*n+n-1].  One pass over each level's operator and
    prolongator serves all the columns: smoothing, residuals,
    restriction, prolongation and the dense coarsest solve are k-wide.
    Every column equals the one-column apply ([~cols:[|c|] ~lo:0
    ~hi:1]) bit for bit.  Allocation-free and sequential — usable inside
    hot solver loops and deterministic at any domain count; [hi - lo]
    must not exceed the workspace width. *)

(** {1 Solver-compatible wrapper} *)

val solve :
  ?tol:float -> ?max_iter:int -> t -> Sparse.t -> Vec.t -> Vec.t * Cg.stats
(** Stand-alone AMG-preconditioned CG solve of [a x = b], one
    one-column {!apply_block} per iteration. *)

(** {1 Artifact codec} *)

val artifact_kind : string

val artifact_version : int
(** 2: the frame carries each level's prolongator.  Version-1 frames
    (aggregate maps) fail the version check and are rebuilt. *)

val to_frame : t -> (Util.Codec.encoder -> unit) * Util.Codec.section_data list
(** Split the setup state for a v2 frame ({!Util.Codec.frame_v2}, and
    the shape {!Scenario}'s [Store.find_or_build_sections] consumes):
    shape metadata in the meta writer, the per-level CSC operators,
    inverse diagonals and CSC prolongators as 8-aligned numeric
    sections, plus the coarsest operator (whose dense factor is rebuilt
    on load). *)

val of_frame_sections : Util.Codec.decoder -> Util.Codec.sections -> t
(** Rebuild a hierarchy from a decoded v2 frame.  Validates every level
    operator and prolongator (colptr monotonicity, index ranges,
    dimension chaining) and raises
    {!Util.Codec.Corrupt} on damage; when the sections are mapped the
    level storage stays zero-copy over the artifact file. *)
