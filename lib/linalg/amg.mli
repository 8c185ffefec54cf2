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
    of V-cycles ({!apply}) through a caller-owned workspace, so the
    apply path allocates nothing and a million-node mean block can be
    preconditioned thousands of times per solve.  One application is a
    purely sequential pass: given the same hierarchy and right-hand
    side it is bitwise-identical at any domain count, which is what
    lets the mean-block preconditioner fan chaos blocks across domains
    without perturbing the repo's determinism guarantees.

    Setup state round-trips through the v2 artifact codec
    ({!to_frame} / {!of_frame_sections}): level storage is
    Bigarray-backed, so a mapped load keeps zero-copy views over the
    artifact file. *)

type t

val build : ?cycles:int -> ?max_levels:int -> ?coarsest:int -> Sparse.t -> t
(** [build a] constructs the hierarchy for the SPD matrix [a].
    [cycles] is the fixed V-cycle count per {!apply} (default 1);
    [max_levels] caps the depth (default 10); [coarsest] is the size
    below which the level is solved directly (default 64).
    Aggregation, smoothing and the Galerkin products are sequential and
    deterministic — a function of [a] alone. *)

val dim : t -> int
(** Fine-level dimension [n]. *)

val cycles : t -> int
(** Fixed V-cycle count one {!apply} runs. *)

val stored_nnz : t -> int
(** Stored entries across the hierarchy (level operators and
    prolongators plus the dense coarsest factor) — the memory figure
    analogous to a factor's [nnz_l]. *)

val levels : t -> int

val level_dims : t -> int list
(** Unknown counts per level, finest first. *)

(** {1 Allocation-free application} *)

type ws
(** Per-level scratch for {!apply}.  One workspace per concurrent
    applier: block-parallel callers give each chunk its own. *)

val create_ws : t -> ws

val apply : t -> ws -> b:Vec.t -> x:Vec.t -> unit
(** [apply t ws ~b ~x] overwrites [x] with [cycles t] V(1,1)-cycles for
    the rhs [b], starting from zero.  Allocation-free and sequential —
    usable inside hot solver loops and deterministic at any domain
    count. *)

(** {1 Solver-compatible wrappers} *)

val vcycle : t -> Vec.t -> Vec.t
(** One application to a residual, fresh output vector — usable directly
    as a {!Cg.preconditioner}.  Builds a workspace per call; hot users
    keep a {!ws} and call {!apply}. *)

val solve :
  ?tol:float -> ?max_iter:int -> t -> Sparse.t -> Vec.t -> Vec.t * Cg.stats
(** Stand-alone AMG-preconditioned CG solve of [a x = b]. *)

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
