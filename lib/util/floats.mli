(** Intent-revealing float comparisons.

    opera-lint (R1, [exact-float]) bans raw [=] / [<>] / [==] on floats
    inside [lib/]: Galerkin/PCE kernels accumulate rounding, so an exact
    compare on a {e computed} value is a silent-failure bug, while exact
    compares on {e structural} values (stored zeros, sentinel signs) are
    deliberate and should say so.  These helpers name the intent; the
    one raw compare is the compiler primitive behind {!equal_exact}. *)

external equal_exact : float -> float -> bool = "%equal"
(** Bitwise-semantics IEEE equality ([a = b]).  Use only for structural
    values that were stored, never computed (e.g. a sign parsed as
    [1.0] / [-1.0]).  [nan] is equal to nothing, including itself.
    Declared as the compiler primitive so every call site compiles to
    an inline, unboxed float compare — the per-element sparsity test of
    the allocation-free kernels calls it directly. *)

val is_zero : float -> bool
(** [equal_exact x 0.0] — guard checks before division and
    structural-sparsity tests.  [is_zero (-0.0) = true];
    [is_zero nan = false], so NaN propagates through guarded divides
    instead of being silently zeroed. *)

val nonzero : float -> bool
(** [not (is_zero x)] — skip-zero-work sparsity checks in kernels. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** Tolerance comparison for computed quantities:
    [|a - b| <= atol + rtol * max |a| |b|].  Defaults [rtol = 1e-12],
    [atol = 0.0]. *)
