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

(* No unary float helper ([is_zero], [nonzero], ...) may live here.
   Under [-opaque] (the default profile, the build users and the
   benchmark run) a call to an ordinary function of another library
   goes through its closure with the float boxed: one such test per
   element cost a 2,500-node sparse product 4,868 minor words per call.
   Only an [external] primitive is expanded inline at every call site,
   so guard and sparsity tests write [equal_exact x 0.0] —
   [equal_exact (-0.0) 0.0] holds and [equal_exact nan 0.0] does not,
   so NaN propagates through guarded divides instead of being silently
   zeroed. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** Tolerance comparison for computed quantities:
    [|a - b| <= atol + rtol * max |a| |b|].  Defaults [rtol = 1e-12],
    [atol = 0.0]. *)
