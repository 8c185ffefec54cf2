(* Intent-revealing float comparisons.

   opera-lint (tools/lint) bans raw [=] / [<>] on floats in lib/: an
   exact compare is almost always either a sparsity/guard check that is
   *deliberately* exact (skipping structurally-zero work, guarding a
   divide) or a bug (comparing computed values that differ in the last
   ulp).  This module is the single home for the exact compares, so
   every call site names its intent and the deliberate ones are
   auditable in one place. *)

(* The one sanctioned exact comparison.  NaN is never equal to anything,
   including itself — callers guarding divides with [is_zero] therefore
   still divide by NaN; that is the IEEE-faithful behaviour we want
   (NaN propagates instead of being silently zeroed).  A primitive, not
   a function: the compiler expands it to an unboxed float compare at
   every call site, even across modules under [-opaque], so hot kernels
   can call it per element without boxing. *)
external equal_exact : float -> float -> bool = "%equal"

let is_zero x = equal_exact x 0.0

let nonzero x = not (equal_exact x 0.0)

(* Tolerance compare for *computed* quantities: absolute-or-relative,
   symmetric in [a] and [b].  [atol] dominates near zero, [rtol] away
   from it. *)
let approx_equal ?(rtol = 1e-12) ?(atol = 0.0) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))
