(** Symmetric eigenvalue problems.

    Two solvers: cyclic Jacobi for general dense symmetric matrices (used by
    the Karhunen–Loève modes of [Opera.Spatial]), and implicit-shift QL for
    symmetric tridiagonal matrices (used by Golub–Welsch Gaussian
    quadrature). *)

val symmetric : ?max_sweeps:int -> Dense.t -> float array * Dense.t
(** [symmetric a] returns [(eigenvalues, v)] for the symmetric matrix [a];
    eigenvalues are sorted ascending and column [j] of [v] is the
    eigenvector for eigenvalue [j].  Raises [Invalid_argument] if [a] is not
    square or not symmetric to a loose tolerance. *)

val tridiagonal : diag:float array -> off:float array -> float array * Dense.t
(** [tridiagonal ~diag ~off] solves the symmetric tridiagonal eigenproblem
    with diagonal [diag] (length n) and off-diagonal [off] (length n-1,
    [off.(i)] couples rows i and i+1).  Returns eigenvalues ascending and
    the orthogonal eigenvector matrix (columns are eigenvectors).
    Raises [Failure] if the QL iteration fails to converge. *)
