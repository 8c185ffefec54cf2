(** Dense matrices in row-major storage.

    Used for small systems: polynomial-chaos coupling matrices, Jacobi
    rotations for eigensolves, reference implementations for testing the
    sparse kernels. *)

type t = private { rows : int; cols : int; data : float array }
(** [data.(i * cols + j)] is entry (i, j). *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Rows must all have the same length. *)

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_entry : t -> int -> int -> float -> unit
(** [add_entry a i j v] adds [v] to entry (i, j). *)

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val matmul : t -> t -> t

val matvec : t -> Vec.t -> Vec.t

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t a x] is [transpose a * x] without forming the transpose. *)

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val frobenius_norm : t -> float

val max_abs : t -> float

val is_symmetric : ?tol:float -> t -> bool

val approx_equal : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
