(** Growable triplet accumulator for stamping sparse matrices.

    MNA assembly adds many small contributions at repeated coordinates;
    the builder stores raw triplets in amortized O(1) and compresses them
    (duplicates summed) into CSC in O(nnz log nnz). *)

type t

val create : ?capacity:int -> nrows:int -> ncols:int -> unit -> t

val add : t -> int -> int -> float -> unit
(** [add b i j v] records a contribution [v] at (i, j). Zero contributions
    are recorded too (they vanish at compression). *)

val stamp_conductance : t -> int option -> int option -> float -> unit
(** [stamp_conductance b n1 n2 g] stamps a two-terminal conductance [g]
    between nodes [n1] and [n2]; [None] denotes the ground node, whose row
    and column are not represented. *)

val nnz_triplets : t -> int

val to_csc : t -> Sparse.t
(** Compress to CSC, summing duplicates and dropping exact zeros. The
    builder can keep accumulating afterwards. *)
