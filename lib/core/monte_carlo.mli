(** Monte-Carlo baseline.

    Solves the *same* linearized stochastic system as the Galerkin path —
    each sample draws [xi], realizes [G(xi)], [C(xi)], [U(xi, t)], performs
    a full deterministic transient (fresh factorization per sample, exactly
    what OPERA is priced against in Table 1), and accumulates running
    moments per node and timestep. *)

type sampler =
  | Pseudo  (** xoshiro pseudo-random sampling — the paper's baseline *)
  | Quasi_halton
      (** Halton low-discrepancy points (quasi-Monte Carlo), transformed
          through each dimension's measure; converges ~1/N on the smooth
          voltage response — the classical MC upgrade, kept as an ablation *)

type config = {
  samples : int;
  seed : int64;
  h : float;
  steps : int;
  ordering : Linalg.Ordering.kind;
  probes : int array;
  sampler : sampler;
}

val default_config : h:float -> steps:int -> config
(** 1000 samples (the paper's count), seed 7, nested-dissection ordering,
    pseudo-random sampling. *)

type result = {
  n : int;
  steps : int;
  h : float;
  samples : int;
  mean : float array;  (** [(steps+1) * n] *)
  variance : float array;  (** population variance, same layout *)
  probe_values : float array array array;
      (** [probe_values.(p).(step).(sample)] — raw voltages for histograms *)
  elapsed_seconds : float;
}

val run : ?progress:(int -> unit) -> Stochastic_model.t -> config -> result
(** Runs the samples in order on the calling domain; [progress] receives
    the number of samples done after each one. *)

val mean_at : result -> step:int -> node:int -> float

val variance_at : result -> step:int -> node:int -> float

val std_at : result -> step:int -> node:int -> float
