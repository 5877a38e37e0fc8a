(** Priority-weighted variants of the greedy mass maximiser — adaptive
    heuristics for precedence-constrained instances.

    SUU-I-ALG (and its MSM-ALG core) treats all eligible jobs alike, which
    is provably fine for independent jobs but ignores that, under
    precedence constraints, finishing a job with many waiting descendants
    unlocks more parallelism. These policies run the same greedy scan as
    MSM-ALG but process pairs by [p_ij × w_j] for a job weight [w_j],
    biasing machines toward structurally urgent jobs. No approximation
    guarantee is claimed beyond the independent case (where weights
    degenerate gracefully); EXP-A/EXP-E measure them against SUU-I-ALG. *)

type weighting =
  | Uniform  (** [w_j = 1]: exactly MSM-ALG / SUU-I-ALG *)
  | Descendants  (** [w_j = 1 + #descendants of j] *)
  | Critical_path
      (** [w_j = ] number of vertices on the longest directed path starting
          at [j] — the remaining-depth priority classic in deterministic
          scheduling *)

val weights : Suu_core.Instance.t -> weighting -> float array
(** The weight vector this instance induces. *)

val assign :
  Suu_core.Instance.t ->
  weights:float array ->
  jobs:bool array ->
  Suu_core.Assignment.t
(** Greedy scan by non-increasing [p_ij · w_j] (ties by machine then
    job), same mass cap and machine-use rules as {!Msm.assign}.
    @raise Invalid_argument when [weights] or [jobs] is not of length
    [n]. *)

val policy : ?weighting:weighting -> Suu_core.Instance.t -> Suu_core.Policy.t
(** Adaptive policy applying [assign] to the eligible set each step
    (default weighting [Critical_path]): a greedy pair-scan regimen
    ({!Suu_core.Policy.of_greedy_pairs}) over the pairs ranked once by
    [p_ij · w_j], so the engine's estimators run it on the vectorized
    trial-lane kernel. Named
    ["msm-uniform" | "msm-descendants" | "msm-critical-path"]. *)
