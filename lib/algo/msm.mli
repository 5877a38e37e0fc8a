(** MSM-ALG: greedy 1/3-approximation for MaxSumMass (paper §3.1, Fig. 2).

    MaxSumMass asks for a single-step assignment [f : M → J ∪ {⊥}]
    maximising the total job mass [Σ_j min(Σ_{i : f(i)=j} p_ij, 1)]. The
    greedy algorithm scans the pairs [(i, j)] by non-increasing [p_ij] and
    assigns machine [i] to job [j] whenever [i] is still free and [j]'s
    mass would stay ≤ 1; Theorem 3.2 proves the result is within a factor
    1/3 of optimal (the problem itself is NP-hard). *)

val assign :
  Suu_core.Instance.t -> jobs:bool array -> Suu_core.Assignment.t
(** One-step assignment over the jobs with [jobs.(j) = true] (the
    "unfinished" set the scheduler is targeting); other jobs receive no
    machines. Deterministic: ties are broken by machine then job index.
    O(nm): a single {!Suu_core.Policy.greedy_assign_into} pass over the
    instance's cached pair order. *)

val total_mass : Suu_core.Instance.t -> Suu_core.Assignment.t -> float
(** Objective value of an assignment: [Σ_j min(mass_j, 1)]. *)

val optimal_mass_brute_force : Suu_core.Instance.t -> jobs:bool array -> float
(** Exact MaxSumMass optimum by exhaustive search over all [(#jobs+1)^m]
    assignments — test oracle for the 1/3 guarantee; only for tiny
    instances.
    @raise Invalid_argument when the search space exceeds ~10⁷. *)
