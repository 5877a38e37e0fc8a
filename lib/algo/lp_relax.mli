(** The linear-programming relaxations (LP1) and (LP2) of AccuMass-C
    (paper §4.1).

    For a job subset partitioned into precedence chains, (LP1) minimises a
    length [t] subject to: every job accumulates fractional mass ≥ 1/2
    (constraint 1), every machine's total fractional load is ≤ [t]
    (constraint 2), the window lengths [d_j] along every chain sum to ≤ [t]
    (constraint 3), [x_ij ≤ d_j] (constraint 4) and [d_j ≥ 1]
    (constraint 5). (LP2) — used for independent jobs in Theorem 4.5 —
    drops constraints 3–5. Lemma 4.2: the optimum [T*] of (LP1) satisfies
    [T* ≤ 16 TOPT], which also makes [T*/16] a valid makespan lower bound
    (see [Bounds]). *)

type fractional = {
  x : float array array;  (** x.(i).(j) ≥ 0; 0 for jobs outside the subset *)
  d : float array;  (** window lengths; 0 for jobs outside the subset *)
  t_star : float;  (** the LP optimum *)
  jobs : int list;  (** the job subset, ascending *)
  chains : int list list;  (** the chain partition used (empty for (LP2)) *)
}

exception Lp_failure of string
(** Raised if the LP solver reports infeasible or unbounded, or runs out
    of iterations. The relaxations are feasible and bounded for every
    valid instance, so this is numerical: a job whose every p_ij is below
    the simplex pivot tolerance (say [1e-12]) makes them read as
    infeasible. *)

val mass_target : float
(** The 1/2 of constraint (1). *)

val solve_chains :
  Suu_core.Instance.t -> chains:int list list -> fractional
(** Solve (LP1). [chains] must be disjoint lists of jobs, each in
    precedence-compatible order; their union is the job subset. *)

val solve_independent : Suu_core.Instance.t -> jobs:int list -> fractional
(** Solve (LP2) over the given jobs ([chains] is left empty). *)

val relaxation :
  Suu_core.Instance.t -> chains:int list list -> windows:bool -> Suu_lp.Lp.problem
(** The problem {!solve_chains} ([windows = true], (LP1)) or
    {!solve_independent} ([windows = false], (LP2), singleton [chains])
    hands to the simplex, row for row. *)

val verify : Suu_core.Instance.t -> fractional -> (unit, string) result
(** Re-check all (LP1)/(LP2) constraints on a fractional solution —
    property-test oracle. *)
