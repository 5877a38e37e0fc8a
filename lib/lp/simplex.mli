(** Two-phase primal simplex on a full tableau.

    The paper's chain algorithm needs an exact optimum of the relaxation
    (LP1) (and (LP2) for independent jobs); this is a from-scratch solver.
    All variables are non-negative; rows may be ≤, ≥ or =. Phase 1
    minimises the sum of artificial variables to find a basic feasible
    solution; phase 2 optimises the true objective. Entering variables are
    chosen by Dantzig's rule and the solver switches to Bland's rule after
    a stall is detected, which guarantees termination.

    The tableau is stored dense, but a pivot gathers the entering column
    once and eliminates only over the nonzeros of the normalised pivot row
    (sweeping the whole row once it is more than half full). While the
    tableau stays finite, skipping a zero changes at most the sign of a
    zero entry, which no decision of the solver reads, so pivots, outcomes
    and every returned bit are those of the plain dense elimination; the
    test suite checks this against that solver.

    Storage: the constraint rows and the reduced-cost row live in one
    flat float64 [Bigarray] outside the OCaml heap, row [r] at
    [r * ncols]. Each domain keeps its buffer between solves and zeroes
    only the prefix a solve uses, so repeated solves neither allocate
    nor leave dead tableaux for the GC. A solve needing more than 2{^23}
    floats (64 MB) gets a fresh buffer that is not kept. Solves on
    different domains run in parallel; two systhreads of one domain
    must not solve at the same time, as they would share the buffer. *)

type outcome =
  | Optimal of { objective : float; solution : float array }
      (** optimum value and a primal solution (length [nvars]) *)
  | Infeasible
  | Unbounded

exception Iteration_limit
(** Raised if the iteration budget is exhausted (pathological inputs). *)

val solve : ?max_iters:int -> ?eps:float -> Lp.problem -> outcome
(** Solve the problem. [max_iters] (default [200_000]) bounds total pivots
    across both phases; [eps] (default [1e-9]) is the pivot tolerance. *)
