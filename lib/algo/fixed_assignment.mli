(** Fixed-assignment policy: every job pinned to a single machine.

    Models the fixed-assignment regime of arXiv:1904.07271, where each
    job must be dedicated to one machine up front (no migration, no
    replication) and machines work through their pinned queues. The
    assignment is chosen by greedy load balancing over effective rates:
    jobs in decreasing order of their best expected duration
    [min_i 1/p_ij] (longest-processing-time first), each assigned to the
    machine minimising [current load + 1/p_ij] over machines with
    [p_ij > 0]. Within a machine the pinned jobs are served
    shortest-expected-processing-time first. The result is one
    (machine, job) pair per job, exposed through
    {!Suu_core.Policy.of_greedy_pairs} so it rides the vectorized
    trial-lane kernel — and, because no job appears twice, each machine
    simply advances through its own queue as jobs finish. *)

exception Too_expensive of string
(** Raised by {!assignment} and {!policy} when a job has no machine with
    a finite expected load: [1/p_ij] overflows on every machine (a [p]
    near [1e-320]), or adds up to infinity on every loaded one. The
    message names the job and its best [p]. *)

val assignment : Suu_core.Instance.t -> int array
(** [assignment inst] is the pinned machine of each job (index [j] holds
    the machine job [j] is dedicated to). Deterministic; every entry is
    a machine with [p > 0] for that job. Raises {!Too_expensive}. *)

val policy : Suu_core.Instance.t -> Suu_core.Policy.t
(** The fixed-assignment policy (named ["suu-fixed"], structure
    {!Suu_core.Policy.Greedy_pairs}, exactly one pair per job). Works on
    every DAG class — precedence is respected through eligibility, each
    machine serving the eligible pinned job with the shortest expected
    duration. *)
