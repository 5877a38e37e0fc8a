(** SUU problem instances (paper §2.1).

    An instance bundles [n] unit-step jobs, [m] machines, the success
    probabilities [p_ij] (probability that one step of machine [i] on job
    [j] completes it), and a precedence DAG. Construction validates that
    probabilities lie in [\[0,1\]] and that every job has at least one
    machine with positive success probability — the paper's standing
    assumption, without which the expected makespan is infinite. *)

type t

(** Why construction was rejected. The hostile cases carry the offending
    coordinates so callers (the serving layer, the conformance checker)
    can report — or programmatically handle — exactly what was wrong
    instead of pattern-matching on an exception message. *)
type error =
  | No_machines  (** [p] has no rows *)
  | Row_length_mismatch of { machine : int; expected : int; got : int }
      (** a row of [p] does not have one entry per job *)
  | Bad_probability of { machine : int; job : int; value : float }
      (** [p.(machine).(job)] is NaN, infinite, or outside [\[0,1\]] *)
  | Incapable_job of { job : int }
      (** no machine has positive success probability on [job], so every
          execution would run forever *)

exception Invalid of error
(** Raised by {!create} and {!independent}. A printer is registered, so an
    uncaught [Invalid] still renders {!error_to_string}'s message. *)

val error_to_string : error -> string
(** Human-readable one-line description, e.g.
    ["Instance.create: probability p[1][2] = nan outside [0,1]"]. *)

val create_checked :
  p:float array array -> dag:Suu_dag.Dag.t -> (t, error) result
(** Non-raising {!create}: validation as data. The first error in
    machine-major scan order is reported. *)

val create : p:float array array -> dag:Suu_dag.Dag.t -> t
(** [create ~p ~dag] with [p.(i).(j)] the success probability of machine
    [i] on job [j]; the number of jobs is [Dag.n dag] and the number of
    machines is [Array.length p].
    @raise Invalid on an empty [p], dimension mismatch, probabilities that
    are NaN, infinite or outside [\[0,1\]], or a job with no capable
    machine. *)

val independent : p:float array array -> t
(** [create] with an edgeless DAG.
    @raise Invalid as {!create}. *)

val n : t -> int
(** Number of jobs. *)

val m : t -> int
(** Number of machines. *)

val dag : t -> Suu_dag.Dag.t

val prob : t -> machine:int -> job:int -> float
(** [p_ij]. One load from a row-major flat matrix — cheap enough for the
    simulation inner loop. *)

val sorted_pairs : t -> float array * int array * int array
(** [(probs, machines, jobs)]: the positive-probability pairs in the MSM
    greedy processing order — non-increasing [p_ij], ties by machine then
    job — as parallel arrays ([probs.(k)] is the probability of pair [k],
    assigned to machine [machines.(k)] and job [jobs.(k)]). Sorted on the
    first call and cached, so per-step MSM decisions scan it in O(nm)
    instead of rebuilding and re-sorting the pair list; instances whose
    pairs are never read never pay for the sort. Safe to call from
    several domains at once: every caller gets arrays equal to those a
    single caller would see. The arrays are shared; callers must not
    mutate them. *)

val probs_for_job : t -> int -> float array
(** Column of [p] for a job: index by machine. *)

val capable_machines : t -> int -> int list
(** Machines [i] with [p_ij > 0], ascending. *)

val total_rate : t -> int -> float
(** [Σ_i p_ij] for a job — the highest mass it can accumulate per step. *)

val best_prob : t -> int -> float
(** [max_i p_ij] for a job. *)

val best_machine : t -> int -> int
(** A machine attaining [best_prob] (smallest index among ties). *)

val p_min : t -> float
(** Minimum positive [p_ij] over the whole instance (the paper's [p_min],
    used to bound TOPT). *)

val machine_max_prob : t -> int -> float
(** [max_j p_ij] for a machine — its best per-step contribution. *)

val pp : Format.formatter -> t -> unit

val transpose_probs : float array array -> float array array
(** Convenience for building instances from job-major matrices:
    [transpose_probs q] with [q.(j).(i)] gives [p.(i).(j)]. *)
