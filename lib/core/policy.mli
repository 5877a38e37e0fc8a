(** Adaptive scheduling policies.

    A policy chooses an assignment given the execution state — the general
    notion of schedule from Definition 2.1, restricted (as the paper argues
    is sufficient) to deciders that see the unfinished-job set and the step
    number. Regimens (Definition 2.2) are policies ignoring [step];
    oblivious schedules are policies ignoring [unfinished]. *)

type state = {
  step : int;  (** 0-based index of the step being decided *)
  unfinished : bool array;  (** per job *)
  eligible : bool array;  (** unfinished with all predecessors finished *)
}

(** A greedy pair-scan regimen: machine–job pairs are scanned in the fixed
    order of the parallel arrays, and a pair is taken when the machine is
    still idle, the job is eligible, and the job's accumulated success mass
    stays within {!greedy_mass_cap}. This is exactly MSM-ALG's allocation
    loop, exported structurally so the engine can replay the same scan
    word-wide across trial lanes. *)
type greedy = {
  g_probs : float array;  (** success probability of each pair *)
  g_machines : int array;  (** machine of each pair *)
  g_jobs : int array;  (** job of each pair *)
  g_n : int;  (** number of jobs *)
  g_m : int;  (** number of machines *)
}

(** Structural knowledge about a policy, used by the simulation engine to
    pick specialised execution paths. [Oblivious_schedule] tags a policy
    whose every decision is a fixed function of the step number alone —
    the engine's estimators then run its column mode of the
    trial-batched kernel, skipping unit-step simulation in favour of
    geometric leapfrogging over the schedule. [Greedy_pairs] tags a
    greedy pair-scan regimen, the kernel's greedy mode. [General]
    promises nothing: the estimators run the naive stepper. *)
type structure =
  | Oblivious_schedule of Oblivious.t
  | Greedy_pairs of greedy
  | General

type t = {
  name : string;
  structure : structure;
      (** What the engine may assume about the decisions; constructors
          other than {!of_oblivious} and {!of_greedy_pairs} always say
          [General]. *)
  fresh : unit -> state -> Assignment.t;
      (** [fresh ()] creates a decision function for one execution; any
          internal state (e.g. a cursor into an oblivious schedule) is
          re-created per execution so runs are independent. *)
}

val greedy_mass_cap : float
(** The mass bound of the greedy scan, [1. +. 1e-12] — shared between the
    scalar decision function and the engine's vectorized kernel so both
    execute the identical policy. *)

val make : string -> (unit -> state -> Assignment.t) -> t
(** A general policy from its [fresh] function (structure [General]). *)

val of_oblivious : string -> Oblivious.t -> t
(** The policy that plays an oblivious schedule: machines assigned to
    finished or ineligible jobs idle (Definition 2.1 semantics, enforced by
    the engine anyway). The schedule is recorded in [structure], which
    lets the engine's estimators take the vectorized column path. *)

val of_greedy_pairs :
  string ->
  n:int ->
  m:int ->
  probs:float array ->
  machines:int array ->
  jobs:int array ->
  t
(** The greedy pair-scan regimen over the given pair arrays (scanned in
    index order). The scalar decision function is bit-identical to
    [Msm.assign_into]'s scan; the structure tag lets the engine's
    estimators take the vectorized trial-lane path. Raises [Invalid_argument]
    if the arrays' lengths disagree or an index is out of range. *)

val of_regimen : string -> (bool array -> Assignment.t) -> t
(** A regimen (Definition 2.2): the assignment depends only on the
    unfinished-job set, which is what the function receives. *)

val stateless : string -> (state -> Assignment.t) -> t
(** A policy computed fresh from the state each step. *)

val oblivious : t -> Oblivious.t option
(** The schedule a policy is known to play obliviously, if any — the
    engine's licence for the vectorized column path. *)

val greedy : t -> greedy option
(** The greedy pair-scan a policy is known to play, if any — the engine's
    licence for the vectorized trial-lane fast path. *)
