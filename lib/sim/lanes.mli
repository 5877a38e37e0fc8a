(** Trial-batched ("vectorized") Monte-Carlo kernel.

    One native int word carries one completion bit per {e trial lane} for
    each job, so a whole batch of trials advances with word-wide
    AND/OR/popcount instead of per-trial branching. OCaml native ints are
    63-bit and unboxed — hence 63 lanes per word, the price of keeping the
    hot loop allocation-free without flambda.

    Bernoulli draws are {e thresholded lane counters}: a success mask over
    the undecided lanes is built by comparing implicit per-lane 53-bit
    uniforms bit-serially against [ceil(p * 2^53)] — the exact acceptance
    set of the scalar [Rng.float rng < p] — at ~log2(lanes)+2 raw draws
    per mask instead of one uniform per lane. For oblivious schedules the
    kernel processes jobs job-major and switches to per-lane geometric
    skips (a geometric "leapfrog" over the schedule, started mid-schedule) once
    few lanes remain undecided; for greedy pair-scan regimens the MSM-ALG
    scan itself runs word-wide once per step with the draws fused in.

    The kernel draws from a private splitmix stream, so it is
    {e distribution-equivalent} to the naive stepper (pinned by the
    [lanes-*] conformance properties against the exact CDF oracles), not
    stream-equivalent. {!run_word_ref} replays the stepper's draw order
    per lane and {e is} bit-identical to {!Engine.run} trials on the same
    generators — the agreement test that pins the lane bookkeeping
    itself. *)

type t
(** A compiled kernel: per-policy plans plus reusable per-word arenas.
    Not thread-safe; create one per domain. *)

val lanes_per_word : int
(** Number of trial lanes per word (63). *)

val create :
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  t option
(** [create ?releases ?availability inst policy] compiles a kernel, or
    [None] when the policy carries no vectorizable structure tag
    ({!Suu_core.Policy.oblivious} or {!Suu_core.Policy.greedy}). Raises
    {!Releases.Invalid} on a malformed [releases] vector, like the
    scalar engine. [availability] is the churn seam: oblivious kernels
    compile the {!Suu_dyn.Churn.mask}ed schedule, greedy kernels keep
    the scan intact (the policy is churn-oblivious) but suppress the
    Bernoulli draw of any machine that is down at the current step —
    the gate is uniform across lanes because availability is
    trial-independent. *)

val run_word :
  t -> seed:int -> max_steps:int -> lanes:int -> makespans:int array -> unit
(** [run_word k ~seed ~max_steps ~lanes ~makespans] simulates [lanes]
    independent trials (at most {!lanes_per_word}) and writes each lane's
    makespan into [makespans.(0..lanes-1)]; a lane still running after
    [max_steps] steps is truncated and reported as [-1]. All randomness
    derives from [seed]. *)

val run_word_ref :
  t -> rngs:Suu_prob.Rng.t array -> max_steps:int -> makespans:int array -> unit
(** Scalar-order reference mode, greedy kernels only (raises
    [Invalid_argument] for oblivious ones). Lane [l] draws from
    [rngs.(l)] in exactly the naive stepper's order — full assignment
    first, then machines in index order — so its outcome is bit-identical
    to {!Engine.run} with the same generator. [Array.length rngs]
    gives the lane count. Test harness for the lane bookkeeping; not a
    fast path. *)
