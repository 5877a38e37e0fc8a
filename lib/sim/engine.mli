(** Monte-Carlo execution of schedules (the stochastic environment).

    Plays the role of the paper's probabilistic machine model: at every
    step, each machine assigned to an eligible unfinished job completes it
    with probability [p_ij], independently of everything else; a job
    finishes when at least one of its machines succeeds; eligibility
    updates at step boundaries.

    {2 The word-seeded contract}

    Every estimator below is one fold over {e words} of
    {!Lanes.lanes_per_word} trials. Word [w] of seed [s] covers trials
    [w * lanes_per_word] up to the next word boundary and draws from
    [trial_seed s w]: policies tagged
    {!Suu_core.Policy.Oblivious_schedule} or
    {!Suu_core.Policy.Greedy_pairs} run the whole word through the
    trial-batched {!Lanes} kernel; untagged policies run the naive
    stepper lane by lane, trial [k] on [Rng.create (trial_seed s k)].
    Because a word's samples depend only on [(s, w)] and its lane count,
    sequential, ranged and multi-domain runs over the same words are
    bit-identical by construction. The naive stepper ([run], [trace]) is
    the oracle: its Bernoulli draw sequence is stable across versions,
    and the kernel is distribution-equivalent to it (pinned by the
    [lanes-vs-exact] conformance property), not stream-equivalent.

    {2 Sequential stopping}

    Every estimator accepts [?ci_target] (default: off). When set, the
    estimate stops drawing trials at the first word boundary where the
    95% CI half-width of the mean makespan over completed samples is at
    most [ci_target]; the [trials] field of the result reports the
    executed count. A range estimate accumulates from its own [lo], so
    its stopping point is a property of the range alone.
    @raise Invalid_argument if [ci_target <= 0]. *)

type outcome = {
  makespan : int;  (** steps until the last job completed *)
  completed : bool;  (** [false] iff the [max_steps] cap was hit *)
}

val counters : Suu_obs.Counters.t
(** Process-wide engine telemetry, bumped by every estimator (at word or
    naive-trial granularity, from any domain): [engine_trials_total],
    [engine_steps_simulated_total] (naive-stepper steps inside
    estimates), [engine_vector_words_total] (words the {!Lanes} kernel
    executed) and [engine_early_stops_total] (estimates cut short by a
    [ci_target]). The serving layer folds these into its Prometheus
    exposition. *)

val default_horizon : Suu_core.Instance.t -> int
(** A safe step cap: generous multiple of [n / p_min · (1 + ln n)], the
    paper's crude TOPT upper bound (§3.2). Executions that exceed it are
    reported as incomplete rather than looping forever. *)

val run :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  outcome
(** Execute one realisation. [max_steps] defaults to [default_horizon].

    [releases] (one 0-based step per job, default all zero) makes the
    execution an {e online} one, in the spirit of the paper's §5 open
    problem: job [j] only becomes eligible once step [releases.(j)] has
    been reached (in addition to its predecessors being done). Policies
    see release state only through the [eligible] flags, so an adaptive
    policy is automatically an online algorithm. Hostile vectors are
    rejected with {!Releases.Invalid} (typed, like
    {!Suu_core.Instance.Invalid}) at every entry that accepts
    [?releases].

    [availability] (default: everything up) is the machine-churn seam: a
    machine that is down at step [t] per the timeline contributes no
    completion mass that step — its Bernoulli draw is suppressed
    entirely, consuming no randomness, exactly as if the schedule had
    idled it. Policies are churn-oblivious (they may still assign work
    to a down machine; the environment wastes it). The gated stepper on
    a schedule is draw-for-draw identical to the ungated stepper on
    {!Suu_dyn.Churn.mask} of that schedule, which is how the {!Lanes}
    kernel serves oblivious policies under churn at full speed. @raise Invalid_argument when the timeline's
    machine count differs from the instance's. *)

val trace :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  (int * Suu_core.Assignment.t * int list) list
(** Like [run] but returns the executed history:
    [(step, assignment, jobs completed that step)]. For tests/examples. *)

type estimate = {
  stats : Suu_prob.Stats.summary;  (** over completed trials *)
  trials : int;
      (** trials actually executed — less than requested only when a
          [ci_target] stopped the estimate early *)
  incomplete : int;  (** trials that hit the cap (excluded from stats) *)
  samples : float array;
      (** makespans of the completed trials in trial order: word by
          word, lane by lane within a word, for every estimator and
          domain count *)
}

val trial_seed : int -> int -> int
(** [trial_seed s i] is the seed of word [i] (or of naive trial [i]) of
    the estimate with master seed [s]. *)

exception Interrupted
(** Raised by {!estimate_makespan_seeded} and {!estimate_makespan_range}
    when their [stop] callback fires. *)

val estimate_makespan_seeded :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  ?domains:int ->
  ?stop:(unit -> bool) ->
  ?on_word:(int -> unit) ->
  ?observer:Suu_obs.Exec_trace.observer ->
  trials:int ->
  seed:int ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** The word-seeded estimate over (up to) [trials] trials: a pure
    function of [(seed, trials, ci_target)] and the inputs — not of
    [domains], scheduling, or how many concurrent callers share the
    process. The serving layer uses it so a request's answer is
    identical no matter which worker domain runs it.

    [domains] (default 1) fans the words out over that many OCaml 5
    domains (capped at the word count), self-scheduled from a shared
    counter and folded in word order, so the result is bit-identical at
    any domain count; with a [ci_target], words claimed past the
    stopping word are discarded, bounding the overshoot by the domain
    count.

    [stop] is polled once before each word (default: never stops); when
    it returns [true] the estimate is abandoned and {!Interrupted} is
    raised — the hook for per-request deadline enforcement. A word is
    bounded by [max_steps] (default {!default_horizon}), so the poll
    interval is bounded too.

    [on_word w] (default: nothing) runs just before word [w], after the
    [stop] poll. It is a fault-injection seam: the serving layer's chaos
    harness stalls word 0 (exercising mid-request deadline enforcement)
    or fails transiently (an exception, which propagates to the caller
    and exercises the retry policy). It cannot perturb the estimate:
    word [w]'s draws derive from [(seed, w)] after the hook returns.

    With [domains > 1], [stop] and [on_word] may run concurrently in any
    worker domain, so they must be domain-safe; the first exception one
    of them (or a word) raises aborts the remaining words and is
    re-raised in the calling domain. The policy's [fresh] function may
    likewise run in any domain; policies must not share hidden mutable
    state across trials (all policies in this library satisfy this).

    [observer] (default: none) captures the step-by-step execution of
    the trials its [sample_every] selects, emitting one
    {!Suu_obs.Exec_trace.trial} per sampled trial, in trial order, after
    the estimate completes. An observed trial [k] is a naive-stepper
    replay ({!run}) on [Rng.create (trial_seed seed k)]: exactly trial
    [k] for an untagged policy, and for a kernel-served policy
    distribution-equivalent to the lane it samples but not a copy of
    it. Replays never touch the estimate, which is bit-identical with
    the observer on or off. For an oblivious policy the recorded
    assignment at step [t] is the schedule column
    [Oblivious.step sched t] verbatim — the {e decided} assignment,
    completed jobs included — matching what {!trace} records. *)

val estimate_makespan_range :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  ?domains:int ->
  ?stop:(unit -> bool) ->
  ?on_word:(int -> unit) ->
  seed:int ->
  lo:int ->
  hi:int ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** The trials [lo <= k < hi] of the seeded estimate with master seed
    [seed] — the unit of work a sharding coordinator fans out. [lo] must
    be a multiple of {!Lanes.lanes_per_word}, and [hi] a multiple too or
    the full estimate's [trials]: the range is then a run of whole words
    of that estimate, so for any such partition of [\[0, n)] into
    contiguous ranges, {!merge_ranges} over the per-range estimates (in
    range order) reproduces [estimate_makespan_seeded ~trials:n ~seed]
    bit-for-bit: samples, summary, and incomplete count alike. The
    returned [trials] field is [hi - lo], or the executed prefix length
    when [ci_target] stopped the range early — stopping accumulates from
    [lo], a deterministic property of the range alone. [domains], [stop]
    and [on_word] have the contract of {!estimate_makespan_seeded}
    ([on_word] sees absolute word indices).
    @raise Invalid_argument unless [0 <= lo < hi] and [lo] is
    word-aligned. *)

val merge_ranges : max_steps:int -> estimate list -> estimate
(** Merge per-range estimates of one seeded run, given in range order
    (increasing [lo], ranges contiguous from 0): samples concatenate,
    [trials] and [incomplete] add, and the summary is recomputed over
    the merged sample vector — bit-identical to the single-process
    seeded estimate when the parts partition its trial range and
    [max_steps] matches (it only feeds the all-truncated fallback).
    @raise Invalid_argument on the empty list. *)

val estimate_makespan :
  ?max_steps:int ->
  ?releases:int array ->
  ?availability:Suu_dyn.Churn.t ->
  ?ci_target:float ->
  trials:int ->
  Suu_prob.Rng.t ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t ->
  estimate
(** [estimate_makespan rng] draws one master seed from [rng] and returns
    {!estimate_makespan_seeded} with that seed. *)
