(** Shared mass-threshold round scheduling.

    Both oblivious independent-job schemes — the paper's Algorithm 2
    ({!Suu_i_obl}) and the improved phase ladder ({!Phased}) — are built
    from the same two moves: a {e round loop} that repeatedly appends
    MSM-E-ALG allocations of a fixed length [t] and retires jobs once a
    round gives them the target mass, and a {e guess-doubling driver}
    that searches for the smallest [t] at which the loop succeeds. This
    module is that refactored substrate; it owns no policy decisions
    (targets, round budgets, phase ladders stay with the callers). *)

type outcome = {
  core : Suu_core.Oblivious.t;
      (** the appended round pieces, chronological, empty cycle *)
  rounds : int;  (** rounds actually run *)
  deficient : bool array;
      (** jobs still below the target after the last round *)
  deficient_count : int;
}

val accumulate :
  Suu_core.Instance.t ->
  jobs:bool array ->
  t:int ->
  mass_target:float ->
  max_rounds:int ->
  early_exit:bool ->
  outcome
(** Run up to [max_rounds] rounds of length-[t] MSM-E-ALG allocations
    over the flagged jobs, retiring each job in the first round that
    gives it mass ≥ [mass_target] (within the allocator's own float
    slack). With [early_exit], a round that retires nothing ends the
    loop — the guess [t] is hopeless and the caller should grow it.
    [jobs] is not mutated. *)

val all_jobs : Suu_core.Instance.t -> bool array
(** The everything-flagged mask, [Array.make n true]. *)

exception Too_long of string
(** Raised by {!doubling_guess} when the next guess would build a round
    piece larger than the schedule budget (about [2^22] words); the
    message names the guess, the machine count and [p_min]. *)

val doubling_guess :
  Suu_core.Instance.t ->
  jobs:bool array ->
  mass_target:float ->
  t0:int ->
  attempt:(int -> 'a option) ->
  'a * int * int
(** [doubling_guess inst ~jobs ~mass_target ~t0 ~attempt] tries
    [attempt t] at [t0], [2·t0],
    [4·t0], … until it returns [Some result], and gives
    [(result, final_t, guesses)]. §3.2: a guess of O(n / p_min) always
    succeeds, so the search terminates; a defensive cap of that order
    turns a broken [attempt] into [Invalid_argument] instead of a hang.
    A tiny [p_min] can make that guess too long to hold in memory: a
    guess [t] with [t * (m + 2)] above the budget raises {!Too_long}
    before [attempt t] runs. [jobs] and [mass_target] are the ones
    [attempt] accumulates with: a length-[t] round gives job [j] at most
    [t · total_rate j] mass, so when every guess within the budget is
    below [(mass_target − 1e-12) / total_rate j] for some flagged [j],
    the same {!Too_long} is raised before any attempt runs. *)
