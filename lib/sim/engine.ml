module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Policy = Suu_core.Policy
module Counters = Suu_obs.Counters
module Exec_trace = Suu_obs.Exec_trace
module Churn = Suu_dyn.Churn

(* Process-wide engine telemetry. Counters are bumped once or twice per
   word or naive trial (never per step), so they are always on: two
   atomic adds disappear against the cost of even the shortest trial,
   which is what keeps the observer-disabled perf-smoke budget honest. *)
let counters = Counters.create ()
let c_trials = Counters.make counters "engine_trials_total"
let c_steps = Counters.make counters "engine_steps_simulated_total"
let c_vector_words = Counters.make counters "engine_vector_words_total"
let c_early_stops = Counters.make counters "engine_early_stops_total"

type outcome = { makespan : int; completed : bool }

let default_horizon inst =
  let n = Instance.n inst in
  if n = 0 then 1
  else begin
    let pmin = Instance.p_min inst in
    let logn = 1. +. Float.log (Float.of_int (max 2 n)) in
    let bound = 64. *. (Float.of_int n /. pmin) *. logn in
    (* Keep the cap sane even for tiny pmin. *)
    Float.to_int (Float.min bound 5e7) + 64
  end

(* Mutable execution arena of the naive stepper ([run], [trace], observed
   replays and untagged policies inside the estimators).
   One arena serves every trial of an estimate: [exec_reset] restores it
   without reallocating, so the steady-state trial loop allocates
   nothing. *)
type exec = {
  inst : Instance.t;
  unfinished : bool array;
  eligible : bool array;
  pending_preds : int array;
  init_preds : int array;  (** in-degrees, the reset image *)
  releases : int array option;
  churn : Churn.t option;
  mutable remaining : int;
  (* Per-step completion scratch, replacing a per-step Hashtbl: job [j]
     completed during the current step iff [mark.(j) = epoch]. The epoch
     increments every step (across trials too), so resetting the arena
     never needs to clear [mark]. *)
  mark : int array;
  mutable epoch : int;
  completed_buf : int array;
  mutable completed_count : int;
}

let exec_released_at ex j =
  match ex.releases with None -> true | Some r -> r.(j) <= 0

let exec_reset ex =
  let n = Array.length ex.unfinished in
  Array.fill ex.unfinished 0 n true;
  Array.blit ex.init_preds 0 ex.pending_preds 0 n;
  for j = 0 to n - 1 do
    ex.eligible.(j) <- ex.pending_preds.(j) = 0 && exec_released_at ex j
  done;
  ex.remaining <- n;
  ex.completed_count <- 0

(* The availability seam: churn timelines must match the instance's
   machine count, and an all-up timeline is dropped so the hot path
   keeps its churn-free shape. *)
let check_availability inst = function
  | None -> None
  | Some c ->
      if Churn.m c <> Instance.m inst then
        invalid_arg "Engine: availability machine count mismatch";
      if Churn.is_none c then None else Some c

let exec_create ?releases ?churn inst =
  let n = Instance.n inst in
  Releases.check ~n releases;
  let churn = check_availability inst churn in
  let dag = Instance.dag inst in
  let ex =
    {
      inst;
      unfinished = Array.make n true;
      eligible = Array.make n false;
      pending_preds = Array.make n 0;
      init_preds = Array.init n (Suu_dag.Dag.in_degree dag);
      releases;
      churn;
      remaining = n;
      mark = Array.make n (-1);
      epoch = 0;
      completed_buf = Array.make (max n 1) 0;
      completed_count = 0;
    }
  in
  exec_reset ex;
  ex

let exec_released_by ex t j =
  match ex.releases with None -> true | Some r -> r.(j) <= t

(* Mark jobs whose release date has arrived; no-op in the offline case. *)
let exec_release_due ex t =
  match ex.releases with
  | None -> ()
  | Some r ->
      Array.iteri
        (fun j rel ->
          if
            rel <= t && ex.unfinished.(j)
            && ex.pending_preds.(j) = 0
            && not ex.eligible.(j)
          then ex.eligible.(j) <- true)
        r

let exec_finish ex t j =
  ex.unfinished.(j) <- false;
  ex.eligible.(j) <- false;
  ex.remaining <- ex.remaining - 1;
  List.iter
    (fun v ->
      ex.pending_preds.(v) <- ex.pending_preds.(v) - 1;
      if ex.pending_preds.(v) = 0 && ex.unfinished.(v) && exec_released_by ex t v
      then ex.eligible.(v) <- true)
    (Suu_dag.Dag.succs (Instance.dag ex.inst) j)

(* Whether machine [i] may draw at step [t]: a machine that churn has
   taken down contributes no mass — and consumes no randomness, exactly
   as if the schedule had idled it (so the gated stepper on the original
   schedule is draw-for-draw the ungated stepper on the masked one). *)
let exec_machine_up ex i t =
  match ex.churn with
  | None -> true
  | Some c -> Churn.available c ~machine:i ~step:t

(* One step: completed jobs land in [ex.completed_buf] (first
   [ex.completed_count] slots, in marking order). The Bernoulli draw
   sequence — machines in index order, at most one draw per (machine,
   step), none once the job is already marked — is identical to the
   historical Hashtbl-based implementation, which keeps seeded estimates
   bit-stable. *)
let exec_step rng ex t assignment =
  ex.epoch <- ex.epoch + 1;
  let epoch = ex.epoch in
  let count = ref 0 in
  Array.iteri
    (fun i j ->
      if
        j <> Assignment.idle_job
        && ex.unfinished.(j)
        && ex.eligible.(j)
        && ex.mark.(j) <> epoch
        && exec_machine_up ex i t
      then
        if Suu_prob.Rng.bernoulli rng (Instance.prob ex.inst ~machine:i ~job:j)
        then begin
          ex.mark.(j) <- epoch;
          ex.completed_buf.(!count) <- j;
          incr count
        end)
    assignment;
  ex.completed_count <- !count;
  (* Completions take effect at the end of the step; finishing in
     reverse marking order preserves the historical update order. *)
  for k = !count - 1 downto 0 do
    exec_finish ex t ex.completed_buf.(k)
  done

(* The completions of the last step as a list (reverse marking order,
   matching the historical [trace] output). *)
let exec_completed_list ex =
  let acc = ref [] in
  for k = 0 to ex.completed_count - 1 do
    acc := ex.completed_buf.(k) :: !acc
  done;
  !acc

(* Run one realisation on an already-reset arena, recording the first
   [limit] steps as [(step, decided assignment, completions)]. Recording
   happens after each [exec_step], so it never perturbs the draws. *)
let run_recorded ~max_steps ~limit rng ex policy =
  let decide = policy.Policy.fresh () in
  let history = ref [] in
  let t = ref 0 in
  while ex.remaining > 0 && !t < max_steps do
    exec_release_due ex !t;
    let state =
      { Policy.step = !t; unfinished = ex.unfinished; eligible = ex.eligible }
    in
    let a = decide state in
    exec_step rng ex !t a;
    if !t < limit then
      history := (!t, Array.copy a, exec_completed_list ex) :: !history;
    incr t
  done;
  ({ makespan = !t; completed = ex.remaining = 0 }, List.rev !history)

let run_recorded_fresh ?max_steps ?releases ?availability ~limit rng inst
    policy =
  let max_steps =
    match max_steps with Some v -> v | None -> default_horizon inst
  in
  let ex = exec_create ?releases ?churn:availability inst in
  run_recorded ~max_steps ~limit rng ex policy

let run ?max_steps ?releases ?availability rng inst policy =
  fst
    (run_recorded_fresh ?max_steps ?releases ?availability ~limit:0 rng inst
       policy)

let trace ?max_steps ?releases ?availability rng inst policy =
  snd
    (run_recorded_fresh ?max_steps ?releases ?availability ~limit:max_int rng
       inst policy)

type estimate = {
  stats : Suu_prob.Stats.summary;
  trials : int;
  incomplete : int;
  samples : float array;
}

let finish_estimate ~max_steps ~trials ~incomplete samples =
  let stats =
    if Array.length samples = 0 then
      (* All runs truncated: report the cap itself so callers see a huge
         value rather than crashing. *)
      Suu_prob.Stats.summarize [| Float.of_int max_steps |]
    else Suu_prob.Stats.summarize samples
  in
  { stats; trials; incomplete; samples }

(* The seed mix of the word-seeded contract: word [w] of seed [s] runs
   the kernel on [trial_seed s w], and naive trial [k] (untagged policies
   and observed replays) draws from [Rng.create (trial_seed s k)]. *)
let trial_seed seed k = seed lxor ((k + 1) * 0x9E3779B1)

(* --- CI-width sequential stopping ------------------------------------ *)

(* Running Welford accumulator over completed samples, checked only at
   word boundaries. The half-width mirrors [Stats.summarize]:
   1.96 * sqrt(m2 / (n-1)) / sqrt(n). *)
type ci_acc = { mutable cnt : int; mutable mean : float; mutable m2 : float }

let ci_add a x =
  a.cnt <- a.cnt + 1;
  let d = x -. a.mean in
  a.mean <- a.mean +. (d /. Float.of_int a.cnt);
  a.m2 <- a.m2 +. (d *. (x -. a.mean))

let ci_reached a target =
  a.cnt >= 2
  &&
  let n = Float.of_int a.cnt in
  1.96 *. sqrt (a.m2 /. (n -. 1.) /. n) <= target

(* --- the word fold ---------------------------------------------------- *)

exception Interrupted

let word = Lanes.lanes_per_word

(* A domain's word engine: the compiled kernel for tagged policies, else
   the naive stepper run lane by lane. Either is created once per
   (estimate, domain) and reused for every word it claims. *)
type word_runner = Vector of Lanes.t | Naive of exec * Policy.t

let word_runner ?releases ?availability inst policy =
  match Lanes.create ?releases ?availability inst policy with
  | Some k -> Vector k
  | None -> Naive (exec_create ?releases ?churn:availability inst, policy)

(* Word [w]'s [lanes] makespans into [mk] ([-1] for a truncated lane). *)
let run_word runner ~seed ~max_steps ~w ~lanes mk =
  Counters.add c_trials lanes;
  match runner with
  | Vector k ->
      Lanes.run_word k ~seed:(trial_seed seed w) ~max_steps ~lanes
        ~makespans:mk;
      Counters.incr c_vector_words
  | Naive (ex, policy) ->
      for l = 0 to lanes - 1 do
        exec_reset ex;
        let rng = Suu_prob.Rng.create (trial_seed seed ((w * word) + l)) in
        let o, _ = run_recorded ~max_steps ~limit:0 rng ex policy in
        Counters.add c_steps o.makespan;
        mk.(l) <- (if o.completed then o.makespan else -1)
      done

(* The one estimator body: the trials [lo, hi) as the words
   [lo / word, ceil (hi / word)), claimed from a shared counter by
   [domains] domains and folded in word order under a mutex, so the
   samples, the stopping word and every count are a pure function of
   [(seed, lo, hi, ci_target)] at any domain count. Each word polls
   [stop] and calls [on_word] once before it runs; the first exception
   any domain raises aborts the others and is re-raised here. Words
   claimed past a [ci_target] stop are discarded. *)
let fold ?max_steps ?releases ?availability ?ci_target ?(domains = 1)
    ?(stop = fun () -> false) ?(on_word = fun (_ : int) -> ()) ~seed ~lo ~hi
    inst policy =
  (match ci_target with
  | Some c when not (c > 0.) -> invalid_arg "Engine: ci_target must be > 0"
  | _ -> ());
  if domains < 1 then invalid_arg "Engine: domains < 1";
  let max_steps =
    match max_steps with Some v -> v | None -> default_horizon inst
  in
  let w_lo = lo / word and w_hi = (hi + word - 1) / word in
  let lanes w = min hi ((w + 1) * word) - (w * word) in
  let slots = Array.make (hi - lo) 0 in
  let buf = Array.make (hi - lo) 0. in
  let filled = ref 0 and truncated = ref 0 in
  let acc = { cnt = 0; mean = 0.; m2 = 0. } in
  let next = Atomic.make w_lo in
  let stop_word = Atomic.make w_hi in
  let failure = Atomic.make None in
  let mu = Mutex.create () in
  let ran = Array.make (w_hi - w_lo) false in
  let watermark = ref w_lo in
  let fold_word w =
    Mutex.lock mu;
    ran.(w - w_lo) <- true;
    while !watermark < Atomic.get stop_word && ran.(!watermark - w_lo) do
      let base = (!watermark * word) - lo in
      for i = base to base + lanes !watermark - 1 do
        if slots.(i) < 0 then incr truncated
        else begin
          let x = Float.of_int slots.(i) in
          buf.(!filled) <- x;
          incr filled;
          ci_add acc x
        end
      done;
      incr watermark;
      match ci_target with
      | Some tgt when !watermark < w_hi && ci_reached acc tgt ->
          Atomic.set stop_word !watermark;
          Counters.incr c_early_stops
      | _ -> ()
    done;
    Mutex.unlock mu
  in
  let worker () =
    try
      let runner = word_runner ?releases ?availability inst policy in
      let mk = Array.make word 0 in
      let continue = ref true in
      while !continue do
        let w = Atomic.fetch_and_add next 1 in
        if w >= Atomic.get stop_word || Atomic.get failure <> None then
          continue := false
        else begin
          if stop () then raise Interrupted;
          on_word w;
          run_word runner ~seed ~max_steps ~w ~lanes:(lanes w) mk;
          Array.blit mk 0 slots ((w * word) - lo) (lanes w);
          fold_word w
        end
      done
    with e -> ignore (Atomic.compare_and_set failure None (Some e) : bool)
  in
  let spawned =
    List.init (min domains (w_hi - w_lo) - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  Option.iter raise (Atomic.get failure);
  finish_estimate ~max_steps ~trials:(!filled + !truncated)
    ~incomplete:!truncated (Array.sub buf 0 !filled)

let estimate_makespan ?max_steps ?releases ?availability ?ci_target ~trials rng
    inst policy =
  if trials < 1 then invalid_arg "Engine.estimate_makespan: trials < 1";
  fold ?max_steps ?releases ?availability ?ci_target
    ~seed:(Int64.to_int (Suu_prob.Rng.int64 rng))
    ~lo:0 ~hi:trials inst policy

let estimate_makespan_range ?max_steps ?releases ?availability ?ci_target
    ?domains ?stop ?on_word ~seed ~lo ~hi inst policy =
  if lo < 0 || hi <= lo then
    invalid_arg "Engine.estimate_makespan_range: need 0 <= lo < hi";
  if lo mod word <> 0 then
    invalid_arg
      "Engine.estimate_makespan_range: lo must be a multiple of \
       Lanes.lanes_per_word";
  fold ?max_steps ?releases ?availability ?ci_target ?domains ?stop ?on_word
    ~seed ~lo ~hi inst policy

let merge_ranges ~max_steps parts =
  if parts = [] then invalid_arg "Engine.merge_ranges: no parts";
  let trials = List.fold_left (fun a e -> a + e.trials) 0 parts in
  let incomplete = List.fold_left (fun a e -> a + e.incomplete) 0 parts in
  let samples = Array.concat (List.map (fun e -> e.samples) parts) in
  finish_estimate ~max_steps ~trials ~incomplete samples

(* Observed trials are naive-stepper replays of [(seed, k)], run after
   the estimate so they cannot touch its words. *)
let observe (o : Exec_trace.observer) ?max_steps ?releases ?availability
    ~seed ~trials inst policy =
  for k = 0 to trials - 1 do
    if Exec_trace.selects o k then begin
      let seed = trial_seed seed k in
      let outcome, history =
        run_recorded_fresh ?max_steps ?releases ?availability
          ~limit:o.Exec_trace.limit (Suu_prob.Rng.create seed) inst policy
      in
      o.Exec_trace.emit
        {
          Exec_trace.index = k;
          seed;
          makespan = outcome.makespan;
          truncated = not outcome.completed;
          steps =
            List.map
              (fun (t, assignment, completed) ->
                { Exec_trace.t = t + 1; assignment; completed })
              history;
        }
    end
  done

let estimate_makespan_seeded ?max_steps ?releases ?availability ?ci_target
    ?domains ?stop ?on_word ?observer ~trials ~seed inst policy =
  if trials < 1 then invalid_arg "Engine.estimate_makespan_seeded: trials < 1";
  let e =
    fold ?max_steps ?releases ?availability ?ci_target ?domains ?stop
      ?on_word ~seed ~lo:0 ~hi:trials inst policy
  in
  Option.iter
    (fun o ->
      observe o ?max_steps ?releases ?availability ~seed ~trials:e.trials inst
        policy)
    observer;
  e
