module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious

type outcome = {
  core : Oblivious.t;
  rounds : int;
  deficient : bool array;
  deficient_count : int;
}

(* The round loop shared by Algorithm 2 (SUU-I-OBL) and the improved
   phase ladder: repeatedly ask MSM-E-ALG for a length-[t] allocation
   over the still-deficient jobs, append the packed piece, and retire
   every job whose round mass reached the target. The 1e-12 slack
   absorbs the float accumulation error of the allocator's own ledger
   (which retires headroom with the same comparison). *)
let accumulate inst ~jobs ~t ~mass_target ~max_rounds ~early_exit =
  let n = Instance.n inst and m = Instance.m inst in
  let deficient = Array.copy jobs in
  let deficient_count =
    ref (Array.fold_left (fun acc j -> if j then acc + 1 else acc) 0 deficient)
  in
  let pieces = ref [] in
  let rounds = ref 0 in
  let stop = ref false in
  while (not !stop) && !deficient_count > 0 && !rounds < max_rounds do
    incr rounds;
    let alloc = Msm_ext.allocate inst ~jobs:deficient ~t in
    pieces := Msm_ext.to_schedule inst alloc :: !pieces;
    let removed = ref 0 in
    for j = 0 to n - 1 do
      if deficient.(j) && alloc.Msm_ext.mass.(j) >= mass_target -. 1e-12
      then begin
        deficient.(j) <- false;
        decr deficient_count;
        incr removed
      end
    done;
    if early_exit && !removed = 0 then stop := true
  done;
  let core =
    List.fold_left
      (fun acc piece -> Oblivious.append piece acc)
      (Oblivious.finite ~m [||])
      !pieces
  in
  {
    core;
    rounds = !rounds;
    deficient;
    deficient_count = !deficient_count;
  }

let all_jobs inst = Array.make (Instance.n inst) true

exception Too_long of string

(* One round of a length-t guess packs into a piece of up to t steps,
   each an m-wide assignment array: about t * (m + 2) words. *)
let max_piece_words = 1 lsl 22

(* Guess-doubling driver (§3.2): [attempt] is tried at t, 2t, 4t, …
   until it reports success; a guess of O(n / p_min) always succeeds, so
   the cap below is a defensive backstop against broken callers. A tiny
   p_min can put that guess beyond any memory, so a guess whose piece
   would exceed [max_piece_words] stops the search before it allocates.

   A length-t round gives job j at most t · total_rate j mass, so no
   guess below [needed] (the largest (mass_target − 1e-12) / total_rate j
   over the flagged jobs) can retire every job. When even the last guess
   within the budget is below it (and below [hard_cap], so the search
   would reach the budget, not the cap), every attempt is hopeless and
   the search raises at once, with the message it would reach. The
   1e-9 margin absorbs the allocator's float ledger. *)
let doubling_guess inst ~jobs ~mass_target ~t0 ~attempt =
  let n = Instance.n inst and m = Instance.m inst in
  let pmin = Instance.p_min inst in
  let hard_cap =
    Float.to_int (Float.min 1e9 (16. *. Float.of_int n /. pmin)) + 2
  in
  let max_t = max_piece_words / (m + 2) in
  let too_long t =
    Too_long
      (Printf.sprintf
         "a %d-step guess at m=%d exceeds the %d-word schedule budget \
          (p_min %g)"
         t m max_piece_words pmin)
  in
  let needed = ref 0. in
  Array.iteri
    (fun j flagged ->
      if flagged then
        needed :=
          Float.max !needed
            ((mass_target -. 1e-12) /. Instance.total_rate inst j))
    jobs;
  let rec last_in_budget t =
    if 2 * t > max_t then t else last_in_budget (2 * t)
  in
  (if t0 <= max_t then
     let last = last_in_budget t0 in
     if Float.of_int last *. (1. +. 1e-9) < !needed && last < hard_cap then
       raise (too_long (2 * last)));
  let rec search t guesses =
    if t > max_t then raise (too_long t);
    match attempt t with
    | Some result -> (result, t, guesses + 1)
    | None ->
        if t >= hard_cap then
          invalid_arg "Accum.doubling_guess: cap exceeded (unreachable jobs?)"
        else search (2 * t) (guesses + 1)
  in
  search t0 0
