module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious

type params = {
  mass_target : float;
  rounds_per_guess : int -> int;
  early_exit : bool;
  t0 : int;
}

let log2 x = Float.log x /. Float.log 2.

let paper_params =
  {
    mass_target = 1. /. 96.;
    rounds_per_guess =
      (fun n -> max 1 (Float.to_int (Float.ceil (66. *. log2 (Float.of_int (max 2 n))))));
    early_exit = true;
    t0 = 1;
  }

let tuned_params =
  {
    mass_target = 0.25;
    rounds_per_guess =
      (fun n -> max 1 (Float.to_int (Float.ceil (8. *. log2 (Float.of_int (max 2 n))))));
    early_exit = true;
    t0 = 1;
  }

type result = {
  core : Oblivious.t;
  final_t : int;
  rounds_used : int;
  guesses : int;
}

let build ?(params = tuned_params) inst =
  let n = Instance.n inst and m = Instance.m inst in
  if n = 0 then
    { core = Oblivious.finite ~m [||]; final_t = 0; rounds_used = 0; guesses = 0 }
  else begin
    let max_rounds = params.rounds_per_guess n in
    let jobs = Accum.all_jobs inst in
    let attempt t =
      let o =
        Accum.accumulate inst ~jobs ~t ~mass_target:params.mass_target
          ~max_rounds ~early_exit:params.early_exit
      in
      if o.Accum.deficient_count > 0 then None else Some o
    in
    let o, final_t, guesses =
      Accum.doubling_guess inst ~jobs ~mass_target:params.mass_target
        ~t0:params.t0 ~attempt
    in
    { core = o.Accum.core; final_t; rounds_used = o.Accum.rounds; guesses }
  end

let schedule ?params inst =
  let r = build ?params inst in
  let prefix = r.core.Oblivious.prefix in
  if Array.length prefix = 0 then r.core
  else Oblivious.create ~m:(Instance.m inst) ~cycle:prefix [||]

let policy ?params inst =
  Suu_core.Policy.of_oblivious "suu-i-obl" (schedule ?params inst)
