(* Exact analysis tools: when the instance is small, nothing needs to be
   estimated. This example walks through the paper's probabilistic
   objects computed exactly — the regimen Markov chain, optimal expected
   makespans, makespan CDFs for both regimens and oblivious schedules —
   and sizes a Monte-Carlo run with Hoeffding's inequality that then
   confirms the exact numbers.

   Run with: dune exec examples/exact_analysis.exe *)

module Instance = Suu_core.Instance
module Exact = Suu_sim.Exact
module EO = Suu_sim.Exact_oblivious

let () =
  (* A 4-job instance with a fork: 0 precedes 1 and 2; 3 independent. *)
  let dag = Suu_dag.Dag.create ~n:4 [ (0, 1); (0, 2) ] in
  let inst =
    Instance.create
      ~p:[| [| 0.7; 0.3; 0.2; 0.6 |]; [| 0.2; 0.6; 0.5; 0.3 |] |]
      ~dag
  in

  (* 1. The exact optimum and its achieving regimen. *)
  let opt = Suu_algo.Malewicz.optimal inst in
  Format.printf "exact TOPT = %.6f over %d reachable states@."
    opt.Suu_algo.Malewicz.value opt.Suu_algo.Malewicz.states;

  (* 2. Exact value of a named regimen: greedy MSM as a regimen. *)
  let msm_regimen unfinished = Suu_algo.Msm.assign inst ~jobs:unfinished in
  let msm_value = Exact.expected_makespan_regimen inst msm_regimen in
  Format.printf "MSM regimen     = %.6f (x%.3f of optimal)@." msm_value
    (msm_value /. opt.Suu_algo.Malewicz.value);

  (* 3. Exact value of an oblivious schedule: the Theorem 4.7 pipeline. *)
  let sched = Suu_algo.Forest.schedule inst in
  let obl_value = EO.expected_makespan inst sched in
  Format.printf "forest pipeline = %.6f (x%.3f of optimal)@." obl_value
    (obl_value /. opt.Suu_algo.Malewicz.value);

  (* 4. Exact CDFs, side by side. *)
  let horizon = 14 in
  let decide = opt.Suu_algo.Malewicz.policy.Suu_core.Policy.fresh () in
  let opt_regimen unfinished =
    (* Regimen policies only read [unfinished]; the other fields are
       placeholders here. *)
    decide { Suu_core.Policy.step = 0; unfinished; eligible = unfinished }
  in
  let cdf_opt = Exact.makespan_distribution_regimen inst opt_regimen ~horizon in
  let cdf_obl = EO.cdf inst sched ~horizon in
  Suu_harness.Table.print ~title:"P(makespan <= t), exact"
    ~header:[ "t"; "optimal regimen"; "oblivious pipeline" ]
    (List.init (horizon + 1) (fun t ->
         [
           string_of_int t;
           Printf.sprintf "%.4f" cdf_opt.(t);
           Printf.sprintf "%.4f" cdf_obl.(t);
         ]));

  (* 5. Hoeffding-sized Monte-Carlo confirmation. The makespan is not
     [0,1]-bounded, so we size trials for estimating P(T <= median-ish)
     within epsilon = 0.02 at 99% confidence: the two-sided bound
     2 exp(-2 n epsilon^2) <= 0.01 needs n >= ln(2 / 0.01) / (2 epsilon^2).
     Then we also compare means. *)
  let epsilon = 0.02 and failure = 0.01 in
  let trials =
    Float.to_int
      (Float.ceil (Float.log (2. /. failure) /. (2. *. epsilon *. epsilon)))
  in
  Format.printf "@.Hoeffding says %d trials estimate a probability within \
                 0.02 at 99%%@."
    trials;
  let e =
    Suu_sim.Engine.estimate_makespan ~trials (Suu_prob.Rng.create 123) inst
      opt.Suu_algo.Malewicz.policy
  in
  Format.printf "Monte-Carlo optimal regimen: %.4f ±%.4f (exact %.4f)@."
    e.Suu_sim.Engine.stats.Suu_prob.Stats.mean
    e.Suu_sim.Engine.stats.Suu_prob.Stats.ci95 opt.Suu_algo.Malewicz.value;
  let within_t t =
    Array.fold_left
      (fun acc s -> if s <= Float.of_int t then acc + 1 else acc)
      0 e.Suu_sim.Engine.samples
  in
  let t_probe = 6 in
  Format.printf "empirical P(T <= %d) = %.4f (exact %.4f)@." t_probe
    (Float.of_int (within_t t_probe)
    /. Float.of_int (Array.length e.Suu_sim.Engine.samples))
    cdf_opt.(t_probe)
