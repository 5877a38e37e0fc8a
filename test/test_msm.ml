module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Msm = Suu_algo.Msm
module Rng = Suu_prob.Rng

let all_jobs n = Array.make n true

let test_single_pair () =
  let inst = Instance.independent ~p:[| [| 0.7 |] |] in
  let a = Msm.assign inst ~jobs:(all_jobs 1) in
  Alcotest.(check (array int)) "assigned" [| 0 |] a

let test_prefers_higher_prob () =
  (* One machine, two jobs; must pick the higher-probability one. *)
  let inst = Instance.independent ~p:[| [| 0.3; 0.9 |] |] in
  let a = Msm.assign inst ~jobs:(all_jobs 2) in
  Alcotest.(check (array int)) "picks job 1" [| 1 |] a

let test_mass_cap_respected () =
  (* Three machines with p=0.6 on one job: only one fits under the cap
     (0.6 + 0.6 > 1), so exactly one machine is assigned... the second
     would push mass to 1.2 > 1. *)
  let inst =
    Instance.independent ~p:[| [| 0.6 |]; [| 0.6 |]; [| 0.6 |] |]
  in
  let a = Msm.assign inst ~jobs:(all_jobs 1) in
  let assigned = List.length (Assignment.machines_on a ~job:0) in
  Alcotest.(check int) "one machine" 1 assigned

let test_exact_fill_to_one () =
  (* 0.5 + 0.5 = 1.0 is allowed (mass <= 1). *)
  let inst = Instance.independent ~p:[| [| 0.5 |]; [| 0.5 |] |] in
  let a = Msm.assign inst ~jobs:(all_jobs 1) in
  Alcotest.(check int) "both machines" 2
    (List.length (Assignment.machines_on a ~job:0))

let test_restricted_jobs () =
  let inst = Instance.independent ~p:[| [| 0.9; 0.5 |] |] in
  let jobs = [| false; true |] in
  let a = Msm.assign inst ~jobs in
  Alcotest.(check (array int)) "only job 1 allowed" [| 1 |] a

let test_zero_prob_ignored () =
  let inst = Instance.independent ~p:[| [| 0.5; 0.0 |]; [| 0.0; 0.4 |] |] in
  let a = Msm.assign inst ~jobs:(all_jobs 2) in
  Alcotest.(check (array int)) "each machine to its job" [| 0; 1 |] a

let test_deterministic () =
  let rng = Rng.create 3 in
  let inst =
    Instance.independent
      ~p:(Array.init 4 (fun _ -> Array.init 6 (fun _ -> Rng.uniform rng 0.1 0.9)))
  in
  let a = Msm.assign inst ~jobs:(all_jobs 6) in
  let b = Msm.assign inst ~jobs:(all_jobs 6) in
  Alcotest.(check (array int)) "same output" a b

let test_total_mass_value () =
  let inst = Instance.independent ~p:[| [| 0.5; 0.3 |]; [| 0.4; 0.2 |] |] in
  let a = [| 0; 0 |] in
  Alcotest.(check (float 1e-12)) "capped sum" 0.9 (Msm.total_mass inst a)

let test_brute_force_small () =
  let inst = Instance.independent ~p:[| [| 0.5; 0.3 |]; [| 0.4; 0.2 |] |] in
  let opt = Msm.optimal_mass_brute_force inst ~jobs:(all_jobs 2) in
  (* Best: machine 0 -> job 0 (0.5), machine 1 -> job 1 (0.2) = 0.7, or
     both on job 0 = 0.9. *)
  Alcotest.(check (float 1e-12)) "optimal" 0.9 opt

let test_sorted_pairs_order () =
  let inst = Instance.independent ~p:[| [| 0.2; 0.8 |]; [| 0.5; 0.1 |] |] in
  let probs, _, _ = Instance.sorted_pairs inst in
  Alcotest.(check (array (float 0.)))
    "descending" [| 0.8; 0.5; 0.2; 0.1 |] probs

(* The headline guarantee: greedy >= optimal / 3 (Theorem 3.2). *)
let prop_one_third_approximation =
  QCheck.Test.make ~name:"MSM-ALG within 1/3 of brute force" ~count:150
    QCheck.(triple small_int (int_range 1 3) (int_range 1 4))
    (fun (seed, m, n) ->
      let rng = Rng.create seed in
      let inst =
        Instance.independent
          ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.01 1.)))
      in
      let jobs = all_jobs n in
      let greedy = Msm.total_mass inst (Msm.assign inst ~jobs) in
      let opt = Msm.optimal_mass_brute_force inst ~jobs in
      greedy >= (opt /. 3.) -. 1e-9)

let prop_each_machine_once =
  QCheck.Test.make ~name:"assignment uses each machine at most once" ~count:200
    QCheck.(pair small_int (pair (int_range 1 6) (int_range 1 8)))
    (fun (seed, (m, n)) ->
      let rng = Rng.create seed in
      let inst =
        Instance.independent
          ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.05 1.)))
      in
      let a = Msm.assign inst ~jobs:(all_jobs n) in
      Array.length a = m
      && Array.for_all (fun j -> j = -1 || (j >= 0 && j < n)) a)

let prop_mass_never_exceeds_one =
  QCheck.Test.make ~name:"per-job mass <= 1" ~count:200
    QCheck.(pair small_int (pair (int_range 1 8) (int_range 1 8)))
    (fun (seed, (m, n)) ->
      let rng = Rng.create seed in
      let inst =
        Instance.independent
          ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.05 1.)))
      in
      let a = Msm.assign inst ~jobs:(all_jobs n) in
      let mass = Suu_core.Assignment.mass_added inst a in
      Array.for_all (fun mj -> mj <= 1. +. 1e-9) mass)

let () =
  Alcotest.run "msm"
    [
      ( "cases",
        [
          Alcotest.test_case "single pair" `Quick test_single_pair;
          Alcotest.test_case "prefers higher p" `Quick test_prefers_higher_prob;
          Alcotest.test_case "mass cap" `Quick test_mass_cap_respected;
          Alcotest.test_case "exact fill" `Quick test_exact_fill_to_one;
          Alcotest.test_case "restricted jobs" `Quick test_restricted_jobs;
          Alcotest.test_case "zero p ignored" `Quick test_zero_prob_ignored;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "total mass" `Quick test_total_mass_value;
          Alcotest.test_case "brute force" `Quick test_brute_force_small;
          Alcotest.test_case "pair order" `Quick test_sorted_pairs_order;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_one_third_approximation;
          QCheck_alcotest.to_alcotest prop_each_machine_once;
          QCheck_alcotest.to_alcotest prop_mass_never_exceeds_one;
        ] );
    ]
