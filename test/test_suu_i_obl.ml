module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious
module Mass = Suu_core.Mass
module Suu_i_obl = Suu_algo.Suu_i_obl
module Rng = Suu_prob.Rng

let random_inst seed m n =
  let rng = Rng.create seed in
  Instance.independent
    ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.1 0.9)))

let test_core_reaches_target_tuned () =
  let inst = random_inst 1 3 8 in
  let r = Suu_i_obl.build inst in
  let len = Oblivious.prefix_length r.Suu_i_obl.core in
  let mass = Mass.of_oblivious inst r.Suu_i_obl.core ~steps:len in
  Array.iter
    (fun mj ->
      Alcotest.(check bool) "mass >= 1/4" true
        (mj >= Suu_i_obl.tuned_params.Suu_i_obl.mass_target -. 1e-9))
    mass

let test_core_reaches_target_paper () =
  let inst = random_inst 2 2 6 in
  let r = Suu_i_obl.build ~params:Suu_i_obl.paper_params inst in
  let len = Oblivious.prefix_length r.Suu_i_obl.core in
  let mass = Mass.of_oblivious inst r.Suu_i_obl.core ~steps:len in
  Array.iter
    (fun mj ->
      Alcotest.(check bool) "mass >= 1/96" true (mj >= (1. /. 96.) -. 1e-9))
    mass

let test_deterministic () =
  let inst = random_inst 3 2 5 in
  let a = Suu_i_obl.build inst in
  let b = Suu_i_obl.build inst in
  Alcotest.(check int) "same t" a.Suu_i_obl.final_t b.Suu_i_obl.final_t;
  Alcotest.(check int) "same length"
    (Oblivious.prefix_length a.Suu_i_obl.core)
    (Oblivious.prefix_length b.Suu_i_obl.core)

let test_empty_instance () =
  let inst = Instance.independent ~p:[| [||] |] in
  let r = Suu_i_obl.build inst in
  Alcotest.(check int) "empty core" 0 (Oblivious.prefix_length r.Suu_i_obl.core)

let test_single_certain_job () =
  let inst = Instance.independent ~p:[| [| 1.0 |] |] in
  let r = Suu_i_obl.build inst in
  Alcotest.(check int) "t = 1 suffices" 1 r.Suu_i_obl.final_t;
  Alcotest.(check int) "single round" 1 r.Suu_i_obl.rounds_used

let test_schedule_is_cyclic () =
  let inst = random_inst 4 2 4 in
  let s = Suu_i_obl.schedule inst in
  Alcotest.(check int) "no prefix" 0 (Oblivious.prefix_length s);
  Alcotest.(check bool) "has cycle" true (Oblivious.cycle_length s > 0)

let test_schedule_completes () =
  let inst = random_inst 5 3 10 in
  let policy = Suu_i_obl.policy inst in
  let o = Suu_sim.Engine.run (Rng.create 7) inst policy in
  Alcotest.(check bool) "completed" true o.Suu_sim.Engine.completed

let test_final_t_grows_with_hardness () =
  (* Low probabilities need a larger guess than high ones. *)
  let easy = Instance.independent ~p:[| [| 0.9; 0.9 |] |] in
  let hard = Instance.independent ~p:[| [| 0.05; 0.05 |] |] in
  let te = (Suu_i_obl.build easy).Suu_i_obl.final_t in
  let th = (Suu_i_obl.build hard).Suu_i_obl.final_t in
  Alcotest.(check bool) "harder needs bigger t" true (th > te)

let prop_every_job_served =
  QCheck.Test.make ~name:"core gives every job its mass target" ~count:50
    QCheck.(triple small_int (int_range 1 4) (int_range 1 12))
    (fun (seed, m, n) ->
      let inst = random_inst seed m n in
      let r = Suu_i_obl.build inst in
      let len = Oblivious.prefix_length r.Suu_i_obl.core in
      let mass = Mass.of_oblivious inst r.Suu_i_obl.core ~steps:len in
      Array.for_all
        (fun mj -> mj >= Suu_i_obl.tuned_params.Suu_i_obl.mass_target -. 1e-9)
        mass)

let prop_makespan_reasonable =
  QCheck.Test.make ~name:"oblivious schedule completes within horizon" ~count:30
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let inst = random_inst seed 3 n in
      let policy = Suu_i_obl.policy inst in
      let o = Suu_sim.Engine.run (Rng.create (seed + 1)) inst policy in
      o.Suu_sim.Engine.completed)

(* The guess-doubling search behind Algorithm 2 and the improved ladder:
   a stub [attempt] that always fails counts how many guesses run before
   [Too_long]. *)
let doubling_attempts p =
  let inst = Instance.independent ~p:[| [| p |] |] in
  let attempts = ref 0 in
  match
    Suu_algo.Accum.doubling_guess inst
      ~jobs:(Suu_algo.Accum.all_jobs inst)
      ~mass_target:0.25 ~t0:1
      ~attempt:(fun _ ->
        incr attempts;
        None)
  with
  | _ -> Alcotest.fail "expected Too_long"
  | exception Suu_algo.Accum.Too_long msg -> (!attempts, msg)

let test_too_long_before_any_attempt () =
  (* At p = 1e-12 job 0 needs a 2.5e11-step round; the budget at m = 1
     stops at 2^20 steps, so no guess can succeed and none runs. *)
  let attempts, msg = doubling_attempts 1e-12 in
  Alcotest.(check int) "no attempt runs" 0 attempts;
  Alcotest.(check string) "same message"
    "a 2097152-step guess at m=1 exceeds the 4194304-word schedule budget \
     (p_min 1e-12)"
    msg;
  (* At p = 1e-6 a 2^18-step round could reach the target, so every
     guess within the budget still runs before the same kind of stop. *)
  let attempts, msg = doubling_attempts 1e-6 in
  Alcotest.(check int) "every guess in budget runs" 21 attempts;
  Alcotest.(check string) "message at the budget"
    "a 2097152-step guess at m=1 exceeds the 4194304-word schedule budget \
     (p_min 1e-06)"
    msg

let () =
  Alcotest.run "suu_i_obl"
    [
      ( "algorithm 2",
        [
          Alcotest.test_case "tuned target" `Quick test_core_reaches_target_tuned;
          Alcotest.test_case "paper target" `Quick test_core_reaches_target_paper;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "empty" `Quick test_empty_instance;
          Alcotest.test_case "certain job" `Quick test_single_certain_job;
          Alcotest.test_case "cyclic schedule" `Quick test_schedule_is_cyclic;
          Alcotest.test_case "completes" `Quick test_schedule_completes;
          Alcotest.test_case "t grows with hardness" `Quick
            test_final_t_grows_with_hardness;
          Alcotest.test_case "too long before any attempt" `Quick
            test_too_long_before_any_attempt;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_every_job_served;
          QCheck_alcotest.to_alcotest prop_makespan_reasonable;
        ] );
    ]
