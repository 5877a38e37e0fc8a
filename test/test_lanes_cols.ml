(* The fast path for oblivious schedules: the engine runs a policy that
   carries an [Oblivious_schedule] structure tag through the Lanes
   kernel's column mode (geometric leapfrog skips over the schedule),
   and its makespans must be distribution-equivalent to the naive
   unit-step stepper's (they draw different RNG streams, so the
   equivalence is in law, not bit-for-bit). *)

module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious
module Policy = Suu_core.Policy
module Engine = Suu_sim.Engine
module Rng = Suu_prob.Rng

(* The same schedule with its structure hidden, forcing the engine onto
   the naive stepper — the reference implementation. *)
let naive_policy sched =
  Policy.stateless "naive" (fun state -> Oblivious.step sched state.Policy.step)

let small_inst () =
  Instance.create
    ~p:[| [| 0.5; 0.35; 0.8 |]; [| 0.25; 0.6; 0.4 |] |]
    ~dag:(Suu_dag.Dag.create ~n:3 [ (0, 2) ])

(* Prefix and cycle differ, the cycle has runs longer than one step, and
   the prefix assigns machines to the not-yet-eligible job 2 — together
   they exercise prefix runs, cycle wrap-around and eligibility
   clipping. *)
let small_sched () =
  Oblivious.create ~m:2
    ~cycle:[| [| 2; 1 |]; [| 2; 0 |]; [| 1; 2 |] |]
    [| [| 0; 2 |]; [| 1; 0 |] |]

let test_dispatch_tag () =
  let sched = small_sched () in
  Alcotest.(check bool)
    "of_oblivious is tagged" true
    (Policy.oblivious (Policy.of_oblivious "s" sched) <> None);
  Alcotest.(check bool)
    "stateless wrapper is not" true
    (Policy.oblivious (naive_policy sched) = None)

let test_certain_jobs_exact () =
  (* With p = 1 everywhere both paths are deterministic, so leapfrog and
     naive must agree exactly, not just in law: chain 0 -> 1 under a
     round-robin schedule finishes 0 at step 0 and 1 at step 1. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let sched = Oblivious.create ~m:1 ~cycle:[| [| 0 |]; [| 1 |] |] [||] in
  let leap =
    Engine.estimate_makespan_seeded ~trials:5 ~seed:1 inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check (array (float 0.)))
    "all makespans = 2"
    (Array.make 5 2.) leap.Engine.samples

let test_release_dates_respected () =
  (* One certain job released at step 3: every leapfrog trial must land
     exactly at makespan 4, like the naive stepper. *)
  let inst = Instance.independent ~p:[| [| 1.0 |] |] in
  let sched = Oblivious.create ~m:1 ~cycle:[| [| 0 |] |] [||] in
  let e =
    Engine.estimate_makespan_seeded ~releases:[| 3 |] ~trials:5 ~seed:2 inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check (array (float 0.)))
    "waits for release"
    (Array.make 5 4.) e.Engine.samples

let test_never_completes () =
  (* Empty cycle and a job the prefix never assigns: the leapfrog path
     must report the truncation exactly like the naive stepper (all
     trials incomplete, none sampled). *)
  let inst = Instance.independent ~p:[| [| 0.9; 0.9 |] |] in
  let sched = Oblivious.finite ~m:1 [| [| 0 |]; [| 0 |] |] in
  let e =
    Engine.estimate_makespan_seeded ~max_steps:50 ~trials:10 ~seed:3 inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check int) "all incomplete" 10 e.Engine.incomplete;
  Alcotest.(check int) "no samples" 0 (Array.length e.Engine.samples)

let test_cdf_matches_exact () =
  (* Distribution equivalence, proven against the exact Markov-chain
     analysis rather than a second Monte-Carlo run: the empirical
     makespan CDF of the leapfrog sampler must track
     [Exact_oblivious.cdf] uniformly. With 50k trials the DKW bound puts
     the sup-distance below 0.01 except with negligible probability. *)
  let inst = small_inst () in
  let sched = small_sched () in
  let horizon = 120 in
  let exact = Suu_sim.Exact_oblivious.cdf inst sched ~horizon in
  let trials = 50_000 in
  let e =
    Engine.estimate_makespan_seeded ~max_steps:horizon ~trials ~seed:17 inst
      (Policy.of_oblivious "s" sched)
  in
  (* Empirical P(T <= t), counting truncated trials as T > horizon. *)
  let counts = Array.make (horizon + 1) 0 in
  Array.iter
    (fun s ->
      let t = Float.to_int s in
      if t <= horizon then counts.(t) <- counts.(t) + 1)
    e.Engine.samples;
  let sup = ref 0. in
  let acc = ref 0 in
  for t = 0 to horizon do
    acc := !acc + counts.(t);
    let emp = Float.of_int !acc /. Float.of_int trials in
    let d = Float.abs (emp -. exact.(t)) in
    if d > !sup then sup := d
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sup |empirical - exact| = %.4f < 0.015" !sup)
    true
    (!sup < 0.015)

let test_matches_naive_stats () =
  (* Seeded statistical cross-check on an instance too big for the exact
     chain: leapfrog and naive means over independent trial sets must
     agree within a generous CLT tolerance. *)
  let rng = Rng.create 2026 in
  let inst =
    Instance.independent
      ~p:(Array.init 4 (fun _ -> Array.init 16 (fun _ -> Rng.uniform rng 0.1 0.9)))
  in
  let sched = Suu_algo.Suu_i_obl.schedule inst in
  let trials = 3000 in
  let leap =
    Engine.estimate_makespan_seeded ~trials ~seed:31 inst
      (Policy.of_oblivious "leap" sched)
  in
  let naive =
    Engine.estimate_makespan_seeded ~trials ~seed:32 inst (naive_policy sched)
  in
  let diff =
    Float.abs
      (leap.Engine.stats.Suu_prob.Stats.mean
      -. naive.Engine.stats.Suu_prob.Stats.mean)
  in
  let tol =
    Float.max 0.15
      (4.
      *. (leap.Engine.stats.Suu_prob.Stats.sem
         +. naive.Engine.stats.Suu_prob.Stats.sem))
  in
  Alcotest.(check bool)
    (Printf.sprintf "means agree (diff %.3f, tol %.3f)" diff tol)
    true (diff < tol);
  Alcotest.(check int) "leapfrog completes" 0 leap.Engine.incomplete;
  Alcotest.(check int) "naive completes" 0 naive.Engine.incomplete

let () =
  Alcotest.run "lanes-cols"
    [
      ( "semantics",
        [
          Alcotest.test_case "engine dispatch tag" `Quick test_dispatch_tag;
          Alcotest.test_case "certain jobs exact" `Quick
            test_certain_jobs_exact;
          Alcotest.test_case "release dates" `Quick
            test_release_dates_respected;
          Alcotest.test_case "truncation" `Quick test_never_completes;
        ] );
      ( "distribution equivalence",
        [
          Alcotest.test_case "empirical CDF = exact CDF" `Slow
            test_cdf_matches_exact;
          Alcotest.test_case "matches naive stepper stats" `Slow
            test_matches_naive_stats;
        ] );
    ]
