(* The trial-batched vectorized kernel: every estimator runs it for
   structurally tagged policies (greedy pair scans and oblivious
   schedules), and its makespans must be distribution-equivalent to the
   naive stepper's. The greedy kernel additionally has a stepper-order
   ref mode that must be bit-identical to [Engine.run], which pins the
   word-wide bookkeeping (free/eligible/mass/marked words) exactly. *)

module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious
module Policy = Suu_core.Policy
module Engine = Suu_sim.Engine
module Lanes = Suu_sim.Lanes
module Rng = Suu_prob.Rng

let mixed_inst () =
  (* 12 jobs, 4 machines, a small diamond-ish DAG: enough structure to
     exercise pred words, succ refresh and mass contention. *)
  let rng = Rng.create 9104 in
  Instance.create
    ~p:(Array.init 4 (fun _ -> Array.init 12 (fun _ -> Rng.uniform rng 0.2 0.9)))
    ~dag:
      (Suu_dag.Dag.create ~n:12
         [ (0, 3); (0, 4); (1, 4); (2, 5); (4, 8); (5, 8); (6, 9); (8, 11) ])

let test_greedy_ref_bit_identical () =
  (* Lane [l] of the ref mode replays the scalar draw order from its own
     generator, so it must reproduce [Engine.run] on an equally-seeded
     generator exactly — per lane, not just in law. *)
  let inst = mixed_inst () in
  let releases = Array.init 12 (fun j -> if j mod 5 = 0 then 2 else 0) in
  let policy = Suu_algo.Suu_i.policy inst in
  let k = Option.get (Lanes.create ~releases inst policy) in
  let lanes = 20 and max_steps = 10_000 in
  let rngs = Array.init lanes (fun l -> Rng.create (7000 + (31 * l))) in
  let makespans = Array.make lanes 0 in
  Lanes.run_word_ref k ~rngs ~max_steps ~makespans;
  for l = 0 to lanes - 1 do
    let o =
      Engine.run ~max_steps ~releases (Rng.create (7000 + (31 * l))) inst policy
    in
    Alcotest.(check bool) (Printf.sprintf "lane %d completed" l) true
      o.Engine.completed;
    Alcotest.(check int)
      (Printf.sprintf "lane %d = scalar stepper" l)
      o.Engine.makespan makespans.(l)
  done

let test_ref_mode_cols_rejected () =
  let inst = Instance.independent ~p:[| [| 0.5 |] |] in
  let sched = Oblivious.create ~m:1 ~cycle:[| [| 0 |] |] [||] in
  let k = Option.get (Lanes.create inst (Policy.of_oblivious "s" sched)) in
  Alcotest.check_raises "cols has no ref mode"
    (Invalid_argument "Lanes.run_word_ref: only greedy kernels have a ref mode")
    (fun () ->
      Lanes.run_word_ref k ~rngs:[| Rng.create 1 |] ~max_steps:10
        ~makespans:(Array.make 1 0))

let test_create_requires_structure () =
  let inst = Instance.independent ~p:[| [| 0.5 |] |] in
  let general = Policy.stateless "g" (fun _ -> [| 0 |]) in
  Alcotest.(check bool)
    "untagged policy is not vectorizable" true
    (Lanes.create inst general = None)

let test_cols_certain_chain () =
  (* p = 1 everywhere makes the kernel deterministic: chain 0 -> 1 under
     a round-robin schedule finishes at step 2 in every lane. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let sched = Oblivious.create ~m:1 ~cycle:[| [| 0 |]; [| 1 |] |] [||] in
  let k = Option.get (Lanes.create inst (Policy.of_oblivious "s" sched)) in
  let makespans = Array.make Lanes.lanes_per_word (-7) in
  Lanes.run_word k ~seed:5 ~max_steps:100 ~lanes:Lanes.lanes_per_word
    ~makespans;
  Array.iter (fun mk -> Alcotest.(check int) "makespan 2" 2 mk) makespans

let test_greedy_certain_jobs () =
  let inst = Instance.independent ~p:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let k = Option.get (Lanes.create inst (Suu_algo.Suu_i.policy inst)) in
  let makespans = Array.make Lanes.lanes_per_word 0 in
  Lanes.run_word k ~seed:6 ~max_steps:100 ~lanes:Lanes.lanes_per_word
    ~makespans;
  Array.iter (fun mk -> Alcotest.(check int) "one step" 1 mk) makespans

let test_release_dates_respected () =
  (* One certain job released at step 3, routed through the vectorized
     path by [estimate_makespan] (70 trials = one full word + a partial
     one): every sample must be exactly 4. *)
  let inst = Instance.independent ~p:[| [| 1.0 |] |] in
  let sched = Oblivious.create ~m:1 ~cycle:[| [| 0 |] |] [||] in
  let e =
    Engine.estimate_makespan ~releases:[| 3 |] ~trials:70 (Rng.create 2) inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check int) "all trials executed" 70 e.Engine.trials;
  Alcotest.(check (array (float 0.)))
    "waits for release"
    (Array.make 70 4.) e.Engine.samples

let test_truncation_reported () =
  (* A schedule that never works job 1: every vectorized trial must be
     reported incomplete, exactly like the scalar paths. *)
  let inst = Instance.independent ~p:[| [| 0.9; 0.9 |] |] in
  let sched = Oblivious.finite ~m:1 [| [| 0 |]; [| 0 |] |] in
  let e =
    Engine.estimate_makespan ~max_steps:50 ~trials:70 (Rng.create 3) inst
      (Policy.of_oblivious "s" sched)
  in
  Alcotest.(check int) "all incomplete" 70 e.Engine.incomplete;
  Alcotest.(check int) "no samples" 0 (Array.length e.Engine.samples)

let test_vectorized_deterministic () =
  (* The vectorized estimate is a pure function of the caller's
     generator state. *)
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let a = Engine.estimate_makespan ~trials:200 (Rng.create 11) inst policy in
  let b = Engine.estimate_makespan ~trials:200 (Rng.create 11) inst policy in
  Alcotest.(check (array (float 0.))) "same samples" a.Engine.samples
    b.Engine.samples;
  Alcotest.(check int) "200 samples in trial order" 200
    (Array.length a.Engine.samples)

let test_matches_scalar_stats () =
  (* Statistical cross-check on an instance too big for the exact chain:
     kernel and naive-stepper (untagged) means over independent trial
     sets must agree within a generous CLT tolerance, for both kernel
     modes. *)
  let rng = Rng.create 2027 in
  let inst =
    Instance.independent
      ~p:(Array.init 6 (fun _ -> Array.init 24 (fun _ -> Rng.uniform rng 0.1 0.9)))
  in
  let trials = 4000 in
  let check_pair name vectorized scalar =
    let diff =
      Float.abs
        (vectorized.Engine.stats.Suu_prob.Stats.mean
        -. scalar.Engine.stats.Suu_prob.Stats.mean)
    in
    let tol =
      Float.max 0.15
        (4.
        *. (vectorized.Engine.stats.Suu_prob.Stats.sem
           +. scalar.Engine.stats.Suu_prob.Stats.sem))
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s means agree (diff %.3f, tol %.3f)" name diff tol)
      true (diff < tol);
    Alcotest.(check int) (name ^ " vectorized completes") 0
      vectorized.Engine.incomplete
  in
  let greedy = Suu_algo.Suu_i.policy inst in
  check_pair "greedy"
    (Engine.estimate_makespan ~trials (Rng.create 41) inst greedy)
    (Engine.estimate_makespan_seeded ~trials ~seed:42 inst
       (Policy.make "untagged" greedy.Policy.fresh));
  let sched = Suu_algo.Suu_i_obl.schedule inst in
  check_pair "oblivious"
    (Engine.estimate_makespan ~trials (Rng.create 43) inst
       (Policy.of_oblivious "obl" sched))
    (Engine.estimate_makespan_seeded ~trials ~seed:44 inst
       (Policy.stateless "untagged" (fun st ->
            Oblivious.step sched st.Policy.step)))

(* --- CI-width sequential stopping ------------------------------------ *)

let word = Lanes.lanes_per_word

let test_ci_target_stops_early () =
  let inst = Instance.independent ~p:[| [| 0.5 |] |] in
  let policy = Policy.stateless "one" (fun _ -> [| 0 |]) in
  let e =
    Engine.estimate_makespan ~ci_target:0.2 ~trials:50_000 (Rng.create 8) inst
      policy
  in
  Alcotest.(check bool) "stopped early" true (e.Engine.trials < 50_000);
  Alcotest.(check int) "at a word boundary" 0 (e.Engine.trials mod word);
  Alcotest.(check bool) "target reached" true
    (e.Engine.stats.Suu_prob.Stats.ci95 <= 0.2);
  Alcotest.(check int) "samples match executed count" e.Engine.trials
    (Array.length e.Engine.samples)

let test_ci_target_vectorized_stops () =
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan ~ci_target:0.3 ~trials:50_000 (Rng.create 9) inst
      policy
  in
  Alcotest.(check bool) "stopped early" true (e.Engine.trials < 50_000);
  Alcotest.(check int) "at a word boundary" 0 (e.Engine.trials mod word);
  Alcotest.(check bool) "target reached" true
    (e.Engine.stats.Suu_prob.Stats.ci95 <= 0.3)

let test_ci_target_unreachable_runs_all () =
  let inst = Instance.independent ~p:[| [| 0.5 |] |] in
  let policy = Policy.stateless "one" (fun _ -> [| 0 |]) in
  let e =
    Engine.estimate_makespan ~ci_target:1e-9 ~trials:200 (Rng.create 8) inst
      policy
  in
  Alcotest.(check int) "all trials run" 200 e.Engine.trials

let test_ci_target_validated () =
  let inst = Instance.independent ~p:[| [| 0.5 |] |] in
  let policy = Policy.stateless "one" (fun _ -> [| 0 |]) in
  Alcotest.check_raises "ci_target <= 0 rejected"
    (Invalid_argument "Engine: ci_target must be > 0") (fun () ->
      ignore
        (Engine.estimate_makespan ~ci_target:0. ~trials:10 (Rng.create 1) inst
           policy))

let test_ci_parallel_equals_seeded () =
  (* Under a ci_target the parallel estimator must find the same stopping
     boundary (hence samples and trial count) as the sequential seeded
     one, at any domain count. *)
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let seeded =
    Engine.estimate_makespan_seeded ~ci_target:0.3 ~trials:50_000 ~seed:77 inst
      policy
  in
  Alcotest.(check bool) "seeded stopped early" true
    (seeded.Engine.trials < 50_000);
  List.iter
    (fun domains ->
      let par =
        Engine.estimate_makespan_seeded ~domains ~ci_target:0.3
          ~trials:50_000 ~seed:77 inst policy
      in
      Alcotest.(check int)
        (Printf.sprintf "same stopping point at %d domains" domains)
        seeded.Engine.trials par.Engine.trials;
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "same samples at %d domains" domains)
        seeded.Engine.samples par.Engine.samples)
    [ 1; 3 ]

let test_ci_range_relative_to_lo () =
  (* Range stopping counts word boundaries from [lo], so a range is a
     pure function of (seed, lo, hi, ci_target) — wherever it sits. *)
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan_range ~ci_target:0.3 ~seed:5 ~lo:word ~hi:50_000
      inst policy
  in
  Alcotest.(check bool) "stopped early" true (e.Engine.trials < 50_000 - word);
  Alcotest.(check int) "boundary relative to lo" 0 (e.Engine.trials mod word);
  let again =
    Engine.estimate_makespan_range ~ci_target:0.3 ~seed:5 ~lo:word ~hi:50_000
      inst policy
  in
  Alcotest.(check int) "deterministic" e.Engine.trials again.Engine.trials

(* --- merge_ranges edge cases ----------------------------------------- *)

let test_merge_empty_rejected () =
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Engine.merge_ranges: no parts") (fun () ->
      ignore (Engine.merge_ranges ~max_steps:10 []))

let test_merge_singleton_identity () =
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let e = Engine.estimate_makespan_range ~seed:3 ~lo:0 ~hi:40 inst policy in
  let m = Engine.merge_ranges ~max_steps:(Engine.default_horizon inst) [ e ] in
  Alcotest.(check int) "trials" e.Engine.trials m.Engine.trials;
  Alcotest.(check int) "incomplete" e.Engine.incomplete m.Engine.incomplete;
  Alcotest.(check (array (float 0.))) "samples" e.Engine.samples
    m.Engine.samples;
  Alcotest.(check (float 1e-12))
    "mean" e.Engine.stats.Suu_prob.Stats.mean m.Engine.stats.Suu_prob.Stats.mean

let test_merge_early_stopped_partial_counts () =
  (* A part cut short by its ci_target contributes its executed count,
     not its nominal range width. *)
  let inst = mixed_inst () in
  let policy = Suu_algo.Suu_i.policy inst in
  let full =
    Engine.estimate_makespan_range ~seed:5 ~lo:0 ~hi:(2 * word) inst policy
  in
  let stopped =
    Engine.estimate_makespan_range ~ci_target:0.3 ~seed:5 ~lo:(2 * word)
      ~hi:50_000 inst policy
  in
  Alcotest.(check bool) "second part stopped early" true
    (stopped.Engine.trials < 50_000 - (2 * word));
  let m =
    Engine.merge_ranges ~max_steps:(Engine.default_horizon inst)
      [ full; stopped ]
  in
  Alcotest.(check int) "trials add executed counts"
    (full.Engine.trials + stopped.Engine.trials)
    m.Engine.trials;
  Alcotest.(check int) "incomplete adds"
    (full.Engine.incomplete + stopped.Engine.incomplete)
    m.Engine.incomplete;
  Alcotest.(check int) "samples concatenate"
    (Array.length full.Engine.samples + Array.length stopped.Engine.samples)
    (Array.length m.Engine.samples)

let () =
  Alcotest.run "lanes"
    [
      ( "bit identity",
        [
          Alcotest.test_case "greedy ref mode = scalar stepper" `Quick
            test_greedy_ref_bit_identical;
          Alcotest.test_case "cols ref mode rejected" `Quick
            test_ref_mode_cols_rejected;
          Alcotest.test_case "untagged not vectorizable" `Quick
            test_create_requires_structure;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "cols certain chain" `Quick
            test_cols_certain_chain;
          Alcotest.test_case "greedy certain jobs" `Quick
            test_greedy_certain_jobs;
          Alcotest.test_case "release dates" `Quick
            test_release_dates_respected;
          Alcotest.test_case "truncation" `Quick test_truncation_reported;
          Alcotest.test_case "deterministic" `Quick
            test_vectorized_deterministic;
        ] );
      ( "distribution equivalence",
        [
          Alcotest.test_case "matches scalar stats" `Slow
            test_matches_scalar_stats;
        ] );
      ( "sequential stopping",
        [
          Alcotest.test_case "stops early (scalar)" `Quick
            test_ci_target_stops_early;
          Alcotest.test_case "stops early (vectorized)" `Quick
            test_ci_target_vectorized_stops;
          Alcotest.test_case "unreachable target runs all" `Quick
            test_ci_target_unreachable_runs_all;
          Alcotest.test_case "target validated" `Quick test_ci_target_validated;
          Alcotest.test_case "parallel = seeded under stopping" `Quick
            test_ci_parallel_equals_seeded;
          Alcotest.test_case "range stops relative to lo" `Quick
            test_ci_range_relative_to_lo;
        ] );
      ( "merge edge cases",
        [
          Alcotest.test_case "empty rejected" `Quick test_merge_empty_rejected;
          Alcotest.test_case "singleton identity" `Quick
            test_merge_singleton_identity;
          Alcotest.test_case "early-stopped partial counts" `Quick
            test_merge_early_stopped_partial_counts;
        ] );
    ]
