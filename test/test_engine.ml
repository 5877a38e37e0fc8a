module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Engine = Suu_sim.Engine
module Rng = Suu_prob.Rng

let single_job p = Instance.independent ~p:[| [| p |] |]

let word = Suu_sim.Lanes.lanes_per_word

let always_assign inst =
  Policy.stateless "always" (fun _ -> Array.make (Instance.m inst) 0)

let test_empty_instance () =
  let inst = Instance.independent ~p:[| [||] |] in
  let o = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "makespan 0" 0 o.Engine.makespan;
  Alcotest.(check bool) "completed" true o.Engine.completed

let test_certain_job () =
  let inst = single_job 1.0 in
  let o = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "one step" 1 o.Engine.makespan

let test_geometric_mean () =
  (* Single job, p = 0.25: E[makespan] = 4. *)
  let inst = single_job 0.25 in
  let e =
    Engine.estimate_makespan ~trials:20_000 (Rng.create 5) inst
      (always_assign inst)
  in
  let mean = e.Engine.stats.Suu_prob.Stats.mean in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.) < 0.1)

let test_two_machines_combined () =
  (* Two machines p=0.5 each on one job: success 0.75, E = 4/3. *)
  let inst = Instance.independent ~p:[| [| 0.5 |]; [| 0.5 |] |] in
  let policy = Policy.stateless "both" (fun _ -> [| 0; 0 |]) in
  let e = Engine.estimate_makespan ~trials:20_000 (Rng.create 7) inst policy in
  let mean = e.Engine.stats.Suu_prob.Stats.mean in
  Alcotest.(check bool) "mean near 4/3" true (Float.abs (mean -. (4. /. 3.)) < 0.05)

let test_max_steps_cap () =
  let inst = single_job 0.5 in
  let never = Policy.stateless "idle" (fun _ -> [| -1 |]) in
  let o = Engine.run ~max_steps:50 (Rng.create 1) inst never in
  Alcotest.(check bool) "not completed" false o.Engine.completed;
  Alcotest.(check int) "hit cap" 50 o.Engine.makespan

let test_ineligible_jobs_not_run () =
  (* Chain 0 -> 1; a policy that always points machines at job 1 makes no
     progress on it until job 0 is done — and the engine must not let job 1
     complete first. *)
  let inst =
    Instance.create
      ~p:[| [| 0.6; 0.6 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let sneaky =
    Policy.stateless "sneaky" (fun state ->
        if state.Policy.unfinished.(1) then [| 1 |] else [| 0 |])
  in
  let o = Engine.run ~max_steps:100 (Rng.create 3) inst sneaky in
  (* Job 1 is never eligible while 0 is unfinished and the policy never
     works on 0 while 1 is unfinished: deadlock until the cap. *)
  Alcotest.(check bool) "deadlock detected" false o.Engine.completed

let test_precedence_order_respected () =
  let dag = Suu_dag.Dag.create ~n:3 [ (0, 1); (1, 2) ] in
  let inst = Instance.create ~p:[| [| 0.7; 0.7; 0.7 |] |] ~dag in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        [| !target |])
  in
  let history = Engine.trace (Rng.create 11) inst policy in
  let completion = Hashtbl.create 3 in
  List.iter
    (fun (t, _, completed) ->
      List.iter (fun j -> Hashtbl.replace completion j t) completed)
    history;
  let time j = Hashtbl.find completion j in
  Alcotest.(check bool) "0 before 1" true (time 0 < time 1);
  Alcotest.(check bool) "1 before 2" true (time 1 < time 2)

let test_trace_matches_assignments () =
  let inst = single_job 1.0 in
  let history = Engine.trace (Rng.create 1) inst (always_assign inst) in
  match history with
  | [ (0, a, [ 0 ]) ] -> Alcotest.(check (array int)) "assignment" [| 0 |] a
  | _ -> Alcotest.fail "unexpected trace shape"

let test_estimate_counts () =
  let inst = single_job 0.9 in
  let e =
    Engine.estimate_makespan ~trials:50 (Rng.create 2) inst (always_assign inst)
  in
  Alcotest.(check int) "trials" 50 e.Engine.trials;
  Alcotest.(check int) "complete" 0 e.Engine.incomplete;
  Alcotest.(check int) "count" 50 e.Engine.stats.Suu_prob.Stats.count

let test_default_horizon_positive () =
  let inst = single_job 0.01 in
  Alcotest.(check bool) "positive" true (Engine.default_horizon inst > 100)

let test_determinism () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6 |]; [| 0.7; 0.2 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let a = Engine.run (Rng.create 99) inst policy in
  let b = Engine.run (Rng.create 99) inst policy in
  Alcotest.(check int) "same seed same makespan" a.Engine.makespan b.Engine.makespan

(* --- multicore estimation --- *)

let test_parallel_matches_sequential_stats () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6; 0.5 |]; [| 0.7; 0.2; 0.4 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let seq =
    Engine.estimate_makespan ~trials:3000 (Rng.create 9) inst policy
  in
  let par =
    Engine.estimate_makespan_seeded ~domains:4 ~trials:3000 ~seed:9 inst
      policy
  in
  let diff =
    Float.abs
      (seq.Engine.stats.Suu_prob.Stats.mean
      -. par.Engine.stats.Suu_prob.Stats.mean)
  in
  let tol =
    Float.max 0.1
      (4.
      *. (seq.Engine.stats.Suu_prob.Stats.sem
         +. par.Engine.stats.Suu_prob.Stats.sem))
  in
  Alcotest.(check bool)
    (Printf.sprintf "means agree (diff %.3f, tol %.3f)" diff tol)
    true (diff < tol);
  Alcotest.(check int) "all samples" 3000
    (Array.length par.Engine.samples + par.Engine.incomplete)

let test_parallel_deterministic () =
  let inst = Instance.independent ~p:[| [| 0.4; 0.6 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let a =
    Engine.estimate_makespan_seeded ~domains:3 ~trials:100 ~seed:5 inst policy
  in
  let b =
    Engine.estimate_makespan_seeded ~domains:3 ~trials:100 ~seed:5 inst policy
  in
  Alcotest.(check (float 0.)) "same mean" a.Engine.stats.Suu_prob.Stats.mean
    b.Engine.stats.Suu_prob.Stats.mean

let test_parallel_identical_samples () =
  (* Regression: fixed (seed, domains) must reproduce the exact sample
     vector run over run, not merely the same mean. *)
  let inst =
    Instance.independent ~p:[| [| 0.3; 0.6; 0.5 |]; [| 0.7; 0.2; 0.4 |] |]
  in
  let policy = Suu_algo.Suu_i.policy inst in
  let run () =
    (Engine.estimate_makespan_seeded ~domains:3 ~trials:200 ~seed:42 inst
       policy)
      .Engine.samples
  in
  Alcotest.(check (array (float 0.))) "identical samples" (run ()) (run ())

let test_seeded_deterministic () =
  let inst = Instance.independent ~p:[| [| 0.4; 0.6 |]; [| 0.5; 0.3 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let run () =
    (Engine.estimate_makespan_seeded ~trials:150 ~seed:11 inst policy)
      .Engine.samples
  in
  Alcotest.(check (array (float 0.))) "identical samples" (run ()) (run ())

let test_seeded_matches_sequential_stats () =
  let inst = Instance.independent ~p:[| [| 0.3; 0.6 |]; [| 0.7; 0.2 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let seq = Engine.estimate_makespan ~trials:3000 (Rng.create 4) inst policy in
  let seeded = Engine.estimate_makespan_seeded ~trials:3000 ~seed:4 inst policy in
  let diff =
    Float.abs
      (seq.Engine.stats.Suu_prob.Stats.mean
      -. seeded.Engine.stats.Suu_prob.Stats.mean)
  in
  let tol =
    Float.max 0.1
      (4.
      *. (seq.Engine.stats.Suu_prob.Stats.sem
         +. seeded.Engine.stats.Suu_prob.Stats.sem))
  in
  Alcotest.(check bool)
    (Printf.sprintf "means agree (diff %.3f, tol %.3f)" diff tol)
    true (diff < tol)

let test_seeded_stop_interrupts () =
  let inst = single_job 0.5 in
  let calls = ref 0 in
  let stop () =
    incr calls;
    !calls > 3
  in
  Alcotest.check_raises "interrupted" Engine.Interrupted (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~stop ~trials:1000 ~seed:1 inst
           (always_assign inst)
          : Engine.estimate))

let test_seeded_on_word_hook () =
  let inst = single_job 0.5 in
  let seen = ref [] in
  let trials = (2 * word) + 5 in
  let e =
    Engine.estimate_makespan_seeded
      ~on_word:(fun w -> seen := w :: !seen)
      ~trials ~seed:3 inst (always_assign inst)
  in
  Alcotest.(check (list int)) "once per word, in order" [ 0; 1; 2 ]
    (List.rev !seen);
  (* The hook is pure observation: the estimate matches a hook-free run. *)
  let plain =
    Engine.estimate_makespan_seeded ~trials ~seed:3 inst (always_assign inst)
  in
  Alcotest.(check (array (float 0.))) "estimate unperturbed"
    plain.Engine.samples e.Engine.samples;
  (* Exceptions raised by the hook propagate to the caller — the seam the
     serving layer's fault harness relies on. *)
  Alcotest.check_raises "hook exceptions escape" Exit (fun () ->
      ignore
        (Engine.estimate_makespan_seeded
           ~on_word:(fun w -> if w = 1 then raise Exit)
           ~trials ~seed:3 inst (always_assign inst)
          : Engine.estimate))

let test_parallel_single_domain () =
  let inst = Instance.independent ~p:[| [| 0.8 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan_seeded ~domains:1 ~trials:50 ~seed:1 inst policy
  in
  Alcotest.(check int) "trials" 50 e.Engine.trials

let test_parallel_more_domains_than_trials () =
  let inst = Instance.independent ~p:[| [| 0.9 |] |] in
  let policy = Suu_algo.Suu_i.policy inst in
  let e =
    Engine.estimate_makespan_seeded ~domains:8 ~trials:3 ~seed:2 inst policy
  in
  Alcotest.(check int) "all trials done" 3
    (Array.length e.Engine.samples + e.Engine.incomplete)

(* --- hot-path regressions --- *)

let pinned_instance () =
  Instance.create
    ~p:[| [| 0.3; 0.6; 0.5; 0.25 |]; [| 0.7; 0.2; 0.4; 0.55 |] |]
    ~dag:(Suu_dag.Dag.create ~n:4 [ (0, 2); (1, 3) ])

let test_seeded_pinned_summary () =
  (* Golden values captured before the zero-allocation rework of the
     stepping path. The naive stepper is the engine's oracle and its
     Bernoulli draw sequence is part of the contract, so trial [k] of
     seed 7 — [Engine.run] on [Rng.create (trial_seed 7 k)] — must stay
     bit-identical across refactors, not merely statistically close. *)
  let inst = pinned_instance () in
  let policy = Suu_algo.Suu_i.policy inst in
  let samples =
    Array.init 100 (fun k ->
        let o = Engine.run (Rng.create (Engine.trial_seed 7 k)) inst policy in
        Alcotest.(check bool) "completed" true o.Engine.completed;
        Float.of_int o.Engine.makespan)
  in
  let s = Suu_prob.Stats.summarize samples in
  Alcotest.(check (float 1e-9)) "mean" 3.89 s.Suu_prob.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 1.3699148392 s.Suu_prob.Stats.stddev;
  Alcotest.(check (float 0.)) "min" 2. s.Suu_prob.Stats.min;
  Alcotest.(check (float 0.)) "max" 10. s.Suu_prob.Stats.max;
  Alcotest.(check int) "count" 100 s.Suu_prob.Stats.count;
  Alcotest.(check (array (float 0.)))
    "samples head (trial order)"
    [| 2.; 3.; 6.; 5.; 3.; 3.; 6.; 3.; 4.; 2. |]
    (Array.sub samples 0 10)

let test_word_seeded_pinned_summary () =
  (* The word-seeded estimate is the served answer: word [w] of seed 7
     runs the Lanes kernel on [trial_seed 7 w]. Pinned so any change to
     the kernel's stream or the fold's sample order shows up here. *)
  let inst = pinned_instance () in
  let e =
    Engine.estimate_makespan_seeded ~trials:100 ~seed:7 inst
      (Suu_algo.Suu_i.policy inst)
  in
  let s = e.Engine.stats in
  Alcotest.(check (float 1e-9)) "mean" 4.1 s.Suu_prob.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 1.6605950011 s.Suu_prob.Stats.stddev;
  Alcotest.(check int) "count" 100 s.Suu_prob.Stats.count;
  Alcotest.(check int) "incomplete" 0 e.Engine.incomplete;
  Alcotest.(check (array (float 0.)))
    "samples head (word order)"
    [| 4.; 3.; 4.; 4.; 2.; 10.; 3.; 4.; 6.; 2. |]
    (Array.sub e.Engine.samples 0 10)

let test_unseeded_is_seeded_on_drawn_seed () =
  (* [estimate_makespan rng] is one master-seed draw plus the seeded
     word fold, for tagged and untagged policies alike. *)
  let inst = pinned_instance () in
  let tagged = Suu_algo.Suu_i.policy inst in
  List.iter
    (fun policy ->
      let trials = 150 in
      let e = Engine.estimate_makespan ~trials (Rng.create 13) inst policy in
      let seed = Int64.to_int (Rng.int64 (Rng.create 13)) in
      let s = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
      Alcotest.(check (array (float 0.)))
        (policy.Policy.name ^ ": samples") s.Engine.samples e.Engine.samples)
    [ tagged; Policy.make "suu-i-untagged" tagged.Policy.fresh ]

(* The contract's headline: for kernel-served (greedy, column) and
   naive-served (untagged) policies, with and without a ci_target, the
   sequential estimate, its word-aligned ranges concatenated, and the
   multi-domain fold agree bit for bit. *)
let test_word_fold_bit_identity () =
  let inst = pinned_instance () in
  let greedy = Suu_algo.Suu_i.policy inst in
  let policies =
    [
      greedy;
      Policy.of_oblivious "suu-i-obl" (Suu_algo.Suu_i_obl.schedule inst);
      Policy.make "suu-i-untagged" greedy.Policy.fresh;
    ]
  in
  let trials = (5 * word) + 17 and seed = 99 in
  let bits e = Array.map Int64.bits_of_float e.Engine.samples in
  List.iter
    (fun policy ->
      List.iter
        (fun ci_target ->
          let label what =
            Printf.sprintf "%s%s: %s" policy.Policy.name
              (if ci_target = None then "" else " (ci_target)")
              what
          in
          let seq =
            Engine.estimate_makespan_seeded ?ci_target ~trials ~seed inst
              policy
          in
          let same what e =
            Alcotest.(check (array int64)) (label what) (bits seq) (bits e);
            Alcotest.(check int) (label (what ^ " trials")) seq.Engine.trials
              e.Engine.trials;
            Alcotest.(check int)
              (label (what ^ " incomplete"))
              seq.Engine.incomplete e.Engine.incomplete
          in
          List.iter
            (fun domains ->
              same
                (Printf.sprintf "%d domains" domains)
                (Engine.estimate_makespan_seeded ?ci_target ~domains ~trials
                   ~seed inst policy))
            [ 1; 2; 4 ];
          if ci_target = None then begin
            let parts =
              List.map
                (fun (lo, hi) ->
                  Engine.estimate_makespan_range ~seed ~lo ~hi inst policy)
                [ (0, word); (word, 3 * word); (3 * word, trials) ]
            in
            same "ranges"
              (Engine.merge_ranges ~max_steps:(Engine.default_horizon inst)
                 parts)
          end)
        [ None; Some 0.2 ])
    policies

(* Kernel golden: the MD5 of the sample bits of 200-trial seeded
   estimates on the four workload families at n=64, m=16 (built as the
   perf suite's [lp_workloads]), for the three greedy kinds. Pinned
   before the greedy lane kernel's group mass check, which must leave
   every sample bit unchanged; these sizes run its hard-lane path on
   most steps, unlike the 4-job pinned instance. *)
let kernel_golden =
  [
    ( "grid_batch",
      `Adaptive,
      [
        "6876d136417f7e2b473165a49c0db4f8";
        "23f295f4a6eccecbc12ebf24d2e47392";
        "181827c3791f132d54d7fd8907ebab33";
      ] );
    ( "grid_batch",
      `Improved,
      [
        "544be88cfc71c00c0c33d663945e2374";
        "0f938cd78e8e9ee1f9c3622606a04e76";
        "918e94073a5a954d78da218babe11ff1";
      ] );
    ( "grid_batch",
      `Fixed,
      [
        "861a820a315a0a0735fd40a771344140";
        "0d7cc3ea7b8597f00464069680db4b4b";
        "d31bb83309ff7cae5a672212a562919f";
      ] );
    ( "grid_workflow",
      `Adaptive,
      [
        "fab7eab8e3c95beaebd3eb53d94ba36e";
        "edfb3b8fea1dc9b7134cb65ac8f390f2";
        "a5971cc3a21aea2067c0b78ff1ea6fda";
      ] );
    ( "grid_workflow",
      `Improved,
      [
        "8abf20bd1650d14117ee77c1309645bb";
        "0462e8b279df5b9f4ce949fedac77b4c";
        "85b8604a10539e836a522d03e8f46d87";
      ] );
    ( "grid_workflow",
      `Fixed,
      [
        "2c9a6dd64dc2875d22191438d87e641f";
        "20db78a654ae1f5feafc89f1e9f47f41";
        "c05b21f259a899d651e4321a4dbd1451";
      ] );
    ( "grid_divide",
      `Adaptive,
      [
        "f39fa2e01888dff3f52170f5bcfb8777";
        "795e7ec52730a191778fcbcd500e8152";
        "2502393af1c845861ca24aa67e97fd1a";
      ] );
    ( "grid_divide",
      `Improved,
      [
        "d3fa85a69bf868afa94bada3a2749f42";
        "d1a301f18bde85c0ff256b4e6139f2ea";
        "009270e03c67a39df10ebc92b62b053e";
      ] );
    ( "grid_divide",
      `Fixed,
      [
        "e1684839178ce25e4ee6c318ff1ecb11";
        "795a9ff9d580a3b1f8fd3690e55fa699";
        "4b1bedbca3c19895003164183d788b98";
      ] );
    ( "project",
      `Adaptive,
      [
        "6dc48e70732c72a8f393e32dcb89e7b6";
        "49b8e5f5297182f6017ef8ca2c7a1347";
        "998e4ceae2d416f9339507e8d6865003";
      ] );
    ( "project",
      `Improved,
      [
        "da75fd11bf0f73a8cbb131cb26958526";
        "d02837e5f68feb94b7f3758a59f0c849";
        "65a2aa5aadb5db2fc4bafc59bdee2c25";
      ] );
    ( "project",
      `Fixed,
      [
        "ca837142f9a5bf99af112ae56fa5489b";
        "66dd28b08b917b651680d7024251a54b";
        "634e95c8aa4126f11e94bb87711d2b02";
      ] );
  ]

let golden_families () =
  let module W = Suu_workloads.Workload in
  let gen f = (f (Rng.create 1) ~n:64 ~m:16).W.instance in
  [
    ("grid_batch", gen W.grid_batch);
    ("grid_workflow", gen (W.grid_workflow ~stages:4));
    ("grid_divide", gen W.grid_divide);
    ("project", gen W.project);
  ]

let kind_name : Suu_algo.Solver.kind -> string = function
  | `Adaptive -> "adaptive"
  | `Oblivious -> "oblivious"
  | `Improved -> "improved"
  | `Fixed -> "fixed"

let sample_digest inst policy ~seed =
  let e = Engine.estimate_makespan_seeded ~trials:200 ~seed inst policy in
  let b = Buffer.create (8 * 200) in
  Array.iter
    (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
    e.Engine.samples;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_kernel_golden () =
  let families = golden_families () in
  List.iter
    (fun (fam, kind, digests) ->
      let inst = List.assoc fam families in
      let policy = Suu_algo.Solver.solve ~kind inst in
      List.iteri
        (fun i want ->
          let seed = i + 1 in
          Alcotest.(check string)
            (Printf.sprintf "%s %s seed %d" fam (kind_name kind) seed)
            want
            (sample_digest inst policy ~seed))
        digests)
    kernel_golden

let test_range_rejects_unaligned_lo () =
  let inst = pinned_instance () in
  Alcotest.check_raises "unaligned lo"
    (Invalid_argument
       "Engine.estimate_makespan_range: lo must be a multiple of \
        Lanes.lanes_per_word") (fun () ->
      ignore
        (Engine.estimate_makespan_range ~seed:1 ~lo:10 ~hi:100 inst
           (Suu_algo.Suu_i.policy inst)
          : Engine.estimate))

let test_parallel_equals_seeded_any_domains () =
  (* The parallel estimator derives trial [k]'s stream from [(seed, k)]
     exactly like the seeded one, so summary and sample vector must be
     identical at every domain count — not just run-over-run stable. *)
  let inst = pinned_instance () in
  let policy = Suu_algo.Suu_i.policy inst in
  let trials = 120 and seed = 21 in
  let seeded = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
  List.iter
    (fun domains ->
      let par =
        Engine.estimate_makespan_seeded ~domains ~trials ~seed inst policy
      in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "samples identical at %d domains" domains)
        seeded.Engine.samples par.Engine.samples;
      Alcotest.(check int)
        (Printf.sprintf "incomplete identical at %d domains" domains)
        seeded.Engine.incomplete par.Engine.incomplete)
    [ 1; 2; 4 ]

let test_parallel_stop_interrupts () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "interrupted" Engine.Interrupted (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~domains:2
           ~stop:(fun () -> true)
           ~trials:100 ~seed:1 inst (always_assign inst)
          : Engine.estimate))

let test_parallel_on_word_hook () =
  let inst = single_job 0.9 in
  let trials = 5 * word in
  (* Distinct slots per word index, so concurrent hook calls from the
     worker domains never race. *)
  let seen = Array.make 5 0 in
  let e =
    Engine.estimate_makespan_seeded ~domains:3
      ~on_word:(fun w -> seen.(w) <- seen.(w) + 1)
      ~trials ~seed:5 inst (always_assign inst)
  in
  Alcotest.(check int) "trials" trials e.Engine.trials;
  Array.iteri
    (fun w c -> Alcotest.(check int) (Printf.sprintf "word %d hooked once" w) 1 c)
    seen;
  Alcotest.check_raises "hook exceptions escape" Exit (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~domains:2
           ~on_word:(fun w -> if w = 3 then raise Exit)
           ~trials ~seed:5 inst (always_assign inst)
          : Engine.estimate))

(* --- release dates (online executions) --- *)

let test_release_blocks_until_due () =
  (* One certain job released at step 3: makespan exactly 4. *)
  let inst = single_job 1.0 in
  let o =
    Engine.run ~releases:[| 3 |] (Rng.create 1) inst (always_assign inst)
  in
  Alcotest.(check int) "waits for release" 4 o.Engine.makespan

let test_release_zero_is_offline () =
  let inst = single_job 1.0 in
  let a = Engine.run ~releases:[| 0 |] (Rng.create 1) inst (always_assign inst) in
  let b = Engine.run (Rng.create 1) inst (always_assign inst) in
  Alcotest.(check int) "same" b.Engine.makespan a.Engine.makespan

let test_release_with_precedence () =
  (* Chain 0 -> 1; job 1 released early, job 0 late: both constraints
     must hold, so completion takes release(0) + 2 steps. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        [| !target |])
  in
  let o = Engine.run ~releases:[| 5; 0 |] (Rng.create 1) inst policy in
  Alcotest.(check int) "release then chain" 7 o.Engine.makespan

let test_release_never_run_before_release_step () =
  (* Chain 0 -> 1 with certain probabilities: job 0 is done at step 0, so
     job 1's only remaining gate is its release date. The trace must show
     no work on job 1 before step 4 even though its predecessor finished
     long before, and completion exactly at the release step. *)
  let inst =
    Instance.create
      ~p:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]
      ~dag:(Suu_dag.Dag.create ~n:2 [ (0, 1) ])
  in
  let releases = [| 0; 4 |] in
  let policy =
    Policy.stateless "first-eligible" (fun state ->
        let target = ref (-1) in
        Array.iteri
          (fun j e -> if e && !target < 0 then target := j)
          state.Policy.eligible;
        Array.make (Instance.m inst) !target)
  in
  let history = Engine.trace ~releases (Rng.create 1) inst policy in
  List.iter
    (fun (t, a, _) ->
      Array.iter
        (fun j ->
          if j = 1 then
            Alcotest.(check bool)
              (Printf.sprintf "job 1 worked at step %d before release" t)
              true (t >= releases.(1)))
        a)
    history;
  let completion = Hashtbl.create 2 in
  List.iter
    (fun (t, _, completed) ->
      List.iter (fun j -> Hashtbl.replace completion j t) completed)
    history;
  Alcotest.(check int) "pred done immediately" 0 (Hashtbl.find completion 0);
  Alcotest.(check int) "job 1 completes at its release step" 4
    (Hashtbl.find completion 1)

let test_release_length_mismatch () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "length"
    (Suu_sim.Releases.Invalid
       (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }))
    (fun () ->
      ignore
        (Engine.run ~releases:[| 0; 1 |] (Rng.create 1) inst (always_assign inst)
          : Engine.outcome))

let test_release_negative () =
  let inst = single_job 0.5 in
  Alcotest.check_raises "negative"
    (Suu_sim.Releases.Invalid
       (Suu_sim.Releases.Negative_release { job = 0; value = -1 }))
    (fun () ->
      ignore
        (Engine.run ~releases:[| -1 |] (Rng.create 1) inst (always_assign inst)
          : Engine.outcome))

let test_release_typed_validation () =
  (* The typed boundary, satellite-audited: every public entry that takes
     ?releases rejects hostile vectors with the same structured error,
     the result-style validator agrees, and the messages are printable. *)
  let inst = single_job 0.5 in
  let bad_len = [| 0; 1 |] and bad_neg = [| -3 |] in
  (match Suu_sim.Releases.validate ~n:1 bad_len with
  | Error (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }) -> ()
  | _ -> Alcotest.fail "validate: expected Length_mismatch");
  (match Suu_sim.Releases.validate ~n:1 bad_neg with
  | Error (Suu_sim.Releases.Negative_release { job = 0; value = -3 }) -> ()
  | _ -> Alcotest.fail "validate: expected Negative_release");
  Alcotest.(check bool)
    "error_to_string is non-empty" true
    (String.length
       (Suu_sim.Releases.error_to_string
          (Suu_sim.Releases.Length_mismatch { expected = 1; got = 2 }))
    > 0);
  (* the estimators and the vectorized kernel's boundary reject too *)
  let expect_invalid label f =
    match f () with
    | exception Suu_sim.Releases.Invalid _ -> ()
    | _ -> Alcotest.fail (label ^ ": hostile releases accepted")
  in
  expect_invalid "seeded" (fun () ->
      ignore
        (Engine.estimate_makespan_seeded ~releases:bad_neg ~trials:1 ~seed:1
           inst (always_assign inst)
          : Engine.estimate));
  expect_invalid "estimate" (fun () ->
      ignore
        (Engine.estimate_makespan ~releases:bad_len ~trials:1 (Rng.create 1)
           inst (always_assign inst)
          : Engine.estimate));
  expect_invalid "lanes" (fun () ->
      ignore
        (Suu_sim.Lanes.create ~releases:bad_neg inst
           (Suu_core.Policy.of_oblivious "sched"
              (Suu_core.Oblivious.create ~m:1 ~cycle:[| [| 0 |] |] [||]))
          : Suu_sim.Lanes.t option))

let prop_releases_only_delay =
  QCheck.Test.make ~name:"release dates never speed things up (mean)" ~count:10
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let inst =
        Instance.independent
          ~p:
            (Array.init 2 (fun _ ->
                 Array.init n (fun _ -> Rng.uniform rng 0.3 0.9)))
      in
      let policy = Suu_algo.Suu_i.policy inst in
      let releases =
        Suu_workloads.Workload.arrivals (Rng.split rng) ~n ~mean_gap:2.
      in
      let mean r =
        (Engine.estimate_makespan ?releases:r ~trials:400 (Rng.create 5) inst
           policy)
          .Engine.stats.Suu_prob.Stats.mean
      in
      mean (Some releases) >= mean None -. 0.5)

let prop_makespan_at_least_critical_path =
  QCheck.Test.make ~name:"makespan >= longest path length" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let dag = Suu_dag.Gen.out_forest (Rng.split rng) ~n ~trees:2 in
      let inst =
        Instance.create
          ~p:
            (Array.init 2 (fun _ ->
                 Array.init n (fun _ -> Suu_prob.Rng.uniform rng 0.3 1.)))
          ~dag
      in
      let policy = Suu_algo.Suu_i.policy inst in
      let o = Engine.run (Rng.split rng) inst policy in
      (not o.Engine.completed)
      || o.Engine.makespan >= Suu_dag.Dag.longest_path dag)

let prop_all_jobs_complete =
  QCheck.Test.make ~name:"adaptive policy completes all instances" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 10 and m = 1 + Rng.int rng 4 in
      let dag = Suu_dag.Gen.random_dag (Rng.split rng) ~n ~edge_prob:0.2 in
      let inst =
        Instance.create
          ~p:
            (Array.init m (fun _ ->
                 Array.init n (fun _ -> Suu_prob.Rng.uniform rng 0.1 0.9)))
          ~dag
      in
      let o = Engine.run (Rng.split rng) inst (Suu_algo.Suu_i.policy inst) in
      o.Engine.completed)

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "empty instance" `Quick test_empty_instance;
          Alcotest.test_case "certain job" `Quick test_certain_job;
          Alcotest.test_case "ineligible jobs blocked" `Quick
            test_ineligible_jobs_not_run;
          Alcotest.test_case "precedence respected" `Quick
            test_precedence_order_respected;
          Alcotest.test_case "trace shape" `Quick test_trace_matches_assignments;
          Alcotest.test_case "max steps cap" `Quick test_max_steps_cap;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "default horizon" `Quick
            test_default_horizon_positive;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "combined machines" `Slow
            test_two_machines_combined;
          Alcotest.test_case "estimate counts" `Quick test_estimate_counts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Slow
            test_parallel_matches_sequential_stats;
          Alcotest.test_case "deterministic" `Quick test_parallel_deterministic;
          Alcotest.test_case "identical samples" `Quick
            test_parallel_identical_samples;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "domains > trials" `Quick
            test_parallel_more_domains_than_trials;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "deterministic" `Quick test_seeded_deterministic;
          Alcotest.test_case "matches sequential" `Slow
            test_seeded_matches_sequential_stats;
          Alcotest.test_case "stop interrupts" `Quick
            test_seeded_stop_interrupts;
          Alcotest.test_case "on_word hook" `Quick test_seeded_on_word_hook;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "pinned seeded summary" `Quick
            test_seeded_pinned_summary;
          Alcotest.test_case "pinned word-seeded summary" `Quick
            test_word_seeded_pinned_summary;
          Alcotest.test_case "unseeded = seeded on a drawn seed" `Quick
            test_unseeded_is_seeded_on_drawn_seed;
          Alcotest.test_case "word fold bit identity" `Quick
            test_word_fold_bit_identity;
          Alcotest.test_case "range rejects unaligned lo" `Quick
            test_range_rejects_unaligned_lo;
          Alcotest.test_case "kernel golden (n=64 m=16 families)" `Quick
            test_kernel_golden;
          Alcotest.test_case "parallel = seeded at any domain count" `Quick
            test_parallel_equals_seeded_any_domains;
          Alcotest.test_case "parallel stop interrupts" `Quick
            test_parallel_stop_interrupts;
          Alcotest.test_case "parallel on_word hook" `Quick
            test_parallel_on_word_hook;
        ] );
      ( "releases",
        [
          Alcotest.test_case "blocks until due" `Quick
            test_release_blocks_until_due;
          Alcotest.test_case "zero = offline" `Quick test_release_zero_is_offline;
          Alcotest.test_case "with precedence" `Quick
            test_release_with_precedence;
          Alcotest.test_case "never run before release" `Quick
            test_release_never_run_before_release_step;
          Alcotest.test_case "length checked" `Quick test_release_length_mismatch;
          Alcotest.test_case "sign checked" `Quick test_release_negative;
          Alcotest.test_case "typed validation everywhere" `Quick
            test_release_typed_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_makespan_at_least_critical_path;
          QCheck_alcotest.to_alcotest prop_all_jobs_complete;
          QCheck_alcotest.to_alcotest prop_releases_only_delay;
        ] );
    ]
