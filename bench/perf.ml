(* PERF — Bechamel micro-benchmarks of every major component: one
   Test.make per substrate/stage, reported as estimated ns per run. *)

open Bench_common
module Test = Bechamel.Test
module Staged = Bechamel.Staged

let witness = Bechamel.Toolkit.Instance.monotonic_clock

let indep_instance n m =
  uniform_instance (master_seed + 123) ~n ~m ~lo:0.1 ~hi:0.9
    (Suu_dag.Dag.empty n)

let chain_instance n m chains =
  let dag = Suu_dag.Gen.chains (Rng.create 17) ~n ~chains in
  uniform_instance (master_seed + 124) ~n ~m ~lo:0.1 ~hi:0.9 dag

(* The four workload families that reach the paper's LP-backed oblivious
   column, generated as [suu gen -w W -n 64 -m 16 --seed 1] does, with
   their names. *)
let lp_workloads () =
  let module W = Suu_workloads.Workload in
  let gen f =
    let w = f (Rng.create 1) ~n:64 ~m:16 in
    (w.W.name, w.W.instance)
  in
  [
    gen W.grid_batch;
    gen (W.grid_workflow ~stages:4);
    gen W.grid_divide;
    gen W.project;
  ]

let range_adaptive_row = "200 MC trials range adaptive (n=64 m=16)"
let seeded_row = "200 MC trials seeded adaptive, observer off (n=64 m=16)"
let seeded_oblivious_row = "200 MC trials seeded oblivious (n=64 m=16)"
let naive_adaptive_row = "200 naive stepper runs adaptive (n=64 m=16)"
let naive_oblivious_row = "200 naive stepper runs oblivious (n=64 m=16)"

(* The 200 trials of a seed-3 estimate, one [Engine.run] each: the
   naive-stepper oracle the word kernel is gated against. *)
let naive_runs inst policy () =
  for k = 0 to 199 do
    ignore
      (Suu_sim.Engine.run (Rng.create (Suu_sim.Engine.trial_seed 3 k)) inst
         policy
        : Suu_sim.Engine.outcome)
  done

let tests () =
  let inst64 = indep_instance 64 16 in
  let jobs64 = Array.make 64 true in
  let chain_inst = chain_instance 20 5 4 in
  let chains = Suu_dag.Classify.chain_partition (Suu_core.Instance.dag chain_inst) in
  let frac = Suu_algo.Lp_relax.solve_chains chain_inst ~chains in
  let integral = Suu_algo.Rounding.round chain_inst frac in
  let pseudos = Suu_algo.Rounding.chain_pseudos chain_inst integral in
  let big_tree = Suu_dag.Gen.binary_out_tree ~n:1023 in
  let policy = Suu_algo.Suu_i.policy inst64 in
  (* Oblivious regimen on the same instance: exercises the kernel's
     column mode (the adaptive policy above exercises its greedy
     mode). *)
  let obl_policy = Suu_algo.Suu_i_obl.policy inst64 in
  let tiny = indep_instance 8 2 in
  (* The served wire layer on the same instance: one 1-trial solve line
     as a client sends it, decoded (JSON, instance text) and keyed. *)
  let inst64_text = Suu_harness.Io.to_string inst64 in
  let wire_line =
    Suu_service.Json.(
      to_string
        (Obj
           [
             ("op", Str "solve");
             ("id", Str "w");
             ("algo", Str "adaptive");
             ("trials", int 1);
             ("seed", int 3);
             ("instance", Str inst64_text);
           ]))
  in
  let decode () =
    match
      Suu_service.Request.of_line ~default_trials:1 ~default_seed:0 wire_line
    with
    | Ok req -> req
    | Error (msg, _) -> failwith msg
  in
  let wire_req = decode () in
  (* Policy build of the guaranteed oblivious column: (LP1)/(LP2), rounding
     and delays, one row per algorithm the four families dispatch to. *)
  let oblivious_builds =
    List.map
      (fun (_, inst) ->
        Test.make
          ~name:
            (Printf.sprintf "oblivious build n=64 m=16 (%s)"
               (Suu_algo.Solver.algorithm_name inst))
          (Staged.stage (fun () -> Suu_algo.Solver.solve inst)))
      (lp_workloads ())
  in
  (* The served adaptive estimate on each family: the greedy kernel's
     hard-lane mass check runs on most steps at this size. *)
  let adaptive_estimates =
    List.map
      (fun (family, inst) ->
        let policy = Suu_algo.Suu_i.policy inst in
        Test.make
          ~name:
            (Printf.sprintf "200 MC trials seeded adaptive %s (n=64 m=16)"
               family)
          (Staged.stage (fun () ->
               Suu_sim.Engine.estimate_makespan_seeded ~trials:200 ~seed:3
                 inst policy)))
      (lp_workloads ())
  in
  (* The MSM pair sort a freshly parsed instance pays on first use; each
     run builds the instance anew (a copy of the 16 x 64 matrix), since
     [sorted_pairs] is memoised per instance. *)
  let pairs_p, pairs_dag =
    let inst = List.assoc "grid-workflow" (lp_workloads ()) in
    ( Array.init 16 (fun i ->
          Array.init 64 (fun j -> Suu_core.Instance.prob inst ~machine:i ~job:j)),
      Suu_core.Instance.dag inst )
  in
  oblivious_builds @ adaptive_estimates
  @ [
    Test.make ~name:"sorted_pairs fresh instance (n=64 m=16)"
      (Staged.stage (fun () ->
           Suu_core.Instance.sorted_pairs
             (Suu_core.Instance.create ~p:pairs_p ~dag:pairs_dag)));
    (* The instance-text layer of that decode on its own. *)
    Test.make ~name:"Io.of_string (n=64 m=16)"
      (Staged.stage (fun () -> Suu_harness.Io.of_string inst64_text));
    Test.make ~name:"Request.of_line (wire line n=64 m=16)"
      (Staged.stage decode);
    Test.make ~name:"Request.cache_key (n=64 m=16)"
      (Staged.stage (fun () -> Suu_service.Request.cache_key wire_req));
    Test.make ~name:"msm_alg n=64 m=16"
      (Staged.stage (fun () -> Suu_algo.Msm.assign inst64 ~jobs:jobs64));
    Test.make ~name:"msm_e_alg n=64 m=16 t=1000"
      (Staged.stage (fun () ->
           Suu_algo.Msm_ext.allocate inst64 ~jobs:jobs64 ~t:1000));
    Test.make ~name:"lp1 solve n=20 m=5"
      (Staged.stage (fun () -> Suu_algo.Lp_relax.solve_chains chain_inst ~chains));
    Test.make ~name:"rounding n=20 m=5"
      (Staged.stage (fun () -> Suu_algo.Rounding.round chain_inst frac));
    Test.make ~name:"delay best-of-8"
      (Staged.stage (fun () ->
           Suu_algo.Delay.choose (Rng.create 3) ~tries:8
             ~ranges:(Suu_algo.Delay.auto_ranges pseudos)
             pseudos));
    Test.make ~name:"chain_decomp n=1023"
      (Staged.stage (fun () -> Suu_dag.Chain_decomp.decompose big_tree));
    Test.make ~name:"simulate run n=64 m=16 (adaptive)"
      (Staged.stage (fun () ->
           Suu_sim.Engine.run (Rng.create 5) inst64 policy));
    Test.make ~name:"malewicz dp n=8 m=2"
      (Staged.stage (fun () -> Suu_algo.Malewicz.optimal_value tiny));
    (* Every estimator is one fold over 63-trial Lanes words; the naive
       rows run the same 200 trials through the stepper oracle
       ([Engine.run]), so the kernel-vs-stepper ratio is visible in every
       PERF table (and gated: PERF-GATE fails below 4x). *)
    Test.make ~name:"200 MC trials sequential (n=64 m=16)"
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan ~trials:200 (Rng.create 3) inst64
             obl_policy));
    Test.make ~name:"200 MC trials sequential adaptive (n=64 m=16)"
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan ~trials:200 (Rng.create 3) inst64
             policy));
    Test.make ~name:range_adaptive_row
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan_range ~seed:3 ~lo:0 ~hi:200 inst64
             policy));
    Test.make ~name:seeded_oblivious_row
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan_seeded ~trials:200 ~seed:3 inst64
             obl_policy));
    (* Matched pair for the observability gate: the seeded estimator
       carries the ?observer seam; left disabled it must price the same
       as the range row above, which runs the identical word fold without
       the seam (PERF-GATE asserts the ratio). *)
    Test.make ~name:seeded_row
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan_seeded ~trials:200 ~seed:3 inst64
             policy));
    Test.make ~name:naive_adaptive_row
      (Staged.stage (naive_runs inst64 policy));
    Test.make ~name:naive_oblivious_row
      (Staged.stage (naive_runs inst64 obl_policy));
    Test.make ~name:"200 MC trials on 4 domains (n=64 m=16)"
      (Staged.stage (fun () ->
           Suu_sim.Engine.estimate_makespan_seeded ~domains:4 ~trials:200
             ~seed:3 inst64 policy));
    Test.make ~name:"derandomized delays 48 chains m=16"
      (Staged.stage
         (let chains =
            List.init 48 (fun j ->
                shop_chain ~m:16 j
                  (List.init 5 (fun k -> ((j + k) mod 16, 1 + (k mod 2)))))
          in
          fun () -> Suu_algo.Delay.derandomized chains));
    Test.make ~name:"maxflow clrs-style 200 nodes"
      (Staged.stage (fun () ->
           let g = Suu_flow.Maxflow.create 200 in
           let rng = Rng.create 11 in
           for _ = 1 to 800 do
             let u = Rng.int rng 200 and v = Rng.int rng 200 in
             if u <> v then
               ignore
                 (Suu_flow.Maxflow.add_edge g ~src:u ~dst:v
                    ~cap:(1 + Rng.int rng 20)
                   : Suu_flow.Maxflow.edge)
           done;
           Suu_flow.Maxflow.max_flow g ~source:0 ~sink:199));
  ]

let human_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Machine-readable mirror of the PERF table: one JSON object per
   benchmark (name, ns/run, r^2, samples) plus enough run metadata to
   compare artifacts across machines and commits. Written next to the
   human table so CI can upload it as an artifact; path overridable via
   SUU_BENCH_PERF_JSON. *)
let json_path () =
  match Sys.getenv_opt "SUU_BENCH_PERF_JSON" with
  | Some p when p <> "" -> p
  | _ -> "BENCH_PERF.json"

(* Best-effort source identification for the artifact: `git describe`
   when the bench runs inside a checkout, "unknown" anywhere else (CI
   tarballs, stripped containers). Never fails the bench. *)
let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try In_channel.input_line ic with _ -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some d when String.trim d <> "" -> String.trim d
      | _ -> "unknown")

let write_json ~limit ~quota_s results =
  let module Json = Suu_service.Json in
  let num v = if Float.is_finite v then Json.Num v else Json.Null in
  (* A prior exp-race / exp-dyn run may have merged its rows into the
     artifact; rewriting the perf fields must not drop them (perf-smoke
     runs them in sequence and uploads one file). *)
  let preserved_race =
    match In_channel.with_open_text (json_path ()) In_channel.input_all with
    | exception Sys_error _ -> []
    | text -> (
        match Json.of_string text with
        | Ok doc ->
            List.filter_map
              (fun k ->
                Option.map (fun v -> (k, v)) (Json.member k doc))
              [ "race"; "dyn" ]
        | Error _ -> [])
  in
  let doc =
    Json.Obj
      ([
        ("schema", Json.Str "suu-bench-perf/2");
        ("schema_version", Json.int 2);
        ("git_describe", Json.Str (git_describe ()));
        ("unit", Json.Str "ns/run");
        ("ocaml", Json.Str Sys.ocaml_version);
        ("word_size", Json.int Sys.word_size);
        ( "recommended_domains",
          Json.int (Domain.recommended_domain_count ()) );
        ("bechamel_limit", Json.int limit);
        ("bechamel_quota_s", Json.Num quota_s);
        ("unix_time", Json.Num (Unix.time ()));
        ( "results",
          Json.List
            (List.map
               (fun (name, ns, r2, samples) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("ns_per_run", num ns);
                     ("r_square", num r2);
                     ("samples", Json.int samples);
                   ])
               results) );
      ]
      @ preserved_race)
  in
  let path = json_path () in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s (%d benchmarks)\n" path (List.length results)

let measure_elt cfg elt =
  let raw = Bechamel.Benchmark.run cfg [ witness ] elt in
  let ols =
    Bechamel.Analyze.OLS.ols ~bootstrap:0 ~r_square:true
      ~responder:(Bechamel.Measure.label witness)
      ~predictors:[| Bechamel.Measure.run |]
      raw.Bechamel.Benchmark.lr
  in
  let estimate =
    match Bechamel.Analyze.OLS.estimates ols with
    | Some [ e ] -> e
    | _ -> Float.nan
  in
  let r2 =
    match Bechamel.Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan
  in
  let samples = raw.Bechamel.Benchmark.stats.Bechamel.Benchmark.samples in
  (Test.Elt.name elt, estimate, r2, samples)

let bench_cfg ~limit ~quota_s =
  Bechamel.Benchmark.cfg ~limit ~quota:(Bechamel.Time.second quota_s) ~kde:None
    ()

let run () =
  section "PERF: Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let limit = 2000 and quota_s = 0.5 in
  let cfg = bench_cfg ~limit ~quota_s in
  let results = ref [] in
  List.iter
    (fun test ->
      List.iter
        (fun elt -> results := measure_elt cfg elt :: !results)
        (Test.elements test))
    (tests ());
  let results = List.rev !results in
  table ~title:"PERF component timings"
    ~header:[ "component"; "time/run"; "r^2"; "samples" ]
    (List.map
       (fun (name, ns, r2, samples) ->
         [ name; human_ns ns; Printf.sprintf "%.4f" r2; string_of_int samples ])
       results);
  write_json ~limit ~quota_s results

(* PERF-GATE — two in-process assertions, both min-of-rounds: a machine
   that is merely noisy shows at least one clean round, a real
   regression shows none. A BENCH_PERF.json left by a prior `perf` run
   (same process conventions, same machine in CI) contributes its
   recorded rows as an extra round, so the uploaded artifact is itself
   gated. Exits nonzero on failure so the CI perf-smoke job turns red.

   1. Observer seam: the seeded adaptive row carries the ?observer seam;
      with no observer armed it must price within SUU_PERF_GATE_PCT
      (default 2%) of the range row, which runs the identical word fold
      without the seam.
   2. Vectorized kernel: the 200-trial seeded rows (adaptive greedy and
      oblivious, both through the Lanes kernel) must beat 200 naive
      stepper runs of the same instance and policy by at least
      SUU_PERF_VECTOR_GATE x (default 4). *)


(* The recorded ns/run for each named row of a prior perf run's JSON
   artifact, when one is readable. *)
let recorded_rows () =
  let module Json = Suu_service.Json in
  match In_channel.with_open_text (json_path ()) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string text with
      | Error _ -> None
      | Ok doc ->
          let rows =
            match Json.member "results" doc with
            | Some (Json.List rows) -> rows
            | _ -> []
          in
          let ns_of name =
            List.find_map
              (fun row ->
                match (Json.member "name" row, Json.member "ns_per_run" row)
                with
                | Some (Json.Str n), Some v when String.equal n name ->
                    Json.to_num v
                | _ -> None)
              rows
          in
          Some ns_of)

let recorded_ratio ~num ~den =
  match recorded_rows () with
  | None -> None
  | Some ns_of -> (
      match (ns_of num, ns_of den) with
      | Some n, Some d when d > 0. -> Some (n /. d)
      | _ -> None)

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> ( try float_of_string s with Failure _ -> default)
  | _ -> default

(* The ns ratio [num_row]/[den_row], measured as matched in-process
   pairs over three rounds, plus the recorded artifact's pair when one
   is present. *)
let gate_rounds ~measure ~num_row ~den_row =
  let fresh () =
    let d = measure den_row in
    let n = measure num_row in
    n /. d
  in
  let rounds =
    List.init 3 (fun k -> (Printf.sprintf "round %d" (k + 1), fresh ()))
  in
  match recorded_ratio ~num:num_row ~den:den_row with
  | Some r -> (json_path (), r) :: rounds
  | None -> rounds

let gate () =
  let inst64 = indep_instance 64 16 in
  let policy = Suu_algo.Suu_i.policy inst64 in
  let obl_policy = Suu_algo.Suu_i_obl.policy inst64 in
  let cfg = bench_cfg ~limit:2000 ~quota_s:0.5 in
  let time name f =
    let _, ns, _, _ =
      measure_elt cfg
        (List.hd (Test.elements (Test.make ~name (Staged.stage f))))
    in
    ns
  in
  let measure = function
    | row when String.equal row range_adaptive_row ->
        time row (fun () ->
            Suu_sim.Engine.estimate_makespan_range ~seed:3 ~lo:0 ~hi:200 inst64
              policy)
    | row when String.equal row seeded_row ->
        time row (fun () ->
            Suu_sim.Engine.estimate_makespan_seeded ~trials:200 ~seed:3 inst64
              policy)
    | row when String.equal row seeded_oblivious_row ->
        time row (fun () ->
            Suu_sim.Engine.estimate_makespan_seeded ~trials:200 ~seed:3 inst64
              obl_policy)
    | row when String.equal row naive_adaptive_row ->
        time row (naive_runs inst64 policy)
    | row when String.equal row naive_oblivious_row ->
        time row (naive_runs inst64 obl_policy)
    | row -> invalid_arg ("perf-gate: unknown row " ^ row)
  in
  let failures = ref 0 in
  (* 1. Observer seam: seeded/range overhead within budget. *)
  section "PERF-GATE: observer seam (disabled) vs the bare word fold";
  let pct = env_float "SUU_PERF_GATE_PCT" 2. in
  let rounds =
    gate_rounds ~measure ~num_row:seeded_row ~den_row:range_adaptive_row
  in
  List.iter
    (fun (label, r) ->
      Printf.printf "  %-16s overhead %+.2f%%\n" label ((r -. 1.) *. 100.))
    rounds;
  let best =
    List.fold_left (fun acc (_, r) -> Float.min acc r) infinity rounds
  in
  let budget = 1. +. (pct /. 100.) in
  if Float.is_nan best || best > budget then begin
    Printf.printf
      "perf-gate: FAIL — disabled-observer overhead %+.2f%% exceeds %.1f%% on \
       %S\n"
      ((best -. 1.) *. 100.)
      pct range_adaptive_row;
    incr failures
  end
  else
    Printf.printf
      "perf-gate: ok — disabled-observer overhead %+.2f%% (budget %.1f%%)\n"
      ((best -. 1.) *. 100.)
      pct;
  (* 2. Vectorized kernel: naive/word speedup at least the floor, for
     both kernel modes. *)
  let floor = env_float "SUU_PERF_VECTOR_GATE" 4. in
  List.iter
    (fun (what, naive_row, vector_row) ->
      section
        (Printf.sprintf "PERF-GATE: vectorized %s kernel vs naive stepper \
                         (want >= %.1fx)" what floor);
      let rounds =
        gate_rounds ~measure ~num_row:naive_row ~den_row:vector_row
      in
      List.iter
        (fun (label, r) -> Printf.printf "  %-16s speedup %.1fx\n" label r)
        rounds;
      let best_speedup =
        List.fold_left (fun acc (_, r) -> Float.max acc r) neg_infinity rounds
      in
      if Float.is_nan best_speedup || best_speedup < floor then begin
        Printf.printf
          "perf-gate: FAIL — vectorized %s speedup %.1fx below the %.1fx \
           floor (%S vs %S)\n"
          what best_speedup floor vector_row naive_row;
        incr failures
      end
      else
        Printf.printf "perf-gate: ok — vectorized %s speedup %.1fx (floor \
                       %.1fx)\n"
          what best_speedup floor)
    [
      ("adaptive", naive_adaptive_row, seeded_row);
      ("oblivious", naive_oblivious_row, seeded_oblivious_row);
    ];
  if !failures > 0 then exit 1
