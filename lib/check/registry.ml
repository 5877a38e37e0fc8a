module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Policy = Suu_core.Policy
module Oblivious = Suu_core.Oblivious
module Mass = Suu_core.Mass
module Msm = Suu_algo.Msm
module Msm_ext = Suu_algo.Msm_ext
module Weighted_msm = Suu_algo.Weighted_msm
module Suu_i = Suu_algo.Suu_i
module Suu_i_obl = Suu_algo.Suu_i_obl
module Phased = Suu_algo.Phased
module Improved = Suu_algo.Improved
module Malewicz = Suu_algo.Malewicz
module Fixed_assignment = Suu_algo.Fixed_assignment
module Churn = Suu_dyn.Churn
module Engine = Suu_sim.Engine
module Exec_trace = Suu_obs.Exec_trace
module Exact = Suu_sim.Exact
module Exact_oblivious = Suu_sim.Exact_oblivious
module Io = Suu_harness.Io
module Rng = Suu_prob.Rng
open Property

let hostile_values =
  [| 1.5; -0.1; Float.nan; Float.infinity; Float.neg_infinity; 2.; -1e300 |]

(* A random "unfinished jobs" subset drawn from the case's auxiliary
   stream; never empty unless [n = 0]. *)
let random_jobs rng n =
  let jobs = Array.init n (fun _ -> Rng.float rng < 0.7) in
  if n > 0 && not (Array.exists Fun.id jobs) then jobs.(Rng.int rng n) <- true;
  jobs

let same_assignment (a : Assignment.t) (b : Assignment.t) = a = b

(* --- 1. typed validation ------------------------------------------- *)

let instance_validation =
  Property.make ~name:"instance-validation" ~sizes:Gen.small
    ~doc:
      "hostile probabilities (NaN, infinities, out of [0,1]) are rejected \
       with a typed error naming the offending coordinates, and never reach \
       the samplers" (fun case ->
      let rng = Case.aux_rng case in
      let dag = Suu_dag.Dag.create ~n:(Case.n case) case.Case.edges in
      match Instance.create_checked ~p:case.Case.p ~dag with
      | Error e -> failf "valid case rejected: %s" (Instance.error_to_string e)
      | Ok _ ->
          let bad = ref None in
          for _ = 1 to 3 do
            let i = Rng.int rng (Case.m case)
            and j = Rng.int rng (Case.n case) in
            let v = hostile_values.(Rng.int rng (Array.length hostile_values)) in
            let p = Array.map Array.copy case.Case.p in
            p.(i).(j) <- v;
            (match Instance.create_checked ~p ~dag with
            | Error (Instance.Bad_probability { machine; job; value })
              when machine = i && job = j
                   && Int64.equal (Int64.bits_of_float value)
                        (Int64.bits_of_float v) ->
                ()
            | Error e ->
                bad :=
                  Some
                    (Printf.sprintf
                       "hostile p[%d][%d]=%h misreported as: %s" i j v
                       (Instance.error_to_string e))
            | Ok _ ->
                bad := Some (Printf.sprintf "hostile p[%d][%d]=%h accepted" i j v));
            (* The exception path must carry the same typed payload. *)
            match Instance.create ~p ~dag with
            | (_ : Instance.t) ->
                bad := Some (Printf.sprintf "create accepted hostile %h" v)
            | exception Instance.Invalid (Instance.Bad_probability _) -> ()
            | exception e ->
                bad :=
                  Some
                    (Printf.sprintf "create raised untyped %s for %h"
                       (Printexc.to_string e) v)
          done;
          (match !bad with
          | Some msg -> Fail msg
          | None -> (
              (* End to end: a NaN in an instance *file* must surface as the
                 structured parse failure the serving layer handles, not
                 escape as a raw exception. *)
              let txt = "suu 1\nn 1 m 1\nedges 0\nprobs\nnan\n" in
              match Io.of_string txt with
              | (_ : Instance.t) -> Fail "Io accepted a NaN probability"
              | exception Failure _ -> Pass
              | exception e ->
                  failf "Io raised %s instead of Failure" (Printexc.to_string e)
              )))

(* --- 2. MSM-ALG 1/3 ratio (Theorem 3.2) ---------------------------- *)

let msm_ratio =
  Property.make ~name:"msm-ratio"
    ~sizes:{ Gen.tiny with max_machines = 3 }
    ~doc:
      "greedy MSM-ALG mass is within 1/3 of the brute-force MaxSumMass \
       optimum, never exceeds it, caps per-job mass at 1 and only uses \
       flagged jobs" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let jobs = random_jobs rng (Instance.n inst) in
      let a = Msm.assign inst ~jobs in
      match Assignment.validate a ~n:(Instance.n inst) ~m:(Instance.m inst) with
      | Error msg -> failf "invalid assignment: %s" msg
      | Ok () -> (
          let off_target =
            Array.exists (fun j -> j <> Assignment.idle_job && not jobs.(j)) a
          in
          if off_target then Fail "machine assigned to an unflagged job"
          else
            let mass = Assignment.mass_added inst a in
            let overfull = Array.exists (fun mj -> mj > 1. +. 1e-9) mass in
            if overfull then Fail "per-job mass exceeds 1"
            else
              let greedy = Msm.total_mass inst a in
              match Msm.optimal_mass_brute_force inst ~jobs with
              | exception Invalid_argument _ -> Skip "search space too large"
              | opt ->
                  if greedy > opt +. 1e-9 then
                    failf "greedy %.6f exceeds optimum %.6f" greedy opt
                  else if greedy < (opt /. 3.) -. 1e-9 then
                    failf "greedy %.6f < OPT/3 = %.6f (Thm 3.2 violated)"
                      greedy (opt /. 3.)
                  else Pass))

(* --- 3. MSM-E-ALG 1/3 ratio (Lemma 3.4) ---------------------------- *)

let msm_ext_ratio =
  Property.make ~name:"msm-ext-ratio"
    ~sizes:{ Gen.tiny with max_jobs = 3 }
    ~doc:
      "MSM-E-ALG's length-t allocation respects machine capacities, keeps \
       its mass ledger consistent, packs into a valid schedule, and is \
       within 1/3 of the brute-force MaxSumMass-Ext optimum" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let t = Rng.int rng 5 in
      let jobs = random_jobs rng (Instance.n inst) in
      let r = Msm_ext.allocate inst ~jobs ~t in
      let cap_ok =
        Array.for_all
          (fun row -> Array.fold_left ( + ) 0 row <= t)
          r.Msm_ext.x
      in
      if not cap_ok then Fail "machine allocated more than t steps"
      else
        let ledger_ok =
          Array.for_all Fun.id
            (Array.init (Instance.n inst) (fun j ->
                 let s = ref 0. in
                 Array.iteri
                   (fun i row ->
                     s :=
                       !s
                       +. Float.of_int row.(j)
                          *. Instance.prob inst ~machine:i ~job:j)
                   r.Msm_ext.x;
                 Float.abs (!s -. r.Msm_ext.mass.(j)) <= 1e-9))
        in
        if not ledger_ok then Fail "mass ledger disagrees with x"
        else
          match Oblivious.validate inst (Msm_ext.to_schedule inst r) with
          | Error msg -> failf "packed schedule invalid: %s" msg
          | Ok () -> (
              let greedy = Msm_ext.total_mass r in
              match Msm_ext.optimal_mass_brute_force inst ~jobs ~t with
              | exception Invalid_argument _ -> Skip "search space too large"
              | opt ->
                  if greedy > opt +. 1e-9 then
                    failf "greedy %.6f exceeds optimum %.6f" greedy opt
                  else if greedy < (opt /. 3.) -. 1e-9 then
                    failf "greedy %.6f < OPT/3 = %.6f (Lemma 3.4 violated)"
                      greedy (opt /. 3.)
                  else Pass))

(* --- 4. tie-break determinism -------------------------------------- *)

let msm_determinism =
  Property.make ~name:"msm-determinism"
    ~doc:
      "the greedy assignment is a pure function of the instance: repeated \
       calls, a rebuilt instance (fresh sorted_pairs), and the \
       weight-scaled greedy with uniform weights all agree exactly"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let n = Instance.n inst in
      let jobs = random_jobs rng n in
      let a1 = Msm.assign inst ~jobs in
      let a2 = Msm.assign inst ~jobs in
      if not (same_assignment a1 a2) then Fail "two calls disagree"
      else
        let rebuilt = Case.instance case in
        let a3 = Msm.assign rebuilt ~jobs in
        if not (same_assignment a1 a3) then
          Fail "rebuilt instance (fresh sorted_pairs) disagrees"
        else
          let ones = Array.make n 1. in
          let w1 = Weighted_msm.assign inst ~weights:ones ~jobs in
          if not (same_assignment a1 w1) then
            Fail "uniform-weight greedy diverges from MSM-ALG"
          else
            let scaled = Array.make n 2.5 in
            let w2 = Weighted_msm.assign inst ~weights:scaled ~jobs in
            let w2' = Weighted_msm.assign rebuilt ~weights:scaled ~jobs in
            if not (same_assignment w2 w2') then
              Fail "equal-weight assignment unstable across rebuilds"
            else if not (same_assignment w1 w2) then
              Fail "uniform weight scaling changed the assignment"
            else Pass)

(* --- 5. mass accumulation (Lemma 3.5 / Proposition 2.1) ------------ *)

let mass_accumulation =
  Property.make ~name:"mass-accumulation" ~sizes:Gen.small
    ~doc:
      "Algorithm 2's core schedule accumulates at least the target mass \
       for every job, mass grows monotonically in steps, and combined \
       success probability obeys Proposition 2.1's [Σ/e, Σ] sandwich"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let params = Suu_i_obl.tuned_params in
      let r = Suu_i_obl.build ~params inst in
      let core = r.Suu_i_obl.core in
      let steps = Oblivious.prefix_length core in
      let mass = Mass.of_oblivious_capped inst core ~steps in
      let target = params.Suu_i_obl.mass_target in
      let deficient = ref None in
      Array.iteri
        (fun j mj -> if mj < target -. 1e-9 then deficient := Some (j, mj))
        mass;
      match !deficient with
      | Some (j, mj) ->
          failf "job %d accumulates %.4f < target %.4f over the core" j mj
            target
      | None ->
          let half = Mass.of_oblivious inst core ~steps:(steps / 2) in
          let full = Mass.of_oblivious inst core ~steps in
          let shrunkk = ref None in
          Array.iteri
            (fun j v -> if v > full.(j) +. 1e-9 then shrunkk := Some j)
            half;
          (match !shrunkk with
          | Some j -> failf "job %d loses mass as steps grow" j
          | None ->
              let k = 1 + Rng.int rng 4 in
              let ps =
                List.init k (fun _ -> Rng.uniform rng 0. (1. /. Float.of_int k))
              in
              let lo, hi = Mass.proposition_2_1_bounds ps in
              let c = Mass.combined_success ps in
              if c < lo -. 1e-12 then
                failf "combined success %.6f below Σ/e = %.6f" c lo
              else if c > hi +. 1e-12 then
                failf "combined success %.6f above Σ = %.6f" c hi
              else Pass))

(* --- 6. relabeling invariance -------------------------------------- *)

let permuted_case rng case =
  let n = Case.n case and m = Case.m case in
  let sigma = Rng.permutation rng m in
  let pi = Rng.permutation rng n in
  let inv = Array.make n 0 in
  Array.iteri (fun j old -> inv.(old) <- j) pi;
  let p =
    Array.init m (fun i -> Array.init n (fun j -> case.Case.p.(sigma.(i)).(pi.(j))))
  in
  let edges = List.map (fun (u, v) -> (inv.(u), inv.(v))) case.Case.edges in
  Case.make ~p ~edges ~aux_seed:case.Case.aux_seed

let relabel_invariance =
  Property.make ~name:"relabel-invariance" ~sizes:Gen.tiny
    ~doc:
      "optimal values are label-free: brute-force MaxSumMass and the \
       Malewicz optimum are invariant under permuting machines and jobs"
    (fun case ->
      let rng = Case.aux_rng case in
      let inst = Case.instance case in
      let perm = permuted_case rng case in
      let inst' = Case.instance perm in
      let all_jobs = Array.make (Instance.n inst) true in
      match
        ( Msm.optimal_mass_brute_force inst ~jobs:all_jobs,
          Msm.optimal_mass_brute_force inst' ~jobs:all_jobs )
      with
      | exception Invalid_argument _ -> Skip "search space too large"
      | opt, opt' ->
          if Float.abs (opt -. opt') > 1e-9 then
            failf "MaxSumMass optimum moved under relabeling: %.9f vs %.9f"
              opt opt'
          else (
            match (Malewicz.optimal_value inst, Malewicz.optimal_value inst')
            with
            | exception Malewicz.Too_expensive _ -> Skip "Malewicz too expensive"
            | exception Exact.Too_large _ -> Skip "too many jobs for a bitmask"
            | v, v' ->
                let tol = 1e-6 *. (1. +. Float.abs v) in
                if Float.abs (v -. v') > tol then
                  failf "TOPT moved under relabeling: %.9f vs %.9f" v v'
                else Pass))

(* --- 7. monotonicity in p ------------------------------------------ *)

let monotone_in_p =
  Property.make ~name:"monotone-in-p" ~sizes:Gen.tiny
    ~doc:
      "raising success probabilities can only help: TOPT (Malewicz \
       optimum) weakly decreases when any subset of the p_ij grows"
    (fun case ->
      let rng = Case.aux_rng case in
      let inst = Case.instance case in
      let boosted =
        Array.map
          (Array.map (fun v ->
               if Rng.bool rng then v +. ((1. -. v) *. Rng.float rng) else v))
          case.Case.p
      in
      let inst' =
        Instance.create ~p:boosted
          ~dag:(Suu_dag.Dag.create ~n:(Case.n case) case.Case.edges)
      in
      match (Malewicz.optimal_value inst, Malewicz.optimal_value inst') with
      | exception Malewicz.Too_expensive _ -> Skip "Malewicz too expensive"
      | exception Exact.Too_large _ -> Skip "too many jobs for a bitmask"
      | v, v' ->
          let tol = 1e-6 *. (1. +. Float.abs v) in
          if v' > v +. tol then
            failf "TOPT grew from %.9f to %.9f after boosting p" v v'
          else Pass)

(* --- 8. exact chain vs Monte-Carlo --------------------------------- *)

let exact_vs_mc =
  Property.make ~name:"exact-vs-mc"
    ~sizes:{ Gen.small with min_prob = 0.1 }
    ~doc:
      "the Monte-Carlo engine agrees with the absorbing-Markov-chain \
       expectation of the MSM regimen within 5 standard errors"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      match Exact.expected_makespan_regimen inst (Oracle.msm_regimen inst) with
      | exception Exact.Too_large _ -> Skip "too many jobs for a bitmask"
      | exact ->
          let trials = 400 in
          let policy = Policy.of_regimen "msm-regimen" (Oracle.msm_regimen inst) in
          let e =
            Engine.estimate_makespan_seeded ~trials ~seed:(Rng.int rng 1_000_000)
              inst policy
          in
          if e.Engine.incomplete > 0 then
            failf "%d of %d trials hit the step cap" e.Engine.incomplete trials
          else
            let mean = e.Engine.stats.Suu_prob.Stats.mean in
            let sem = e.Engine.stats.Suu_prob.Stats.sem in
            let tol = (5. *. sem) +. 0.05 in
            if Float.abs (mean -. exact) > tol then
              failf "MC mean %.4f vs exact %.4f (tol %.4f over %d trials)"
                mean exact tol trials
            else Pass)

(* --- 9. word kernel (column mode) vs naive stepper ------------------ *)

let lanes_cols_vs_naive =
  Property.make ~name:"lanes-cols-vs-naive"
    ~sizes:{ Gen.small with max_jobs = 5; min_prob = 0.15 }
    ~doc:
      "on a random oblivious schedule, both the word kernel's column mode \
       (geometric leapfrog skips over the schedule) and the naive unit \
       stepper match the exact makespan CDF uniformly (DKW at confidence \
       1 − 1e-9)"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let sched = Gen.oblivious rng case in
      let horizon = min (Engine.default_horizon inst) 300 in
      let exact = Exact_oblivious.cdf inst sched ~horizon in
      let sampler name policy trials =
        let e =
          Engine.estimate_makespan_seeded ~max_steps:horizon ~trials
            ~seed:(Rng.int rng 1_000_000) inst policy
        in
        let emp = Oracle.empirical_cdf e ~horizon in
        let sup = Oracle.sup_distance emp exact in
        let eps = Oracle.dkw_epsilon ~trials ~delta:1e-9 in
        if sup > eps then
          Some
            (Printf.sprintf "%s sampler: sup|emp − exact| = %.4f > %.4f" name
               sup eps)
        else None
      in
      let cols = Policy.of_oblivious "cols" sched in
      let naive =
        Policy.stateless "naive" (fun state ->
            Oblivious.step sched state.Policy.step)
      in
      match sampler "lanes-cols" cols 3000 with
      | Some msg -> Fail msg
      | None -> (
          match sampler "naive" naive 1200 with
          | Some msg -> Fail msg
          | None -> Pass))

(* --- 9b. vectorized trial-lane kernel conformance ------------------ *)

let lanes_vs_exact =
  Property.make ~name:"lanes-vs-exact"
    ~sizes:{ Gen.small with max_jobs = 5; min_prob = 0.15 }
    ~doc:
      "the trial-batched vectorized kernel (which estimate_makespan routes \
       structurally-tagged policies through) matches the exact makespan CDF \
       uniformly (DKW at confidence 1 − 1e-9) for both vectorizable shapes: \
       the greedy pair scan against the Markov-chain regimen CDF and a \
       random oblivious schedule against the schedule CDF"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let horizon = min (Engine.default_horizon inst) 300 in
      let trials = 3000 in
      let sampler name policy exact =
        let e =
          Engine.estimate_makespan ~max_steps:horizon ~trials
            (Rng.create (Rng.int rng 1_000_000))
            inst policy
        in
        let emp = Oracle.empirical_cdf e ~horizon in
        let sup = Oracle.sup_distance emp exact in
        let eps = Oracle.dkw_epsilon ~trials ~delta:1e-9 in
        if sup > eps then
          Some
            (Printf.sprintf "%s kernel: sup|emp − exact| = %.4f > %.4f" name
               sup eps)
        else None
      in
      match
        Exact.makespan_distribution_regimen inst (Oracle.msm_regimen inst)
          ~horizon
      with
      | exception Exact.Too_large _ -> Skip "too many jobs for a bitmask"
      | exception Exact.Nonterminating -> Skip "regimen cannot terminate"
      | greedy_exact -> (
          match sampler "greedy" (Suu_i.policy inst) greedy_exact with
          | Some msg -> Fail msg
          | None -> (
              let sched = Gen.oblivious rng case in
              let exact = Exact_oblivious.cdf inst sched ~horizon in
              let obl = Policy.of_oblivious "lanes-obl" sched in
              match sampler "oblivious" obl exact with
              | Some msg -> Fail msg
              | None -> Pass)))

(* --- 10. parallel estimator identity ------------------------------- *)

(* The three policy shapes of the word-seeded contract: the Lanes
   kernel's greedy and column modes, and an untagged policy the naive
   stepper serves lane by lane. *)
let contract_policy case inst =
  match case.Case.aux_seed mod 3 with
  | 0 -> Suu_i.policy inst
  | 1 -> Policy.of_oblivious "suu-i-obl" (Suu_i_obl.schedule inst)
  | _ -> Policy.make "suu-i-untagged" (Suu_i.policy inst).Policy.fresh

let word = Suu_sim.Lanes.lanes_per_word

let parallel_vs_seeded =
  Property.make ~name:"parallel-vs-seeded"
    ~sizes:{ Gen.default with min_prob = 0.05 }
    ~doc:
      "the word fold spread over 3 domains is bit-identical to the \
       sequential seeded estimate (and the seeded one to itself) for \
       adaptive, oblivious and untagged policies alike" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let policy = contract_policy case inst in
      let seed = Rng.int rng 1_000_000 in
      let trials = (2 * word) + 1 + Rng.int rng word in
      let a = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
      let b =
        Engine.estimate_makespan_seeded ~domains:3 ~trials ~seed inst policy
      in
      let c = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
      let bits e = Array.map Int64.bits_of_float e.Engine.samples in
      if bits a <> bits b then Fail "parallel samples differ from seeded"
      else if a.Engine.incomplete <> b.Engine.incomplete then
        Fail "parallel incomplete count differs from seeded"
      else if bits a <> bits c then Fail "seeded estimator is not reproducible"
      else Pass)

(* --- 11. serialisation round-trips --------------------------------- *)

let serialize_roundtrip =
  Property.make ~name:"serialize-roundtrip"
    ~doc:
      "instance files, plan files and case repro JSON all round-trip \
       losslessly (bit-equal probabilities, equal edges, identical \
       schedules)" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let s = Io.to_string inst in
      match Io.of_string s with
      | exception Failure msg -> failf "reparse failed: %s" msg
      | inst2 ->
          if not (String.equal (Io.to_string inst2) s) then
            Fail "serialisation is not idempotent"
          else if
            not
              (List.sort compare (Suu_dag.Dag.edges (Instance.dag inst2))
              = List.sort compare case.Case.edges)
          then Fail "edges changed across a round-trip"
          else
            let probs_ok = ref true in
            for i = 0 to Instance.m inst - 1 do
              for j = 0 to Instance.n inst - 1 do
                let x = Instance.prob inst ~machine:i ~job:j in
                let y = Instance.prob inst2 ~machine:i ~job:j in
                if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                then probs_ok := false
              done
            done;
            if not !probs_ok then Fail "probabilities changed across a round-trip"
            else
              let sched = Gen.oblivious rng case in
              let sched2 =
                Io.schedule_of_string (Io.schedule_to_string sched)
              in
              if
                not
                  (sched.Oblivious.prefix = sched2.Oblivious.prefix
                  && sched.Oblivious.cycle = sched2.Oblivious.cycle
                  && sched.Oblivious.m = sched2.Oblivious.m)
              then Fail "plan file changed across a round-trip"
              else (
                match Case.of_json (Case.to_json case) with
                | Error msg -> failf "case JSON reparse failed: %s" msg
                | Ok case2 ->
                    if not (Case.equal case case2) then
                      Fail "case JSON round-trip is lossy"
                    else Pass))

(* --- 12. observer faithfulness (Definition 2.4 / Proposition 2.1) -- *)

let obs_mass_trace =
  Property.make ~name:"obs-mass-trace" ~sizes:Gen.small
    ~doc:
      "the engine's execution observer is faithful: observing leaves the \
       seeded estimate bit-identical, recorded assignments are the \
       schedule's own columns, the replayed mass trajectory matches \
       Definition 2.4 exactly, every job reaches Algorithm 2's target \
       mass within one core length, and per-step success obeys \
       Proposition 2.1's sandwich" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let n = Instance.n inst in
      let params = Suu_i_obl.tuned_params in
      let sched = Suu_i_obl.schedule ~params inst in
      let policy = Policy.of_oblivious "suu-i-obl" sched in
      let seed = Rng.int rng 1_000_000 in
      let trials = 6 in
      let observer, captured =
        Exec_trace.collector ~sample_every:2 ~limit:4096 ()
      in
      let a =
        Engine.estimate_makespan_seeded ~observer ~trials ~seed inst policy
      in
      let b = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
      let bits e = Array.map Int64.bits_of_float e.Engine.samples in
      if bits a <> bits b then Fail "observing perturbed the seeded estimate"
      else if a.Engine.incomplete <> b.Engine.incomplete then
        Fail "observing changed the truncation count"
      else
        let seen = captured () in
        let indexes = List.map (fun tr -> tr.Exec_trace.index) seen in
        if indexes <> [ 0; 2; 4 ] then
          failf "sample_every:2 over 6 trials captured trials {%s}"
            (String.concat "," (List.map string_of_int indexes))
        else
          let prob = Instance.prob inst in
          let core_len = Oblivious.cycle_length sched in
          let check_trial tr =
            let steps = tr.Exec_trace.steps in
            let len = List.length steps in
            (* Steps must be the contiguous 1-based prefix of the trial,
               and each recorded assignment the schedule's own column. *)
            List.iteri
              (fun i (st : Exec_trace.step) ->
                if st.Exec_trace.t <> i + 1 then
                  failwith
                    (Printf.sprintf "trial %d: step %d recorded as t=%d"
                       tr.Exec_trace.index (i + 1) st.Exec_trace.t);
                if
                  not
                    (same_assignment st.Exec_trace.assignment
                       (Oblivious.step sched (st.Exec_trace.t - 1)))
                then
                  failwith
                    (Printf.sprintf
                       "trial %d: recorded assignment at t=%d is not the \
                        schedule column"
                       tr.Exec_trace.index st.Exec_trace.t))
              steps;
            (if (not tr.Exec_trace.truncated) && len = tr.Exec_trace.makespan
             then
               (* A completed, fully recorded trial must complete every
                  job exactly once. *)
               let times = Array.make n 0 in
               List.iter
                 (fun (st : Exec_trace.step) ->
                   List.iter
                     (fun j -> times.(j) <- times.(j) + 1)
                     st.Exec_trace.completed)
                 steps;
               Array.iteri
                 (fun j k ->
                   if k <> 1 then
                     failwith
                       (Printf.sprintf
                          "trial %d: job %d completed %d times over a full \
                           recording"
                          tr.Exec_trace.index j k))
                 times);
            let traj = Exec_trace.mass_trajectory ~prob ~jobs:n tr in
            (* Cross-check the replayed accumulation against the Mass
               module (Definition 2.4) at the final recorded step. *)
            (match List.rev traj with
            | [] -> ()
            | (t_last, mass) :: _ ->
                let expect = Mass.of_oblivious_capped inst sched ~steps:t_last in
                Array.iteri
                  (fun j mj ->
                    if Float.abs (mj -. expect.(j)) > 1e-9 then
                      failwith
                        (Printf.sprintf
                           "trial %d: job %d replayed mass %.9f but \
                            Definition 2.4 gives %.9f at t=%d"
                           tr.Exec_trace.index j mj expect.(j) t_last))
                  mass;
                (* Lemma 3.5 accumulation bound, read off the capture:
                   once a core length has been recorded, every job has
                   accumulated at least the target mass. *)
                if t_last >= core_len then
                  List.iter
                    (fun (t, mass) ->
                      if t = core_len then
                        Array.iteri
                          (fun j mj ->
                            let want =
                              Float.min 1. params.Suu_i_obl.mass_target
                            in
                            if mj < want -. 1e-9 then
                              failwith
                                (Printf.sprintf
                                   "trial %d: job %d captured mass %.4f < \
                                    target %.4f after one core"
                                   tr.Exec_trace.index j mj want))
                          mass)
                    traj);
            (* Proposition 2.1 on the captured per-step attempts: each
               job's single-step success is sandwiched in [Σ/e, Σ]. *)
            List.iter
              (fun (st : Exec_trace.step) ->
                for j = 0 to n - 1 do
                  let ps = ref [] in
                  Array.iteri
                    (fun i j' ->
                      if j' = j then ps := prob ~machine:i ~job:j :: !ps)
                    st.Exec_trace.assignment;
                  if !ps <> [] then begin
                    let lo, hi = Mass.proposition_2_1_bounds !ps in
                    let c = Mass.combined_success !ps in
                    if c < lo -. 1e-12 || c > hi +. 1e-12 then
                      failwith
                        (Printf.sprintf
                           "trial %d t=%d job %d: success %.6f outside \
                            [%.6f, %.6f]"
                           tr.Exec_trace.index st.Exec_trace.t j c lo hi)
                  end
                done)
              steps
          in
          match List.iter check_trial seen with
          | () -> Pass
          | exception Failure msg -> Fail msg)

(* --- 13. trial-range splitting (the sharding coordinator's merge) -- *)

let split_merge =
  Property.make ~name:"split-merge"
    ~sizes:{ Gen.default with min_prob = 0.05 }
    ~doc:
      "a seeded estimate split at a word boundary into trial ranges and \
       merged (estimate_makespan_range + merge_ranges — the range \
       protocol's client-side fan-out) is bit-identical to the unsplit run: \
       samples, incomplete count, mean and ci95 all match for adaptive, \
       oblivious and untagged policies alike, at any word-aligned split \
       point; a range whose lo is not word-aligned is rejected" (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let policy = contract_policy case inst in
      let seed = Rng.int rng 1_000_000 in
      let trials = (2 * word) + Rng.int rng (2 * word) in
      let words = (trials + word - 1) / word in
      let k = word * (1 + Rng.int rng (words - 1)) in
      let full = Engine.estimate_makespan_seeded ~trials ~seed inst policy in
      let max_steps = Engine.default_horizon inst in
      let lo_part = Engine.estimate_makespan_range ~seed ~lo:0 ~hi:k inst policy in
      let hi_part =
        Engine.estimate_makespan_range ~seed ~lo:k ~hi:trials inst policy
      in
      let merged = Engine.merge_ranges ~max_steps [ lo_part; hi_part ] in
      let bits e = Array.map Int64.bits_of_float e.Engine.samples in
      let unaligned = k - 1 - Rng.int rng (word - 1) in
      if
        match
          Engine.estimate_makespan_range ~seed ~lo:unaligned ~hi:trials inst
            policy
        with
        | _ -> true
        | exception Invalid_argument _ -> false
      then failf "unaligned range lo=%d was accepted" unaligned
      else if bits merged <> bits full then
        failf "merged samples differ from the unsplit run (split at %d)" k
      else if merged.Engine.incomplete <> full.Engine.incomplete then
        Fail "merged incomplete count differs from the unsplit run"
      else if merged.Engine.trials <> full.Engine.trials then
        Fail "merged trial count differs from the unsplit run"
      else if
        not
          (Int64.equal
             (Int64.bits_of_float merged.Engine.stats.Suu_prob.Stats.mean)
             (Int64.bits_of_float full.Engine.stats.Suu_prob.Stats.mean))
      then Fail "merged mean is not bit-identical to the unsplit run"
      else if
        not
          (Int64.equal
             (Int64.bits_of_float merged.Engine.stats.Suu_prob.Stats.ci95)
             (Int64.bits_of_float full.Engine.stats.Suu_prob.Stats.ci95))
      then Fail "merged ci95 is not bit-identical to the unsplit run"
      else Pass)

(* --- 14. shard-heal (self-healing fleet, exactly-once merge) ------- *)

(* A repeat can hit its owning shard's cache where a single service
   misses (and a respawned worker restarts cold), so the cached flag is
   the one field byte-identity may scrub; every other byte must match. *)
let scrub_cached line =
  let needle = {|"cached":true|} in
  let n = String.length needle in
  let buf = Buffer.create (String.length line) in
  let i = ref 0 in
  while !i < String.length line do
    if !i + n <= String.length line && String.equal (String.sub line !i n) needle
    then begin
      Buffer.add_string buf {|"cached":false|};
      i := !i + n
    end
    else begin
      Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let shard_heal =
  Property.make ~name:"shard-heal"
    ~sizes:{ Gen.small with min_prob = 0.05 }
    ~doc:
      "a 2-shard coordinator under deterministic kill chaos (keyed by the \
       case seed) with a respawn budget answers every request ok, \
       byte-identical to a single service, and finishes at full strength \
       with every shard death matched by a respawn" (fun case ->
      let module Json = Suu_service.Json in
      let module Service = Suu_service.Service in
      let module Fault = Suu_service.Fault in
      let module Client = Suu_shard.Client in
      let module Coordinator = Suu_shard.Coordinator in
      let txt = Io.to_string (Case.instance case) in
      let solve ~trials ~seed id =
        Json.to_string
          (Json.Obj
             [
               ("op", Json.Str "solve");
               ("id", Json.Str id);
               ("algo", Json.Str "adaptive");
               ("trials", Json.int trials);
               ("seed", Json.int seed);
               ("instance", Json.Str txt);
             ])
      in
      let lines =
        [
          solve ~trials:100 ~seed:3 "a";
          solve ~trials:8 ~seed:1 "b";
          solve ~trials:100 ~seed:3 "a2";
          (* repeat of a: a shard cache hit, scrubbed below *)
          solve ~trials:8 ~seed:2 "c";
          solve ~trials:100 ~seed:9 "d";
          solve ~trials:8 ~seed:4 "e";
        ]
      in
      let worker_config =
        {
          Service.default_config with
          Service.workers = 1;
          queue_capacity = 64;
          cache_capacity = 16;
          default_trials = 8;
          default_seed = 1;
          default_deadline_ms = None;
          fault = Fault.none;
        }
      in
      let cfg =
        {
          Coordinator.default_config with
          Coordinator.shards = 2;
          retries = 12;
          retry_backoff_ms = 0.1;
          heartbeat_ms = None;
          (* Every dispatch (including re-dispatches) can draw a kill, so
             total deaths are bounded by whole requests x (retries + 1) =
             6 x 13 = 78. Keeping the budget above that bound makes budget
             exhaustion impossible by construction: the property asserts
             full recovery on every seed, not on lucky ones. *)
          respawn_budget = 128;
          respawn_backoff_ms = 0.2;
          fault =
            {
              Fault.none with
              seed = 1 + (case.Case.aux_seed land 0xffff);
              (* Mild enough that a single request exhausting its 12
                 re-dispatches (13 near-consecutive kill draws) has
                 negligible probability on any seed. *)
              kill = 0.1;
            };
        }
      in
      let spawn i = Client.local ~id:i worker_config in
      let single, _ = Service.run_lines worker_config lines in
      let sharded, report = Coordinator.run_lines cfg ~spawn lines in
      if List.length sharded <> List.length single then
        failf "answered %d of %d requests" (List.length sharded)
          (List.length single)
      else
        let mismatch =
          List.find_opt
            (fun (w, g) -> not (String.equal (scrub_cached w) (scrub_cached g)))
            (List.combine single sharded)
        in
        match mismatch with
        | Some (w, g) ->
            failf
              "healed fleet diverged from single service (%d deaths, %d \
               respawns, %d live):\n  %s\n  %s"
              report.Coordinator.shard_deaths report.Coordinator.respawns
              report.Coordinator.shards_live w g
        | None ->
            if
              report.Coordinator.metrics.Suu_service.Metrics.ok
              <> List.length lines
            then
              failf "%d of %d requests degraded under chaos"
                (List.length lines
                - report.Coordinator.metrics.Suu_service.Metrics.ok)
                (List.length lines)
            else if report.Coordinator.shards_live <> 2 then
              failf "fleet not at full strength: %d of 2 live"
                report.Coordinator.shards_live
            else if report.Coordinator.respawns <> report.Coordinator.shard_deaths
            then
              failf "%d deaths but %d respawns" report.Coordinator.shard_deaths
                report.Coordinator.respawns
            else Pass)

(* --- 15. improved-family schedule validity -------------------------- *)

let improved_validity =
  Property.make ~name:"improved-validity" ~sizes:Gen.small
    ~doc:
      "the improved family's schedule (suu-imp) is structurally valid on \
       every DAG shape, its boosted prefix alone brings every job to the \
       phase mass target, and every job keeps gaining mass over each \
       repetition of the tail (so the schedule finishes almost surely)"
    (fun case ->
      let inst = Case.instance case in
      let sched = Improved.schedule inst in
      match Oblivious.validate inst sched with
      | Error msg -> failf "invalid schedule: %s" msg
      | Ok () ->
          let n = Instance.n inst in
          let prefix_len = Oblivious.prefix_length sched in
          let cycle_len = Oblivious.cycle_length sched in
          if cycle_len = 0 && n > 0 then Fail "schedule has no infinite tail"
          else
            let target = Phased.tuned_params.Phased.mass_target in
            let prefix_mass =
              Mass.of_oblivious_capped inst sched ~steps:prefix_len
            in
            let deficient = ref None in
            Array.iteri
              (fun j mj ->
                if mj < Float.min 1. target -. 1e-9 then
                  deficient := Some (j, mj))
              prefix_mass;
            (match !deficient with
            | Some (j, mj) ->
                failf "job %d accumulates %.4f < target %.4f over the prefix"
                  j mj target
            | None ->
                (* Uncapped mass must strictly grow for every job over one
                   full tail repetition: both tails (base phase repeated,
                   concentration cycle) revisit every job. *)
                let at = Mass.of_oblivious inst sched ~steps:prefix_len in
                let later =
                  Mass.of_oblivious inst sched ~steps:(prefix_len + cycle_len)
                in
                let stuck = ref None in
                Array.iteri
                  (fun j v -> if later.(j) <= v +. 1e-12 then stuck := Some j)
                  at;
                (match !stuck with
                | Some j -> failf "job %d gains no mass over one tail cycle" j
                | None -> Pass)))

(* --- 16. improved-family ratio vs TOPT ------------------------------ *)

let improved_ratio =
  Property.make ~name:"improved-ratio" ~sizes:Gen.tiny
    ~doc:
      "the improved family's expected makespan stays within a pinned \
       envelope of the Malewicz optimum — C·(1 + log₂ n)·TOPT with C = 4, \
       generous against the follow-up paper's O(log n · log log min(m,n)) \
       DAG bound — and never beats TOPT by more than sampling noise"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      match Malewicz.optimal_value inst with
      | exception Malewicz.Too_expensive _ -> Skip "Malewicz too expensive"
      | exception Exact.Too_large _ -> Skip "too many jobs for a bitmask"
      | topt ->
          let trials = 300 in
          let e =
            Engine.estimate_makespan_seeded ~trials
              ~seed:(Rng.int rng 1_000_000) inst (Improved.policy inst)
          in
          if e.Engine.incomplete > 0 then
            failf "%d of %d trials hit the step cap" e.Engine.incomplete trials
          else
            let mean = e.Engine.stats.Suu_prob.Stats.mean in
            let sem = e.Engine.stats.Suu_prob.Stats.sem in
            let n = Instance.n inst in
            let envelope =
              4.
              *. (1. +. (Float.log (Float.of_int (max 2 n)) /. Float.log 2.))
              *. topt
            in
            if mean > envelope +. (5. *. sem) then
              failf "mean %.4f exceeds envelope %.4f (TOPT %.4f, n=%d)" mean
                envelope topt n
            else if mean < topt -. (5. *. sem) -. 0.05 then
              failf "mean %.4f beats TOPT %.4f — estimator or oracle broken"
                mean topt
            else Pass)

(* --- 17. fixed-assignment validity --------------------------------- *)

(* Replay a traced execution against the engine's own rules: every drawn
   (machine, job) pair must have positive probability on an unfinished,
   eligible job, and no job may collect more than the greedy mass cap in
   one step. [extra] adds a policy-specific per-pair invariant. *)
let replay_violation inst history ~extra =
  let n = Instance.n inst in
  let unfinished = Array.make n true in
  let mass = Array.make n 0. in
  let rec go = function
    | [] -> None
    | (step, asg, completed) :: rest -> (
        let elig = Oracle.eligible inst unfinished in
        Array.fill mass 0 n 0.;
        let bad = ref None in
        Array.iteri
          (fun i j ->
            if !bad = None && j <> Assignment.idle_job then
              let p = Instance.prob inst ~machine:i ~job:j in
              if p <= 0. then
                bad :=
                  Some
                    (Printf.sprintf
                       "step %d: machine %d drawn on job %d with p = 0" step i
                       j)
              else if not unfinished.(j) then
                bad :=
                  Some
                    (Printf.sprintf "step %d: machine %d on finished job %d"
                       step i j)
              else if not elig.(j) then
                bad :=
                  Some
                    (Printf.sprintf "step %d: machine %d on ineligible job %d"
                       step i j)
              else begin
                mass.(j) <- mass.(j) +. p;
                if mass.(j) > Policy.greedy_mass_cap then
                  bad :=
                    Some
                      (Printf.sprintf
                         "step %d: job %d collects mass %.6f over the cap"
                         step j mass.(j))
                else
                  match extra ~machine:i ~job:j with
                  | Some msg ->
                      bad := Some (Printf.sprintf "step %d: %s" step msg)
                  | None -> ()
              end)
          asg;
        match !bad with
        | Some _ as v -> v
        | None ->
            List.iter (fun j -> unfinished.(j) <- false) completed;
            go rest)
  in
  go history

let fixed_validity =
  Property.make ~name:"fixed-validity" ~sizes:Gen.small
    ~doc:
      "the fixed-assignment policy (suu-fixed) pins every job to exactly one \
       positive-probability machine, its executions only ever run a job on \
       its pinned machine (eligible and unfinished), and they complete \
       within the default horizon"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let pinned = Fixed_assignment.assignment inst in
      let bad_pin = ref None in
      Array.iteri
        (fun j i ->
          if !bad_pin = None then
            if i < 0 || i >= Instance.m inst then
              bad_pin := Some (Printf.sprintf "job %d pinned to machine %d" j i)
            else if Instance.prob inst ~machine:i ~job:j <= 0. then
              bad_pin :=
                Some
                  (Printf.sprintf "job %d pinned to machine %d with p = 0" j i))
        pinned;
      match !bad_pin with
      | Some msg -> Fail msg
      | None -> (
          let policy = Fixed_assignment.policy inst in
          let history = Engine.trace rng inst policy in
          let extra ~machine ~job =
            if pinned.(job) <> machine then
              Some
                (Printf.sprintf "job %d ran on machine %d, pinned to %d" job
                   machine pinned.(job))
            else None
          in
          match replay_violation inst history ~extra with
          | Some msg -> Fail msg
          | None ->
              let outcome = Engine.run rng inst policy in
              if not outcome.Engine.completed then
                Fail "execution hit the default horizon"
              else Pass))

(* --- 18. machine-churn conformance --------------------------------- *)

let churn_timeline rng ~m ~rate ~perm =
  Churn.generate ~m
    {
      Churn.seed = Rng.int rng 1_000_000;
      rate;
      repair = 4;
      perm;
      steps = 64;
    }

let churn_mask =
  Property.make ~name:"churn-mask"
    ~sizes:{ Gen.small with max_jobs = 5; min_prob = 0.15 }
    ~doc:
      "executing a random oblivious schedule under a churn timeline agrees \
       with the exact makespan CDF of the Churn.mask'ed schedule uniformly \
       (DKW at confidence 1 − 1e-9), on both the gated naive stepper and \
       the estimators' masked vectorized fast path"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let sched = Gen.oblivious rng case in
      let churn = churn_timeline rng ~m:(Instance.m inst) ~rate:0.15 ~perm:0.02 in
      let masked = Churn.mask churn sched in
      let horizon = min (Engine.default_horizon inst) 300 in
      let exact = Exact_oblivious.cdf inst masked ~horizon in
      (* Gated stepper on the *original* schedule: the untagged stateless
         policy forces the naive path, so the per-step availability gate
         itself is what's under test. *)
      let naive =
        Policy.stateless "churn-naive" (fun state ->
            Oblivious.step sched state.Policy.step)
      in
      let check name policy trials =
        let e =
          Engine.estimate_makespan_seeded ~availability:churn
            ~max_steps:horizon ~trials ~seed:(Rng.int rng 1_000_000) inst
            policy
        in
        let emp = Oracle.empirical_cdf e ~horizon in
        let sup = Oracle.sup_distance emp exact in
        let eps = Oracle.dkw_epsilon ~trials ~delta:1e-9 in
        if sup > eps then
          Some
            (Printf.sprintf "%s: sup|emp − exact| = %.4f > %.4f" name sup eps)
        else None
      in
      match check "gated stepper" naive 1200 with
      | Some msg -> Fail msg
      | None -> (
          (* Tagged policy: the kernel masks the schedule at compile
             time and serves it at full vectorized speed. *)
          match check "masked fast path" (Policy.of_oblivious "churn-obl" sched) 1200 with
          | Some msg -> Fail msg
          | None -> Pass))

let churn_monotone =
  Property.make ~name:"churn-monotone"
    ~sizes:{ Gen.tiny with min_prob = 0.15 }
    ~doc:
      "more churn never helps: for nested timelines (one the union of the \
       other with extra outages), the exact makespan CDF of the \
       more-churned masked schedule is pointwise dominated by the \
       less-churned one — the monotone-coupling argument, checked without \
       sampling noise"
    (fun case ->
      let inst = Case.instance case in
      let rng = Case.aux_rng case in
      let sched = Gen.oblivious rng case in
      let m = Instance.m inst in
      let less = churn_timeline rng ~m ~rate:0.1 ~perm:0. in
      let more = Churn.union less (churn_timeline rng ~m ~rate:0.1 ~perm:0.05) in
      let horizon = min (Engine.default_horizon inst) 300 in
      let f_less = Exact_oblivious.cdf inst (Churn.mask less sched) ~horizon in
      let f_more = Exact_oblivious.cdf inst (Churn.mask more sched) ~horizon in
      let worst = ref (-1, 0.) in
      for t = 0 to min (Array.length f_less) (Array.length f_more) - 1 do
        let gap = f_more.(t) -. f_less.(t) in
        if gap > snd !worst then worst := (t, gap)
      done;
      let t, gap = !worst in
      if gap > 1e-9 then
        failf "P(T ≤ %d) grew by %.3e under strictly more churn" t gap
      else Pass)

(* --- hidden: the deliberately broken demo property ----------------- *)

let demo_broken =
  Property.make ~hidden:true ~name:"demo-broken" ~sizes:Gen.small
    ~doc:
      "every instance has at most two jobs — deliberately false, kept to \
       demonstrate (and test) the failure, shrinking and repro pipeline"
    (fun case ->
      let n = Case.n case in
      if n <= 2 then Pass else failf "instance has %d jobs > 2" n)

let all =
  [
    instance_validation;
    msm_ratio;
    msm_ext_ratio;
    msm_determinism;
    mass_accumulation;
    relabel_invariance;
    monotone_in_p;
    exact_vs_mc;
    lanes_cols_vs_naive;
    lanes_vs_exact;
    parallel_vs_seeded;
    serialize_roundtrip;
    obs_mass_trace;
    split_merge;
    shard_heal;
    improved_validity;
    improved_ratio;
    fixed_validity;
    churn_mask;
    churn_monotone;
    demo_broken;
  ]

let visible = List.filter (fun p -> not p.Property.hidden) all
let find name = List.find_opt (fun p -> String.equal p.Property.name name) all
