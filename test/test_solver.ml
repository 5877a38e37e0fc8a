module Instance = Suu_core.Instance
module Solver = Suu_algo.Solver
module Rng = Suu_prob.Rng

let inst_with_dag seed dag =
  let rng = Rng.create seed in
  let n = Suu_dag.Dag.n dag in
  Instance.create
    ~p:(Array.init 3 (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.2 0.9)))
    ~dag

let test_names () =
  let check dag expected =
    let inst = inst_with_dag 1 dag in
    Alcotest.(check string) "algorithm" expected (Solver.algorithm_name inst)
  in
  check (Suu_dag.Dag.empty 4) "lp-indep";
  check (Suu_dag.Gen.uniform_chains ~n:4 ~chains:2) "suu-c";
  check (Suu_dag.Gen.binary_out_tree ~n:5) "suu-trees";
  check
    (Suu_dag.Dag.create ~n:5 [ (0, 1); (2, 1); (1, 3); (1, 4) ])
    "suu-forest";
  check (Suu_dag.Gen.diamond ~width:2) "unsupported"

let test_adaptive_name () =
  let inst = inst_with_dag 2 (Suu_dag.Gen.diamond ~width:2) in
  Alcotest.(check string) "adaptive" "suu-i-alg"
    (Solver.algorithm_name ~kind:`Adaptive inst)

let test_oblivious_general_unsupported () =
  let inst = inst_with_dag 3 (Suu_dag.Gen.diamond ~width:2) in
  match Solver.solve ~kind:`Oblivious inst with
  | exception Solver.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_adaptive_general_works () =
  let inst = inst_with_dag 4 (Suu_dag.Gen.diamond ~width:3) in
  let policy = Solver.solve ~kind:`Adaptive inst in
  let o = Suu_sim.Engine.run (Rng.create 5) inst policy in
  Alcotest.(check bool) "completed" true o.Suu_sim.Engine.completed

let prop_dispatch_completes =
  QCheck.Test.make ~name:"dispatched policies complete" ~count:20
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let dag =
        match abs seed mod 4 with
        | 0 -> Suu_dag.Dag.empty n
        | 1 -> Suu_dag.Gen.chains (Rng.split rng) ~n ~chains:(1 + (n / 3))
        | 2 -> Suu_dag.Gen.out_forest (Rng.split rng) ~n ~trees:(min 2 n)
        | _ -> Suu_dag.Gen.polytree_forest (Rng.split rng) ~n ~trees:(min 2 n)
      in
      let inst = inst_with_dag (seed + 1) dag in
      let adaptive = Solver.solve ~kind:`Adaptive inst in
      let oblivious = Solver.solve ~kind:`Oblivious inst in
      (Suu_sim.Engine.run (Rng.split rng) inst adaptive).Suu_sim.Engine.completed
      && (Suu_sim.Engine.run (Rng.split rng) inst oblivious)
           .Suu_sim.Engine.completed)

(* Every served kind, each naming its successor: adding a [Solver.kind]
   breaks this exhaustive match until the audit below lists it. *)
let rec kinds_from (k : Solver.kind) =
  k
  ::
  (match k with
  | `Adaptive -> kinds_from `Oblivious
  | `Oblivious -> kinds_from `Improved
  | `Improved -> kinds_from `Fixed
  | `Fixed -> [])

(* Equivalence audit: two served kinds whose seeded sample vectors agree
   on every generated case are one behaviour under two names (a Z-ratio
   index policy, for one, is SUU-I-ALG's scan with another tie-break).
   Each kind must differ from every other on some case. *)
let test_equivalence_audit () =
  let kinds = kinds_from `Adaptive in
  (* A probability floor bounds the horizons, as for the simulating
     conformance properties: without it one near-zero entry makes a case
     cost a minute of policy building and stepping. The floor stays low
     because every entry below it is clamped to the same value, and at
     0.05 the resulting ties already let a mere tie-break separate two
     runs of one scan. *)
  let sizes (g : Suu_check.Gen.sizes) = { g with min_prob = 1e-3 } in
  let rng = Rng.create 5 in
  let cases =
    List.init 30 (fun _ -> Suu_check.Gen.case rng (sizes Suu_check.Gen.small))
    @ List.init 30 (fun _ ->
          Suu_check.Gen.case rng (sizes Suu_check.Gen.default))
  in
  let vectors =
    List.map
      (fun case ->
        let inst = Suu_check.Case.instance case in
        List.map
          (fun kind ->
            let policy = Solver.solve ~kind ~allow_heuristic:true inst in
            (Suu_sim.Engine.estimate_makespan_seeded ~trials:126 ~seed:5 inst
               policy)
              .Suu_sim.Engine.samples)
          kinds)
      cases
  in
  let name k = Suu_service.Request.algo_name (k :> Suu_service.Request.algo) in
  List.iteri
    (fun a ka ->
      List.iteri
        (fun b kb ->
          if a < b then
            let same =
              List.for_all
                (fun per_kind -> List.nth per_kind a = List.nth per_kind b)
                vectors
            in
            if same then
              Alcotest.failf
                "%s and %s gave identical sample vectors on all %d cases"
                (name ka) (name kb) (List.length cases))
        kinds)
    kinds

let () =
  Alcotest.run "solver"
    [
      ( "dispatch",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "adaptive name" `Quick test_adaptive_name;
          Alcotest.test_case "general unsupported" `Quick
            test_oblivious_general_unsupported;
          Alcotest.test_case "adaptive general" `Quick test_adaptive_general_works;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_dispatch_completes ]);
      ( "equivalence audit",
        [
          Alcotest.test_case "served kinds are distinct" `Quick
            test_equivalence_audit;
        ] );
    ]
