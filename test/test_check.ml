(* Tests for the lib/check conformance subsystem itself: the registry
   stays green on fresh seeds, the failure path shrinks to a minimal
   counterexample whose repro line replays, and cases/shrinks/seeds are
   deterministic plain data. *)

module Case = Suu_check.Case
module Gen = Suu_check.Gen
module Property = Suu_check.Property
module Registry = Suu_check.Registry
module Runner = Suu_check.Runner
module Rng = Suu_prob.Rng

let find name =
  match Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "property %S not registered" name

let test_registry_green () =
  Alcotest.(check bool)
    "at least 10 visible properties" true
    (List.length Registry.visible >= 10);
  (* A seed the cram/CI runs don't use, so this is genuinely new
     coverage rather than a replay of the pinned seed. *)
  let report = Runner.run ~seed:1234 ~count:5 Registry.visible in
  List.iter
    (fun (r : Runner.prop_report) ->
      match r.Runner.failure with
      | None -> ()
      | Some f ->
          Alcotest.failf "%s failed on %s: %s" f.Runner.property
            (Case.summary f.Runner.shrunk)
            f.Runner.shrunk_message)
    report.Runner.props;
  Alcotest.(check bool) "report ok" true (Runner.ok report)

(* Regression guard: the registered property list is part of the
   tool's contract (CI selects properties by name, cram goldens pin the
   quick run). Adding a property must update this golden deliberately;
   losing one must never pass silently. *)
let test_property_list_golden () =
  let golden =
    [
      "instance-validation";
      "msm-ratio";
      "msm-ext-ratio";
      "msm-determinism";
      "mass-accumulation";
      "relabel-invariance";
      "monotone-in-p";
      "exact-vs-mc";
      "lanes-cols-vs-naive";
      "lanes-vs-exact";
      "parallel-vs-seeded";
      "serialize-roundtrip";
      "obs-mass-trace";
      "split-merge";
      "shard-heal";
      "improved-validity";
      "improved-ratio";
      "fixed-validity";
      "churn-mask";
      "churn-monotone";
    ]
  in
  let names = List.map (fun p -> p.Property.name) Registry.visible in
  Alcotest.(check (list string)) "visible properties (ordered)" golden names;
  (* Hidden properties stay findable but out of the default run. *)
  Alcotest.(check bool)
    "demo-broken registered but hidden" true
    (Registry.find "demo-broken" <> None
    && not (List.exists (fun p -> p.Property.name = "demo-broken") Registry.visible))

let test_demo_broken_shrinks_and_replays () =
  let prop = find "demo-broken" in
  let report = Runner.run_property ~seed:42 ~count:30 prop in
  match report.Runner.failure with
  | None -> Alcotest.fail "demo-broken must produce a counterexample"
  | Some f ->
      (* demo-broken fails iff n > 2, so the minimum is exactly 3 jobs,
         and nothing stops the shrinker from reaching 1 machine and an
         empty dag. *)
      Alcotest.(check int) "shrunk to 3 jobs" 3 (Case.n f.Runner.shrunk);
      Alcotest.(check int) "shrunk to 1 machine" 1 (Case.m f.Runner.shrunk);
      Alcotest.(check (list (pair int int)))
        "shrunk to no edges" [] f.Runner.shrunk.Case.edges;
      Alcotest.(check bool) "shrinking did work" true (f.Runner.shrink_steps > 0);
      let line = Runner.repro_json f in
      (match Runner.replay line with
      | Error msg -> Alcotest.failf "repro line did not parse: %s" msg
      | Ok (prop', case') ->
          Alcotest.(check string)
            "replay finds the property" prop.Property.name prop'.Property.name;
          Alcotest.(check bool)
            "replay reconstructs the case bit-for-bit" true
            (Case.equal f.Runner.shrunk case');
          (match prop'.Property.check case' with
          | Property.Fail _ -> ()
          | Property.Pass | Property.Skip _ ->
              Alcotest.fail "replayed case no longer fails"))

let test_replay_rejects_garbage () =
  let bad line =
    match Runner.replay line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  bad "not json";
  bad "{\"seed\":1,\"case\":{\"n\":1,\"m\":1,\"p\":[[1]],\"edges\":[],\"aux\":0}}";
  bad "{\"property\":\"no-such\",\"seed\":1,\"case\":{\"n\":1,\"m\":1,\"p\":[[1]],\"edges\":[],\"aux\":0}}";
  (* structurally fine JSON, but the case is invalid: p out of range *)
  bad
    "{\"property\":\"msm-ratio\",\"seed\":1,\"case\":{\"n\":1,\"m\":1,\"p\":[[2]],\"edges\":[],\"aux\":0}}"

let test_case_json_roundtrip () =
  let rng = Rng.create 99 in
  for _ = 1 to 60 do
    let case = Gen.case (Rng.split rng) Gen.default in
    match Case.of_json (Case.to_json case) with
    | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
    | Ok case' ->
        Alcotest.(check bool) "roundtrip equal" true (Case.equal case case')
  done;
  (* Floats that lose bits under naive short printing. *)
  let case =
    Case.make
      ~p:[| [| 0.1; 1e-300; 0.30000000000000004; 1. /. 3. |] |]
      ~edges:[ (0, 2); (1, 3) ] ~aux_seed:123
  in
  match Case.of_json (Case.to_json case) with
  | Error msg -> Alcotest.failf "awkward floats: %s" msg
  | Ok case' ->
      Alcotest.(check bool) "bit-exact floats" true (Case.equal case case')

let test_shrink_candidates_valid () =
  let rng = Rng.create 5 in
  for _ = 1 to 40 do
    let case = Gen.case (Rng.split rng) Gen.small in
    Alcotest.(check bool) "generated case valid" true (Case.is_valid case);
    Seq.iter
      (fun c ->
        Alcotest.(check bool) "shrink candidate valid" true (Case.is_valid c))
      (Gen.shrink case)
  done

let test_case_seed_derivation () =
  let s a b = Runner.case_seed ~seed:a ~name:b in
  Alcotest.(check bool)
    "varies with index" true
    (s 42 "msm-ratio" ~index:0 <> s 42 "msm-ratio" ~index:1);
  Alcotest.(check bool)
    "varies with property name" true
    (s 42 "msm-ratio" ~index:0 <> s 42 "msm-ext-ratio" ~index:0);
  Alcotest.(check bool)
    "varies with master seed" true
    (s 42 "msm-ratio" ~index:0 <> s 43 "msm-ratio" ~index:0);
  Alcotest.(check bool)
    "non-negative (usable as an Rng seed)" true
    (s 42 "msm-ratio" ~index:0 >= 0)

(* Extra randomized coverage for the column-kernel/naive distribution
   equivalence beyond the pinned cram/CI seeds: fresh master seeds mean
   fresh dags, probability styles and oblivious schedules. *)
let test_lanes_cols_vs_naive_fresh_seeds () =
  let prop = find "lanes-cols-vs-naive" in
  List.iter
    (fun seed ->
      let r = Runner.run_property ~seed ~count:6 prop in
      match r.Runner.failure with
      | None -> ()
      | Some f ->
          Alcotest.failf "seed %d: %s (shrunk: %s)" seed f.Runner.message
            (Case.summary f.Runner.shrunk))
    [ 2026; 31337 ]

let () =
  Alcotest.run "check"
    [
      ( "registry",
        [
          Alcotest.test_case "green on a fresh seed" `Quick test_registry_green;
          Alcotest.test_case "property list golden" `Quick
            test_property_list_golden;
          Alcotest.test_case "lanes-cols vs naive, fresh seeds" `Quick
            test_lanes_cols_vs_naive_fresh_seeds;
        ] );
      ( "failure pipeline",
        [
          Alcotest.test_case "demo-broken shrinks and replays" `Quick
            test_demo_broken_shrinks_and_replays;
          Alcotest.test_case "replay rejects garbage" `Quick
            test_replay_rejects_garbage;
        ] );
      ( "cases",
        [
          Alcotest.test_case "json roundtrip" `Quick test_case_json_roundtrip;
          Alcotest.test_case "shrink candidates valid" `Quick
            test_shrink_candidates_valid;
          Alcotest.test_case "case seed derivation" `Quick
            test_case_seed_derivation;
        ] );
    ]
