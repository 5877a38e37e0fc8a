module Instance = Suu_core.Instance
module Dag = Suu_dag.Dag

let sample () =
  Instance.create
    ~p:[| [| 0.5; 0.2; 0.0 |]; [| 0.1; 0.8; 0.4 |] |]
    ~dag:(Dag.create ~n:3 [ (0, 1) ])

let test_accessors () =
  let inst = sample () in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check int) "m" 2 (Instance.m inst);
  Alcotest.(check (float 0.)) "p01" 0.2 (Instance.prob inst ~machine:0 ~job:1);
  Alcotest.(check (float 1e-12)) "total rate job 1" 1.0 (Instance.total_rate inst 1);
  Alcotest.(check (float 0.)) "best prob job 2" 0.4 (Instance.best_prob inst 2);
  Alcotest.(check int) "best machine job 0" 0 (Instance.best_machine inst 0);
  Alcotest.(check (float 0.)) "p_min" 0.1 (Instance.p_min inst);
  Alcotest.(check (list int)) "capable of job 2" [ 1 ] (Instance.capable_machines inst 2);
  Alcotest.(check (float 0.)) "machine 0 max" 0.5 (Instance.machine_max_prob inst 0)

let test_probs_for_job () =
  let inst = sample () in
  Alcotest.(check (array (float 0.))) "column" [| 0.2; 0.8 |]
    (Instance.probs_for_job inst 1)

(* Hostile probability values must be rejected with the typed error —
   coordinates and offending value included — never passed through to the
   samplers (where a NaN would silently poison every Bernoulli draw). *)
let hostile_values =
  [ 1.5; -0.1; Float.nan; Float.infinity; Float.neg_infinity; -1e300 ]

let test_rejects_hostile_probs () =
  List.iter
    (fun v ->
      let p = [| [| 0.5; 0.2 |]; [| 0.1; 0.8 |] |] in
      p.(1).(0) <- v;
      match Instance.create_checked ~p ~dag:(Dag.empty 2) with
      | Error (Instance.Bad_probability { machine = 1; job = 0; value }) ->
          (* NaN <> NaN, so compare representations. *)
          Alcotest.(check bool)
            (Printf.sprintf "offending value %h reported" v)
            true
            (Int64.equal (Int64.bits_of_float value) (Int64.bits_of_float v))
      | Ok _ | Error _ ->
          Alcotest.failf "hostile probability %h not rejected as such" v)
    hostile_values

let test_hostile_raise_is_typed () =
  List.iter
    (fun v ->
      match Instance.independent ~p:[| [| 0.3; v |] |] with
      | (_ : Instance.t) -> Alcotest.failf "hostile %h accepted" v
      | exception Instance.Invalid (Instance.Bad_probability _) -> ()
      | exception e ->
          Alcotest.failf "hostile %h: wrong exception %s" v
            (Printexc.to_string e))
    hostile_values

let test_rejects_incapable_job () =
  match Instance.create_checked ~p:[| [| 0.5; 0.0 |] |] ~dag:(Dag.empty 2) with
  | Error (Instance.Incapable_job { job }) ->
      Alcotest.(check int) "job reported" 1 job
  | Ok _ | Error _ -> Alcotest.fail "incapable job not rejected as such"

let test_rejects_dimension_mismatch () =
  match Instance.create_checked ~p:[| [| 0.5 |] |] ~dag:(Dag.empty 2) with
  | Error (Instance.Row_length_mismatch { machine = 0; expected = 2; got = 1 })
    ->
      ()
  | Ok _ | Error _ -> Alcotest.fail "row mismatch not rejected as such"

let test_rejects_no_machines () =
  Alcotest.check_raises "no machines" (Instance.Invalid Instance.No_machines)
    (fun () -> ignore (Instance.create ~p:[||] ~dag:(Dag.empty 0) : Instance.t))

let test_error_strings () =
  Alcotest.(check string)
    "bad probability message"
    "Instance.create: probability p[1][2] = nan outside [0,1]"
    (Instance.error_to_string
       (Instance.Bad_probability { machine = 1; job = 2; value = Float.nan }));
  Alcotest.(check string)
    "incapable message" "Instance.create: job 3 has no capable machine"
    (Instance.error_to_string (Instance.Incapable_job { job = 3 }))

let test_create_checked_ok () =
  match
    Instance.create_checked
      ~p:[| [| 0.5; 0.2; 0.0 |]; [| 0.1; 0.8; 0.4 |] |]
      ~dag:(Dag.create ~n:3 [ (0, 1) ])
  with
  | Ok inst -> Alcotest.(check int) "n" 3 (Instance.n inst)
  | Error e -> Alcotest.fail (Instance.error_to_string e)

let test_defensive_copy () =
  let p = [| [| 0.5 |] |] in
  let inst = Instance.independent ~p in
  p.(0).(0) <- 0.9;
  Alcotest.(check (float 0.)) "copied" 0.5 (Instance.prob inst ~machine:0 ~job:0)

let test_transpose () =
  let q = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |]; [| 0.5; 0.6 |] |] in
  let p = Instance.transpose_probs q in
  Alcotest.(check int) "machines" 2 (Array.length p);
  Alcotest.(check (array (float 0.))) "machine 0 row" [| 0.1; 0.3; 0.5 |] p.(0);
  Alcotest.(check (array (float 0.))) "machine 1 row" [| 0.2; 0.4; 0.6 |] p.(1)

(* Four domains race on the first [sorted_pairs] of one fresh instance:
   whichever sort is published, every domain sees arrays equal to those
   of an instance that sorted on one domain. Coarse probabilities make
   ties, so the (machine, job) tie-break is exercised too. *)
let test_sorted_pairs_race () =
  let n = 64 and m = 16 in
  for seed = 0 to 19 do
    let p =
      Array.init m (fun i ->
          Array.init n (fun j ->
              float_of_int ((((i * 7) + (j * 13) + seed) mod 8) + 1) /. 8.))
    in
    let reference = Instance.sorted_pairs (Instance.independent ~p) in
    let fresh = Instance.independent ~p in
    let ready = Atomic.make 0 in
    let racers =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 4 do
                Domain.cpu_relax ()
              done;
              Instance.sorted_pairs fresh))
    in
    List.iter
      (fun d ->
        let ps, ms, js = Domain.join d in
        let rps, rms, rjs = reference in
        Alcotest.(check (array (float 0.))) "probs" rps ps;
        Alcotest.(check (array int)) "machines" rms ms;
        Alcotest.(check (array int)) "jobs" rjs js)
      racers
  done

(* The pair order before the inlined merge sort, kept as the oracle:
   [Array.sort] with a closure comparator over the flat pair indices. *)
let closure_sorted_pairs p =
  let m = Array.length p and n = Array.length p.(0) in
  let pflat = Array.init (m * n) (fun f -> p.(f / n).(f mod n)) in
  let idx =
    Array.of_list
      (List.filter (fun f -> pflat.(f) > 0.) (List.init (m * n) Fun.id))
  in
  Array.sort
    (fun a b ->
      match Float.compare pflat.(b) pflat.(a) with
      | 0 -> compare a b
      | c -> c)
    idx;
  ( Array.map (fun f -> pflat.(f)) idx,
    Array.map (fun f -> f / n) idx,
    Array.map (fun f -> f mod n) idx )

(* Four probability levels make ties common, so the index tie-break
   decides much of the order. *)
let prop_sorted_pairs_match_closure_sort =
  QCheck.Test.make ~name:"sorted_pairs = closure-comparator sort" ~count:300
    QCheck.(triple (int_range 1 16) (int_range 1 64) small_int)
    (fun (m, n, seed) ->
      let rng = Suu_prob.Rng.create seed in
      let levels = [| 0.25; 0.5; 0.75; 1. |] in
      let p =
        Array.init m (fun _ ->
            Array.init n (fun _ -> levels.(Suu_prob.Rng.int rng 4)))
      in
      Instance.sorted_pairs (Instance.independent ~p) = closure_sorted_pairs p)

let () =
  Alcotest.run "instance"
    [
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "probs_for_job" `Quick test_probs_for_job;
          Alcotest.test_case "rejects hostile probs" `Quick
            test_rejects_hostile_probs;
          Alcotest.test_case "hostile raise is typed" `Quick
            test_hostile_raise_is_typed;
          Alcotest.test_case "rejects incapable job" `Quick
            test_rejects_incapable_job;
          Alcotest.test_case "rejects dim mismatch" `Quick
            test_rejects_dimension_mismatch;
          Alcotest.test_case "rejects zero machines" `Quick
            test_rejects_no_machines;
          Alcotest.test_case "error strings" `Quick test_error_strings;
          Alcotest.test_case "create_checked ok" `Quick test_create_checked_ok;
          Alcotest.test_case "defensive copy" `Quick test_defensive_copy;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "sorted_pairs first-use race" `Quick
            test_sorted_pairs_race;
          QCheck_alcotest.to_alcotest prop_sorted_pairs_match_closure_sort;
        ] );
    ]
