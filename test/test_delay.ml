module Pseudo = Suu_core.Pseudo
module Oblivious = Suu_core.Oblivious
module Delay = Suu_algo.Delay
module Rng = Suu_prob.Rng

let mk_chain ~m ~machine ~job ~length =
  Pseudo.of_windows ~m ~length [ (machine, job, 0, length) ]

let test_flattened_length_matches_flatten () =
  let a = mk_chain ~m:2 ~machine:0 ~job:0 ~length:3 in
  let b = mk_chain ~m:2 ~machine:0 ~job:1 ~length:2 in
  let overlay = Pseudo.overlay [ a; b ] in
  Alcotest.(check int) "agree"
    (Oblivious.prefix_length (Pseudo.flatten overlay))
    (Delay.flattened_length overlay)

let test_overlay_with_delays () =
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:2 in
  let b = mk_chain ~m:1 ~machine:0 ~job:1 ~length:2 in
  let shifted = Delay.overlay_with_delays [ a; b ] [| 0; 2 |] in
  Alcotest.(check int) "sequential" 1 (Pseudo.max_congestion shifted);
  Alcotest.(check int) "length 4" 4 (Pseudo.length shifted)

let test_overlay_arity_mismatch () =
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:1 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Delay.overlay_with_delays: arity mismatch") (fun () ->
      ignore (Delay.overlay_with_delays [ a ] [| 0; 1 |] : Pseudo.t))

let test_choose_beats_or_matches_zero_delay () =
  (* Two chains hammering the same machine: zero delay has congestion 2;
     the search must find something no worse than flattening that. *)
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:4 in
  let b = mk_chain ~m:1 ~machine:0 ~job:1 ~length:4 in
  let zero = Delay.flattened_length (Pseudo.overlay [ a; b ]) in
  let _, choice =
    Delay.choose (Rng.create 3) ~tries:16 ~ranges:[ 4 ] [ a; b ]
  in
  Alcotest.(check bool) "no worse than zero delay" true
    (choice.Delay.flattened_length <= zero)

let test_choose_zero_tries_range_zero () =
  let a = mk_chain ~m:2 ~machine:0 ~job:0 ~length:2 in
  let b = mk_chain ~m:2 ~machine:1 ~job:1 ~length:2 in
  let overlay, choice = Delay.choose (Rng.create 1) ~tries:1 ~ranges:[ 0 ] [ a; b ] in
  Alcotest.(check (array int)) "zero delays" [| 0; 0 |] choice.Delay.delays;
  Alcotest.(check int) "disjoint machines congestion 1" 1
    (Pseudo.max_congestion overlay)

let test_choose_empty_rejected () =
  Alcotest.check_raises "no chains" (Invalid_argument "Delay.choose: no chains")
    (fun () ->
      ignore (Delay.choose (Rng.create 1) ~tries:1 ~ranges:[ 1 ] [] : Pseudo.t * Delay.choice))

let test_auto_ranges () =
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:3 in
  let b = mk_chain ~m:1 ~machine:0 ~job:1 ~length:3 in
  let ranges = Delay.auto_ranges [ a; b ] in
  Alcotest.(check bool) "contains 0" true (List.mem 0 ranges);
  (* Π_max of the overlay: machine 0 carries 6 units. *)
  Alcotest.(check bool) "contains pi_max" true (List.mem 6 ranges)

let test_derandomized_separates_collisions () =
  (* Two identical chains on one machine: the greedy conditional-
     expectation placement must avoid all overlap (delay 0 and length). *)
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:3 in
  let b = mk_chain ~m:1 ~machine:0 ~job:1 ~length:3 in
  let overlay, choice = Delay.derandomized [ a; b ] in
  Alcotest.(check int) "congestion 1" 1 (Pseudo.max_congestion overlay);
  Alcotest.(check int) "no expansion" (Pseudo.length overlay)
    choice.Delay.flattened_length

let test_derandomized_deterministic () =
  let a = mk_chain ~m:2 ~machine:0 ~job:0 ~length:3 in
  let b = mk_chain ~m:2 ~machine:0 ~job:1 ~length:2 in
  let _, c1 = Delay.derandomized [ a; b ] in
  let _, c2 = Delay.derandomized [ a; b ] in
  Alcotest.(check (array int)) "same delays" c1.Delay.delays c2.Delay.delays

let test_derandomized_range_zero () =
  let a = mk_chain ~m:1 ~machine:0 ~job:0 ~length:2 in
  let b = mk_chain ~m:1 ~machine:0 ~job:1 ~length:2 in
  let _, choice = Delay.derandomized ~range:0 [ a; b ] in
  Alcotest.(check (array int)) "forced zero" [| 0; 0 |] choice.Delay.delays

let test_derandomized_pipelines_flow_shop () =
  (* Five identical chains, each one step on machines 0, 1, 2 in turn:
     zero delays stack all five on each machine (flattened length 15);
     delaying chain k by k pipelines them, meeting C + D - 1 = 7. *)
  let chain k =
    Pseudo.of_windows ~m:3 ~length:3 [ (0, k, 0, 1); (1, k, 1, 1); (2, k, 2, 1) ]
  in
  let _, choice = Delay.derandomized (List.init 5 chain) in
  Alcotest.(check (array int)) "staggered" [| 0; 1; 2; 3; 4 |] choice.Delay.delays;
  Alcotest.(check int) "C + D - 1" 7 choice.Delay.flattened_length

let test_derandomized_rejects_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Delay.derandomized: no chains") (fun () ->
      ignore (Delay.derandomized [] : Pseudo.t * Delay.choice))

let prop_derandomized_beats_average =
  (* The conditional-expectation argument: the greedy flattened length is
     never worse than congestion-free-length + total collisions of the
     *average* random placement — we test the weaker, directly checkable
     statement that it never loses to the all-zero placement by more than
     the range allows, and that units are conserved. *)
  QCheck.Test.make ~name:"derandomized preserves units, valid choice" ~count:100
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, chains) ->
      let rng = Rng.create seed in
      let m = 2 in
      let pseudos =
        List.init chains (fun k ->
            mk_chain ~m ~machine:(Rng.int rng m) ~job:k
              ~length:(1 + Rng.int rng 5))
      in
      let total p = Array.fold_left ( + ) 0 (Pseudo.machine_loads p) in
      let before = List.fold_left (fun acc p -> acc + total p) 0 pseudos in
      let overlay, choice = Delay.derandomized pseudos in
      total overlay = before
      && Pseudo.max_congestion overlay = choice.Delay.congestion
      && Delay.flattened_length overlay = choice.Delay.flattened_length)

let prop_derandomized_no_worse_than_best_of_16 =
  (* Empirical quality gate: the deterministic placement should be in the
     same ballpark as a 16-try random search (allow 1.5x slack). *)
  QCheck.Test.make ~name:"derandomized within 1.5x of best-of-16" ~count:50
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, chains) ->
      let rng = Rng.create seed in
      let m = 2 in
      let pseudos =
        List.init chains (fun k ->
            mk_chain ~m ~machine:(Rng.int rng m) ~job:k
              ~length:(1 + Rng.int rng 6))
      in
      let _, der = Delay.derandomized pseudos in
      let _, rand =
        Delay.choose (Rng.split rng) ~tries:16
          ~ranges:(Delay.auto_ranges pseudos) pseudos
      in
      Float.of_int der.Delay.flattened_length
      <= 1.5 *. Float.of_int rand.Delay.flattened_length)

let prop_choice_congestion_consistent =
  QCheck.Test.make ~name:"reported congestion matches overlay" ~count:100
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, chains) ->
      let rng = Rng.create seed in
      let m = 2 in
      let pseudos =
        List.init chains (fun k ->
            mk_chain ~m ~machine:(Rng.int rng m) ~job:k
              ~length:(1 + Rng.int rng 5))
      in
      let overlay, choice =
        Delay.choose (Rng.split rng) ~tries:4 ~ranges:(Delay.auto_ranges pseudos)
          pseudos
      in
      Pseudo.max_congestion overlay = choice.Delay.congestion
      && Delay.flattened_length overlay = choice.Delay.flattened_length)

let prop_delays_never_lose_units =
  QCheck.Test.make ~name:"delaying preserves total units" ~count:100
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, chains) ->
      let rng = Rng.create seed in
      let m = 3 in
      let pseudos =
        List.init chains (fun k ->
            mk_chain ~m ~machine:(Rng.int rng m) ~job:k
              ~length:(1 + Rng.int rng 6))
      in
      let total p = Array.fold_left ( + ) 0 (Pseudo.machine_loads p) in
      let before = List.fold_left (fun acc p -> acc + total p) 0 pseudos in
      let overlay, _ =
        Delay.choose (Rng.split rng) ~tries:3 ~ranges:[ 5 ] pseudos
      in
      total overlay = before)

let () =
  Alcotest.run "delay"
    [
      ( "cases",
        [
          Alcotest.test_case "flattened length" `Quick
            test_flattened_length_matches_flatten;
          Alcotest.test_case "overlay with delays" `Quick test_overlay_with_delays;
          Alcotest.test_case "arity mismatch" `Quick test_overlay_arity_mismatch;
          Alcotest.test_case "beats zero delay" `Quick
            test_choose_beats_or_matches_zero_delay;
          Alcotest.test_case "zero range" `Quick test_choose_zero_tries_range_zero;
          Alcotest.test_case "empty rejected" `Quick test_choose_empty_rejected;
          Alcotest.test_case "auto ranges" `Quick test_auto_ranges;
        ] );
      ( "derandomized",
        [
          Alcotest.test_case "separates collisions" `Quick
            test_derandomized_separates_collisions;
          Alcotest.test_case "deterministic" `Quick
            test_derandomized_deterministic;
          Alcotest.test_case "range zero" `Quick test_derandomized_range_zero;
          Alcotest.test_case "flow shop" `Quick
            test_derandomized_pipelines_flow_shop;
          Alcotest.test_case "empty rejected" `Quick
            test_derandomized_rejects_empty;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_choice_congestion_consistent;
          QCheck_alcotest.to_alcotest prop_delays_never_lose_units;
          QCheck_alcotest.to_alcotest prop_derandomized_beats_average;
          QCheck_alcotest.to_alcotest prop_derandomized_no_worse_than_best_of_16;
        ] );
    ]
