module Pseudo = Suu_core.Pseudo
module Delay = Suu_algo.Delay
module Rng = Suu_prob.Rng

(* A random job shop as chain pseudo-schedules: job [k] runs up to [ops]
   back-to-back operations, each on a random machine for 1–3 steps, so
   one chain crosses several machines. *)
let shop_chains rng ~m ~chains ~ops =
  List.init chains (fun k ->
      let count = 1 + Rng.int rng ops in
      let windows, length =
        List.fold_left
          (fun (acc, start) _ ->
            let machine = Rng.int rng m in
            let duration = 1 + Rng.int rng 3 in
            ((machine, k, start, duration) :: acc, start + duration))
          ([], 0) (List.init count Fun.id)
      in
      Pseudo.of_windows ~m ~length windows)

let prop_derandomized_within_polylog =
  (* Congestion C (the overlay's load) and dilation D (the longest chain)
     bound any flattening from below; the delays keep the flattened
     length within a generous O(LB log LB) of LB = max(C, D). With at
     most 8 chains the upper bound is loose (any delays within the range
     stay under 10 LB); the "flow shop" case in test_delay.ml is the
     one that catches delays being ignored. *)
  QCheck.Test.make ~name:"derandomized delay within generous polylog of LB"
    ~count:60
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, chains) ->
      let pseudos = shop_chains (Rng.create seed) ~m:3 ~chains ~ops:5 in
      let c = Pseudo.load (Pseudo.overlay pseudos) in
      let d = List.fold_left (fun acc p -> max acc (Pseudo.length p)) 0 pseudos in
      let lb = max c d in
      let u = (snd (Delay.derandomized pseudos)).Delay.flattened_length in
      let lbf = Float.of_int lb in
      lb <= u && Float.of_int u <= (8. *. lbf *. (1. +. Float.log lbf)) +. 8.)

let () =
  Alcotest.run "delay shop"
    [
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_derandomized_within_polylog ] );
    ]
