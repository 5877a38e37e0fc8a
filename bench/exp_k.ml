(* EXP-K — the pipeline's delay-and-flatten step on job shops.

   The SUU pipeline borrows its collision-resolution machinery from
   deterministic job-shop scheduling (Leighton–Maggs–Rao;
   Shmoys–Stein–Wein). This experiment runs the pipeline's own [Delay]
   in that original setting: each job of a random shop becomes a chain
   pseudo-schedule whose operations run back to back, and the chains go
   through exactly the calls [Pipeline] makes — best-of-16 random delays
   over [Delay.auto_ranges], and the derandomized delays at their default
   range. Reported: flattened length against the congestion/dilation
   lower bound max(C, D), where C is the overlay's load and D the longest
   chain. Expected shape: both stay within a small factor of max(C, D);
   delays matter most when many jobs fight over few machines (C >> D). *)

open Bench_common
module Pseudo = Suu_core.Pseudo
module Delay = Suu_algo.Delay

let random_chains seed ~machines ~jobs ~ops ~dur =
  let rng = Rng.create seed in
  List.init jobs (fun j ->
      shop_chain ~m:machines j
        (List.init
           (1 + Rng.int rng ops)
           (fun _ ->
             let duration = 1 + Rng.int rng dur in
             (Rng.int rng machines, duration))))

let run () =
  section "EXP-K: delay-and-flatten on job shops (cf. paper §1.2/§4.1)";
  let rows =
    List.map
      (fun (label, machines, jobs, ops, dur) ->
        let chains =
          random_chains (master_seed + jobs + machines) ~machines ~jobs ~ops
            ~dur
        in
        let c = Pseudo.load (Pseudo.overlay chains) in
        let d = List.fold_left (fun acc p -> max acc (Pseudo.length p)) 0 chains in
        let r choice =
          Float.of_int choice.Delay.flattened_length /. Float.of_int (max c d)
        in
        let _, rand =
          Delay.choose (Rng.create 5) ~tries:16
            ~ranges:(Delay.auto_ranges chains) chains
        in
        let _, der = Delay.derandomized chains in
        [
          label;
          string_of_int c;
          string_of_int d;
          Printf.sprintf "%.2f" (r rand);
          Printf.sprintf "%.2f" (r der);
        ])
      [
        ("balanced 8x16", 8, 16, 6, 3);
        ("contended 2x24 (C>>D)", 2, 24, 4, 3);
        ("long jobs 8x4 (D>>C)", 8, 4, 12, 4);
        ("tiny 3x6", 3, 6, 3, 2);
        ("wide 16x48", 16, 48, 5, 2);
      ]
  in
  table ~title:"EXP-K job shop: flattened length / max(C, D)"
    ~header:[ "shop"; "C"; "D"; "best-of-16"; "derandomized" ]
    rows;
  note "max(C, D) bounds every column from below; both should stay within a \
        small factor of 1 (LMR/SSW shapes)."
