module Dag = Suu_dag.Dag
module Gen = Suu_dag.Gen
module Rng = Suu_prob.Rng

let test_create_basic () =
  let g = Dag.create ~n:4 [ (0, 1); (1, 2); (0, 3) ] in
  Alcotest.(check int) "n" 4 (Dag.n g);
  Alcotest.(check int) "edges" 3 (Dag.edge_count g);
  Alcotest.(check (list int)) "succs 0" [ 1; 3 ] (Dag.succs g 0);
  Alcotest.(check (list int)) "preds 2" [ 1 ] (Dag.preds g 2);
  Alcotest.(check bool) "has edge" true (Dag.has_edge g 0 1);
  Alcotest.(check bool) "no edge" false (Dag.has_edge g 1 0)

let test_duplicate_edges_collapsed () =
  let g = Dag.create ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
  Alcotest.(check int) "edges" 1 (Dag.edge_count g)

let test_cycle_rejected () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.create: graph contains a cycle")
    (fun () -> ignore (Dag.create ~n:3 [ (0, 1); (1, 2); (2, 0) ] : Dag.t))

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.create: self-loop")
    (fun () -> ignore (Dag.create ~n:2 [ (1, 1) ] : Dag.t))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Dag.create: vertex out of range")
    (fun () -> ignore (Dag.create ~n:2 [ (0, 5) ] : Dag.t))

let test_empty () =
  let g = Dag.empty 5 in
  Alcotest.(check int) "edges" 0 (Dag.edge_count g);
  Alcotest.(check int) "width = n" 5 (Dag.width g);
  Alcotest.(check int) "longest path 1" 1 (Dag.longest_path g);
  Alcotest.(check (list int)) "all sources" [ 0; 1; 2; 3; 4 ] (Dag.sources g)

let test_zero_vertices () =
  let g = Dag.empty 0 in
  Alcotest.(check int) "longest path" 0 (Dag.longest_path g);
  Alcotest.(check int) "width" 0 (Dag.width g)

let test_topo_order_chain () =
  let g = Dag.create ~n:4 [ (3, 2); (2, 1); (1, 0) ] in
  Alcotest.(check (array int)) "topo" [| 3; 2; 1; 0 |] (Dag.topo_order g)

let is_topo_order g order =
  let pos = Array.make (Dag.n g) 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  List.for_all (fun (u, v) -> pos.(u) < pos.(v)) (Dag.edges g)

let test_longest_path_chain () =
  let g = Gen.uniform_chains ~n:7 ~chains:1 in
  Alcotest.(check int) "chain of 7" 7 (Dag.longest_path g)

let test_longest_path_diamond () =
  let g = Gen.diamond ~width:5 in
  Alcotest.(check int) "diamond" 3 (Dag.longest_path g)

let test_width_chain () =
  let g = Gen.uniform_chains ~n:6 ~chains:1 in
  Alcotest.(check int) "chain width 1" 1 (Dag.width g)

let test_width_two_chains () =
  let g = Gen.uniform_chains ~n:6 ~chains:2 in
  Alcotest.(check int) "two chains width 2" 2 (Dag.width g)

let test_width_diamond () =
  let g = Gen.diamond ~width:4 in
  Alcotest.(check int) "diamond width" 4 (Dag.width g)

let test_reachable () =
  let g = Dag.create ~n:4 [ (0, 1); (1, 2) ] in
  let r = Dag.reachable g in
  Alcotest.(check bool) "0 reaches 2" true r.(0).(2);
  Alcotest.(check bool) "0 not reach 3" false r.(0).(3);
  Alcotest.(check bool) "2 not reach 0" false r.(2).(0);
  Alcotest.(check bool) "not self" false r.(0).(0)

let test_counts_on_tree () =
  (* 0 -> 1, 0 -> 2, 1 -> 3 *)
  let g = Dag.create ~n:4 [ (0, 1); (0, 2); (1, 3) ] in
  Alcotest.(check (array int)) "descendants" [| 4; 2; 1; 1 |]
    (Dag.descendant_counts g);
  Alcotest.(check (array int)) "ancestors" [| 1; 2; 2; 3 |]
    (Dag.ancestor_counts g)

let test_underlying_forest () =
  Alcotest.(check bool) "tree" true
    (Dag.underlying_forest (Dag.create ~n:3 [ (0, 1); (0, 2) ]));
  Alcotest.(check bool) "diamond is not" false
    (Dag.underlying_forest (Gen.diamond ~width:2));
  Alcotest.(check bool) "empty is" true (Dag.underlying_forest (Dag.empty 4))

let test_sinks () =
  let g = Dag.create ~n:3 [ (0, 1) ] in
  Alcotest.(check (list int)) "sinks" [ 1; 2 ] (Dag.sinks g)

let test_layered_generator () =
  let g = Gen.layered (Rng.create 7) ~n:20 ~layers:4 ~edge_prob:0.5 in
  Alcotest.(check int) "n" 20 (Dag.n g);
  (* Edges connect consecutive layers only, so the longest path is at most
     the layer count. *)
  Alcotest.(check bool) "depth <= layers" true (Dag.longest_path g <= 4)

let test_layered_full_density () =
  let g = Gen.layered (Rng.create 1) ~n:6 ~layers:2 ~edge_prob:1.0 in
  (* Every cross-layer pair is an edge. *)
  let l1 = List.length (Dag.sources g) in
  Alcotest.(check int) "complete bipartite" (l1 * (6 - l1)) (Dag.edge_count g)

let test_layered_bad_args () =
  Alcotest.check_raises "layers > n"
    (Invalid_argument "Gen.layered: layer count must be within [1, n]")
    (fun () ->
      ignore (Gen.layered (Rng.create 1) ~n:2 ~layers:5 ~edge_prob:0.5 : Dag.t))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan k =
    k + nn <= nh && (String.sub haystack k nn = needle || scan (k + 1))
  in
  nn = 0 || scan 0

let test_pp_smoke () =
  let g = Dag.create ~n:3 [ (0, 2) ] in
  let s = Format.asprintf "%a" Dag.pp g in
  Alcotest.(check bool) "mentions edge" true (contains s "0 -> 2")

let random_dag_gen =
  QCheck.Gen.(
    pair (int_range 1 40) (pair int (float_bound_inclusive 0.5))
    |> map (fun (n, (seed, prob)) ->
           Gen.random_dag (Rng.create seed) ~n ~edge_prob:prob))

let arbitrary_dag = QCheck.make ~print:(fun g -> Format.asprintf "%a" Dag.pp g) random_dag_gen

let prop_topo_valid =
  QCheck.Test.make ~name:"topo_order respects edges" ~count:200 arbitrary_dag
    (fun g -> is_topo_order g (Dag.topo_order g))

(* [random_dag] only has edges u < v, where smallest-first is the identity;
   relabel through a seeded permutation so the order is not trivial. *)
let relabelled_dag_gen =
  QCheck.Gen.(
    pair random_dag_gen int
    |> map (fun (g, seed) ->
           let n = Dag.n g in
           let perm = Array.init n Fun.id in
           let rng = Rng.create seed in
           for i = n - 1 downto 1 do
             let j = Rng.int rng (i + 1) in
             let t = perm.(i) in
             perm.(i) <- perm.(j);
             perm.(j) <- t
           done;
           Dag.create ~n
             (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Dag.edges g))))

(* Reference: repeatedly place the smallest vertex whose predecessors are
   all placed. *)
let smallest_first_topo g =
  let n = Dag.n g in
  let placed = Array.make n false in
  Array.init n (fun _ ->
      let rec first v =
        if
          (not placed.(v))
          && List.for_all (fun u -> placed.(u)) (Dag.preds g v)
        then v
        else first (v + 1)
      in
      let v = first 0 in
      placed.(v) <- true;
      v)

let prop_topo_smallest_first =
  QCheck.Test.make ~name:"topo_order is smallest-first Kahn" ~count:200
    (QCheck.make
       ~print:(fun g -> Format.asprintf "%a" Dag.pp g)
       relabelled_dag_gen)
    (fun g -> Dag.topo_order g = smallest_first_topo g)

let prop_width_antichain =
  QCheck.Test.make ~name:"width >= 1 and <= n" ~count:200 arbitrary_dag
    (fun g ->
      let w = Dag.width g in
      Dag.n g = 0 || (w >= 1 && w <= Dag.n g))

let prop_longest_path_vs_width =
  (* Mirsky/Dilworth-flavoured sanity: longest path * width >= n. *)
  QCheck.Test.make ~name:"longest_path * width >= n" ~count:200 arbitrary_dag
    (fun g -> Dag.longest_path g * Dag.width g >= Dag.n g)

let prop_edges_roundtrip =
  QCheck.Test.make ~name:"edges consistent with succs/preds" ~count:200
    arbitrary_dag (fun g ->
      List.for_all
        (fun (u, v) -> List.mem v (Dag.succs g u) && List.mem u (Dag.preds g v))
        (Dag.edges g)
      && Dag.edge_count g = List.length (Dag.edges g))

let prop_reachable_transitive =
  QCheck.Test.make ~name:"reachability is transitive" ~count:100
    (QCheck.make (QCheck.Gen.map2 (fun g () -> g) random_dag_gen QCheck.Gen.unit))
    (fun g ->
      let r = Dag.reachable g in
      let n = Dag.n g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if r.(a).(b) && r.(b).(c) && not r.(a).(c) then ok := false
          done
        done
      done;
      !ok)

let () =
  Alcotest.run "dag"
    [
      ( "construction",
        [
          Alcotest.test_case "basic" `Quick test_create_basic;
          Alcotest.test_case "duplicates collapsed" `Quick
            test_duplicate_edges_collapsed;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "range checked" `Quick test_out_of_range_rejected;
          Alcotest.test_case "empty dag" `Quick test_empty;
          Alcotest.test_case "zero vertices" `Quick test_zero_vertices;
        ] );
      ( "queries",
        [
          Alcotest.test_case "topo of chain" `Quick test_topo_order_chain;
          Alcotest.test_case "longest path chain" `Quick test_longest_path_chain;
          Alcotest.test_case "longest path diamond" `Quick
            test_longest_path_diamond;
          Alcotest.test_case "width chain" `Quick test_width_chain;
          Alcotest.test_case "width two chains" `Quick test_width_two_chains;
          Alcotest.test_case "width diamond" `Quick test_width_diamond;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "descendant/ancestor counts" `Quick
            test_counts_on_tree;
          Alcotest.test_case "underlying forest" `Quick test_underlying_forest;
          Alcotest.test_case "sinks" `Quick test_sinks;
          Alcotest.test_case "layered generator" `Quick test_layered_generator;
          Alcotest.test_case "layered density" `Quick test_layered_full_density;
          Alcotest.test_case "layered args" `Quick test_layered_bad_args;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_topo_valid;
          QCheck_alcotest.to_alcotest prop_width_antichain;
          QCheck_alcotest.to_alcotest prop_longest_path_vs_width;
          QCheck_alcotest.to_alcotest prop_edges_roundtrip;
          QCheck_alcotest.to_alcotest prop_reachable_transitive;
          QCheck_alcotest.to_alcotest prop_topo_smallest_first;
        ] );
    ]
