(* EXP-DYN — policy families in a dynamic environment: online geometric
   arrivals plus machine churn, swept over failure rates.

   One utilization-calibrated instance (UUniFast split over heterogeneous
   speed factors); per churn rate, every contender is Monte-Carlo
   estimated under the same release vector and deterministic up/down
   timeline. The adaptive family (suu-i-alg) sees the dynamics only
   through eligibility; suu-fixed commits to a static pinning and
   suu-imp to a static schedule, so the sweep measures how much
   adaptivity buys as the environment degrades.

   The rows are merged into the BENCH_PERF.json artifact under a
   top-level "dyn" key — preserved by Perf.write_json and by exp-race's
   own merge, so perf, exp-race and exp-dyn can run in any order in CI's
   perf-smoke job. *)

open Bench_common
module Json = Suu_service.Json
module Churn = Suu_dyn.Churn
module Workload = Suu_workloads.Workload

let churn_rates = [ 0.; 0.05; 0.15 ]
let repair = 6

let contenders inst =
  [
    ("suu-i-alg", Suu_algo.Suu_i.policy inst);
    ("suu-fixed", Suu_algo.Fixed_assignment.policy inst);
    ("suu-imp", Suu_algo.Improved.policy inst);
  ]

let race_rate inst ~releases ~rate =
  let m = Instance.m inst in
  let churn =
    if rate = 0. then Churn.none ~m
    else
      Churn.generate ~m
        { Churn.seed = master_seed; rate; repair; perm = 0.; steps = 256 }
  in
  let availability = if Churn.is_none churn then None else Some churn in
  let runs =
    List.map
      (fun (name, policy) ->
        let e =
          Engine.estimate_makespan_seeded ~releases ?availability:availability
            ~trials
            ~seed:(master_seed lxor Hashtbl.hash name)
            inst policy
        in
        ( name,
          e.Engine.stats.Suu_prob.Stats.mean,
          e.Engine.stats.Suu_prob.Stats.ci95,
          e.Engine.incomplete ))
      (contenders inst)
  in
  let row_json =
    Json.Obj
      [
        ("churn_rate", Json.Num rate);
        ("repair", Json.int repair);
        ("down_steps", Json.int (Churn.down_steps churn ~upto:256));
        ( "contenders",
          Json.List
            (List.map
               (fun (name, mean, ci, incomplete) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("mean_makespan", Json.Num mean);
                     ("ci95", Json.Num ci);
                     ("incomplete", Json.int incomplete);
                   ])
               runs) );
      ]
  in
  let cells =
    List.map
      (fun (name, mean, ci, incomplete) ->
        Printf.sprintf "%s %.1f ±%.1f (%d inc)" name mean ci incomplete)
      runs
  in
  (Printf.sprintf "%.2f" rate :: cells, row_json)

(* Merge the rows into the perf artifact under "dyn", preserving every
   other field a prior `perf` / `exp-race` run wrote (and writing a
   minimal envelope when exp-dyn runs standalone). *)
let merge_into_artifact rows =
  let path = Perf.json_path () in
  let existing_fields =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> (
        match Json.of_string text with
        | Ok (Json.Obj fields) -> Some fields
        | Ok _ | Error _ -> None)
  in
  let fields =
    match existing_fields with
    | Some fields ->
        List.filter (fun (k, _) -> not (String.equal k "dyn")) fields
    | None ->
        [
          ("schema", Json.Str "suu-bench-perf/2");
          ("schema_version", Json.int 2);
          ("unix_time", Json.Num (Unix.time ()));
        ]
  in
  let doc = Json.Obj (fields @ [ ("dyn", Json.List rows) ]) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "merged dyn rows into %s (%d churn rates)\n" path
    (List.length rows)

let run () =
  section "EXP-DYN: policy families under online arrivals and machine churn";
  let n = 18 and m = 5 in
  let rng = Rng.create master_seed in
  let w =
    Workload.uunifast rng ~n ~m ~total_util:(0.4 *. float_of_int n)
      ~dag:(Suu_dag.Gen.independent n)
  in
  let inst = w.Workload.instance in
  let releases = Workload.arrivals rng ~n ~mean_gap:2. in
  let rows = List.map (fun rate -> race_rate inst ~releases ~rate) churn_rates in
  table ~title:"EXP-DYN mean makespans as churn increases"
    ~header:([ "rate" ] @ [ "suu-i-alg"; "suu-fixed"; "suu-imp" ])
    (List.map fst rows);
  merge_into_artifact (List.map snd rows);
  note
    "expected: all families degrade gracefully as machines churn; the \
     adaptive policy (suu-i-alg) degrades slowest, the \
     static commitments (suu-fixed pinning, suu-imp schedule) pay the \
     largest penalty at high rates."
