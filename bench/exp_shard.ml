(* EXP-SHARD: throughput of the sharded coordinator (lib/shard) vs
   shard count.

   Cache-capacity scaling. Requests route whole by consistent hashing
   on the result-cache key, so N shards hold N disjoint LRU slices —
   the fleet's effective cache is the sum. The workload cycles a
   working set of distinct heavy solves that overflows one shard's
   cache but fits two: one shard recomputes every round (a cyclic scan
   through an LRU never hits), two shards answer rounds 2..R from
   memory. This is the win that survives a single hardware thread. CI
   asserts the hit signature (168 hits at 2 shards), not the timing.

   Results: the usual table plus a BENCH_SHARD.json artifact (path
   overridable via SUU_BENCH_SHARD_JSON) for CI upload. *)

module Rng = Suu_prob.Rng
module Io = Suu_harness.Io
module Json = Suu_service.Json
module Service = Suu_service.Service
module Coordinator = Suu_shard.Coordinator
module Client = Suu_shard.Client
module W = Suu_workloads.Workload

let escaped text = String.concat "\\n" (String.split_on_char '\n' text)

(* The working set: distinct instances, hence distinct cache keys. *)
let working_set ~distinct =
  let rng = Rng.create (Bench_common.master_seed lxor 0x54a8d) in
  List.init distinct (fun k ->
      let w =
        match k mod 3 with
        | 0 -> W.grid_batch (Rng.split rng) ~n:16 ~m:4
        | 1 -> W.grid_workflow (Rng.split rng) ~n:16 ~m:4 ~stages:4
        | _ -> W.project (Rng.split rng) ~n:12 ~m:4
      in
      escaped (Io.to_string w.W.instance))

let solve ~id ~trials ~seed text =
  Printf.sprintf
    {|{"op":"solve","id":"%s","trials":%d,"seed":%d,"instance":"%s"}|} id
    trials seed text

let worker_config ~cache =
  {
    Service.default_config with
    Service.workers = 1;
    queue_capacity = 4096;
    cache_capacity = cache;
    default_trials = 100;
    default_seed = 1;
    default_deadline_ms = None;
  }

let coord_config ~shards =
  { Coordinator.default_config with Coordinator.shards; heartbeat_ms = None }

let timed cfg ~cache lines =
  let spawn i = Client.local ~id:i (worker_config ~cache) in
  let start = Unix.gettimeofday () in
  let responses, _ = Coordinator.run_lines cfg ~spawn lines in
  let elapsed = Unix.gettimeofday () -. start in
  assert (List.length responses = List.length lines);
  (elapsed, responses)

(* The fleet's summed cache counters, from the merged stats response
   (the last line of the run). *)
let fleet_cache_counts last_line =
  let get name =
    match Json.of_string last_line with
    | Ok v ->
        Option.bind (Json.member "shard" v) (fun o ->
            Option.bind (Json.member name o) Json.to_int)
        |> Option.value ~default:0
    | Error _ -> 0
  in
  (get "cache_hits", get "cache_misses")

let run () =
  Bench_common.section "EXP-SHARD: sharded coordinator scaling";
  let trials = Bench_common.trials in
  Bench_common.note "recommended_domain_count: %d"
    (Domain.recommended_domain_count ());
  (* Heavy enough per solve that recompute dwarfs per-request overhead:
     the contrast under test is cache hit vs recompute, not codec
     throughput. *)
  let distinct = 24 and rounds = 8 and cache = 16 in
  let heavy_trials = trials * 4 in
  let set = working_set ~distinct in
  let cache_lines =
    List.concat_map
      (fun r ->
        List.mapi
          (fun k text ->
            let id = Printf.sprintf "r%d-%d" r k in
            solve ~id ~trials:heavy_trials ~seed:(k + 1) text)
          set)
      (List.init rounds Fun.id)
    @ [ {|{"op":"stats","id":"z"}|} ]
  in
  let requests = distinct * rounds in
  let capacity =
    List.map
      (fun shards ->
        let elapsed, responses =
          timed (coord_config ~shards) ~cache cache_lines
        in
        let hits, misses =
          fleet_cache_counts (List.nth responses (requests))
        in
        (shards, elapsed, Float.of_int requests /. elapsed, hits, misses))
      [ 1; 2; 4 ]
  in
  let base_rps =
    match capacity with (_, _, rps, _, _) :: _ -> rps | [] -> 1.
  in
  Bench_common.table
    ~title:
      (Printf.sprintf
         "cache-capacity scaling (%d distinct %d-trial solves x %d rounds, \
          cache %d per shard)"
         distinct heavy_trials rounds cache)
    ~header:
      [ "shards"; "elapsed s"; "req/s"; "hits"; "misses"; "speedup" ]
    (List.map
       (fun (s, elapsed, rps, hits, misses) ->
         [
           string_of_int s;
           Printf.sprintf "%.3f" elapsed;
           Printf.sprintf "%.0f" rps;
           string_of_int hits;
           string_of_int misses;
           Printf.sprintf "%.2f" (rps /. base_rps);
         ])
       capacity);
  (* --- artifact --- *)
  let speedup2 =
    match capacity with
    | (_, _, r1, _, _) :: (_, _, r2, _, _) :: _ -> r2 /. r1
    | _ -> 0.
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "suu-bench-shard/2");
        ("trials", Json.int trials);
        ("heavy_trials", Json.int heavy_trials);
        ("distinct", Json.int distinct);
        ("rounds", Json.int rounds);
        ("cache_per_shard", Json.int cache);
        ( "recommended_domains",
          Json.int (Domain.recommended_domain_count ()) );
        ("unix_time", Json.Num (Unix.time ()));
        ( "capacity",
          Json.List
            (List.map
               (fun (s, elapsed, rps, hits, misses) ->
                 Json.Obj
                   [
                     ("shards", Json.int s);
                     ("elapsed_s", Json.Num elapsed);
                     ("rps", Json.Num rps);
                     ("cache_hits", Json.int hits);
                     ("cache_misses", Json.int misses);
                   ])
               capacity) );
        ("speedup_2_shards", Json.Num speedup2);
      ]
  in
  let path =
    match Sys.getenv_opt "SUU_BENCH_SHARD_JSON" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_SHARD.json"
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Bench_common.note "JSON artifact: %s (speedup at 2 shards: %.2fx)" path
    speedup2
