module Json = Suu_service.Json
module Engine = Suu_sim.Engine
module Stats = Suu_prob.Stats
module Histogram = Suu_obs.Histogram

type part = {
  algo : string;
  lo : int;
  hi : int;
  trials : int;
      (* trials the shard actually executed — [hi - lo] unless a
         ci_target stopped the range early (older shards omit the field;
         it defaults to the full width) *)
  incomplete : int;
  samples : float array;
}

type response =
  | Part of part
  | Whole  (* ok, but not a partial — a forwarded reply, passed through *)
  | Err of { msg : string; reason : string option }
  | Expired of float option  (* status timeout, with its deadline *)
  | Garbled of string

let classify line =
  match Json.of_string line with
  | Error e -> Garbled (Printf.sprintf "unparseable response: %s" e)
  | Ok json -> (
      let str name = Option.bind (Json.member name json) Json.to_str in
      let num name = Option.bind (Json.member name json) Json.to_num in
      let int name = Option.bind (Json.member name json) Json.to_int in
      match str "status" with
      | Some "timeout" -> Expired (num "deadline_ms")
      | Some "error" ->
          Err
            {
              msg = Option.value ~default:"shard error" (str "error");
              reason = str "reason";
            }
      | Some "ok" -> (
          match Option.bind (Json.member "partial" json) Json.to_bool with
          | Some true -> (
              let samples =
                match Json.member "samples" json with
                | Some (Json.List xs) ->
                    let nums = List.filter_map Json.to_num xs in
                    if List.length nums = List.length xs then
                      Some (Array.of_list nums)
                    else None
                | _ -> None
              in
              match (str "algo", int "lo", int "hi", int "incomplete", samples)
              with
              | Some algo, Some lo, Some hi, Some incomplete, Some samples
                when 0 <= lo && lo < hi ->
                  let trials =
                    match int "trials" with
                    | Some t when 0 <= t && t <= hi - lo -> t
                    | Some _ | None -> hi - lo
                  in
                  Part { algo; lo; hi; trials; incomplete; samples }
              | _ -> Garbled "malformed partial response")
          | _ -> Whole)
      | _ -> Garbled "response without a status")

(* merge_ranges recomputes the summary from the concatenated samples;
   the per-part summaries are never read, so a placeholder keeps the
   record total without summarising (possibly empty) part samples. *)
let dummy_stats =
  {
    Stats.count = 0;
    mean = 0.;
    variance = 0.;
    stddev = 0.;
    min = 0.;
    max = 0.;
    sem = 0.;
    ci95 = 0.;
  }

let estimate_of_part p =
  {
    Engine.stats = dummy_stats;
    trials = p.trials;
    incomplete = p.incomplete;
    samples = p.samples;
  }

let merged_fields ~max_steps parts =
  if parts = [] then invalid_arg "Merge.merged_fields: no parts";
  let parts = List.sort (fun a b -> compare a.lo b.lo) parts in
  let e = Engine.merge_ranges ~max_steps (List.map estimate_of_part parts) in
  let p95 =
    if Array.length e.Engine.samples = 0 then 0.
    else Stats.quantile e.Engine.samples 0.95
  in
  [
    ("algo", Json.Str (List.hd parts).algo);
    ("trials", Json.int e.Engine.trials);
    ("mean", Json.Num e.Engine.stats.Stats.mean);
    ("ci95", Json.Num e.Engine.stats.Stats.ci95);
    ("p95", Json.Num p95);
    ("incomplete", Json.int e.Engine.incomplete);
  ]

(* --- raw-stats telemetry ---------------------------------------------- *)

(* The service counter fields a raw stats response carries, in the
   order the merged exposition reports them. *)
let counter_names =
  [
    "requests"; "ok"; "errors"; "timeouts"; "rejected"; "worker_crashes";
    "restarts"; "retries"; "degraded"; "cache_hits"; "cache_misses";
    "policy_cache_hits"; "policy_cache_misses";
  ]

type telemetry = {
  shards_reporting : int;
  service : (string * int) list;  (** summed worker service counters *)
  engine : (string * int) list;  (** summed worker engine counters *)
  latency : Histogram.t option;  (** merged worker ok-latency histogram *)
}

let telemetry_of_responses lines =
  let jsons =
    List.filter_map (fun l -> Result.to_option (Json.of_string l)) lines
  in
  let service_snaps =
    List.map
      (fun json ->
        List.filter_map
          (fun name ->
            Option.bind (Json.member name json) Json.to_int
            |> Option.map (fun v -> (name, v)))
          counter_names)
      jsons
  in
  let engine_snaps =
    List.map
      (fun json ->
        match Json.member "engine" json with
        | Some obj -> Suu_service.Metrics.counters_of_json obj
        | None -> [])
      jsons
  in
  let hists =
    List.filter_map
      (fun json ->
        Option.bind
          (Json.member "latency_hist" json)
          Suu_service.Metrics.hist_of_json)
      jsons
  in
  {
    shards_reporting = List.length jsons;
    service = Suu_obs.Counters.merge_snapshots service_snaps;
    engine = Suu_obs.Counters.merge_snapshots engine_snaps;
    latency = (match hists with [] -> None | hs -> Some (Histogram.merge hs));
  }
