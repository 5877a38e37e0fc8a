(* Latency accounting is O(1) per request and bounded in memory: ok
   latencies land in a fixed-layout log-bucketed histogram
   (Suu_obs.Histogram), from which whole-run quantiles are read at
   snapshot time with bounded relative error. A long-lived service's
   metrics therefore cannot grow without bound, and a stats request
   costs O(buckets), not O(requests served). *)

module Histogram = Suu_obs.Histogram

type t = {
  lock : Mutex.t;
  mutable ok : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable rejected : int;
  mutable stats_requests : int;
  mutable worker_crashes : int;
  mutable restarts : int;
  mutable retries : int;
  mutable degraded : int;
  lat : Histogram.t;  (* all ok latencies, ms *)
}

let create () =
  {
    lock = Mutex.create ();
    ok = 0;
    errors = 0;
    timeouts = 0;
    rejected = 0;
    stats_requests = 0;
    worker_crashes = 0;
    restarts = 0;
    retries = 0;
    degraded = 0;
    (* Default layout: 1 µs .. ~2.8 h at <= 15% relative error. *)
    lat = Histogram.create ();
  }

let with_lock m f = Mutex.protect m.lock f

let record_ok m ~latency_ms =
  with_lock m (fun () ->
      m.ok <- m.ok + 1;
      Histogram.add m.lat latency_ms)

let record_error m = with_lock m (fun () -> m.errors <- m.errors + 1)
let record_timeout m = with_lock m (fun () -> m.timeouts <- m.timeouts + 1)
let record_rejected m = with_lock m (fun () -> m.rejected <- m.rejected + 1)

let record_stats_request m =
  with_lock m (fun () -> m.stats_requests <- m.stats_requests + 1)

let record_worker_crash m =
  with_lock m (fun () -> m.worker_crashes <- m.worker_crashes + 1)

let record_restart m = with_lock m (fun () -> m.restarts <- m.restarts + 1)
let record_retry m = with_lock m (fun () -> m.retries <- m.retries + 1)
let record_degraded m = with_lock m (fun () -> m.degraded <- m.degraded + 1)

type snapshot = {
  requests : int;
  ok : int;
  errors : int;
  timeouts : int;
  rejected : int;
  stats_requests : int;
  worker_crashes : int;
  restarts : int;
  retries : int;
  degraded : int;
  latency : Histogram.t option;
}

let snapshot m =
  with_lock m (fun () ->
      {
        requests = m.ok + m.errors + m.timeouts + m.rejected;
        ok = m.ok;
        errors = m.errors;
        timeouts = m.timeouts;
        rejected = m.rejected;
        stats_requests = m.stats_requests;
        worker_crashes = m.worker_crashes;
        restarts = m.restarts;
        retries = m.retries;
        degraded = m.degraded;
        latency =
          (if Histogram.count m.lat = 0 then None
           else Some (Histogram.copy m.lat));
      })

let latency_summary h =
  [
    ("min", Histogram.min_value h);
    ("mean", Histogram.mean h);
    ("p50", Histogram.quantile h 0.50);
    ("p95", Histogram.quantile h 0.95);
    ("p99", Histogram.quantile h 0.99);
    ("max", Histogram.max_value h);
  ]

let latency_line h =
  "latency ms:"
  ^ String.concat ""
      (List.map
         (fun (name, v) -> Printf.sprintf " %s %.2f" name v)
         (latency_summary h))

let counters_to_json counters =
  Json.Obj (List.map (fun (name, v) -> (name, Json.int v)) counters)

let counters_of_json = function
  | Json.Obj fields ->
      List.filter_map
        (fun (name, v) -> Option.map (fun n -> (name, n)) (Json.to_int v))
        fields
  | _ -> []

(* --- histogram wire codec ---

   Layout parameters plus the occupied buckets as [k, count] pairs.
   Bucket counts are exact; [sum]/[min]/[max] round-trip through the
   float codec (12 significant digits — telemetry precision). *)

let hist_to_json h =
  let s = Histogram.export h in
  Json.Obj
    [
      ("lo", Json.Num s.Histogram.layout_lo);
      ("growth", Json.Num s.Histogram.layout_growth);
      ("buckets", Json.int s.Histogram.layout_buckets);
      ( "counts",
        Json.List
          (List.map
             (fun (k, c) -> Json.List [ Json.int k; Json.int c ])
             s.Histogram.occupied) );
      ("sum", Json.Num s.Histogram.total_sum);
      ("min", Json.Num s.Histogram.observed_min);
      ("max", Json.Num s.Histogram.observed_max);
    ]

let hist_of_json json =
  let num name = Option.bind (Json.member name json) Json.to_num in
  let int name = Option.bind (Json.member name json) Json.to_int in
  let counts =
    match Json.member "counts" json with
    | Some (Json.List xs) ->
        let pair = function
          | Json.List [ k; c ] -> (
              match (Json.to_int k, Json.to_int c) with
              | Some k, Some c -> Some (k, c)
              | _ -> None)
          | _ -> None
        in
        let pairs = List.filter_map pair xs in
        if List.length pairs = List.length xs then Some pairs else None
    | _ -> None
  in
  match
    (num "lo", num "growth", int "buckets", counts, num "sum", num "min",
     num "max")
  with
  | ( Some layout_lo,
      Some layout_growth,
      Some layout_buckets,
      Some occupied,
      Some total_sum,
      Some observed_min,
      Some observed_max ) -> (
      match
        Histogram.import
          {
            Histogram.layout_lo;
            layout_growth;
            layout_buckets;
            occupied;
            total_sum;
            observed_min;
            observed_max;
          }
      with
      | h -> Some h
      | exception Invalid_argument _ -> None)
  | _ -> None
