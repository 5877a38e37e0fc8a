(* EXP-FAULT: service throughput and tail latency under injected faults.

   The fault-tolerance machinery (supervision, retry, drain) must be
   cheap when idle and graceful under fire: at a 0% fault rate the
   supervised pool should match the plain service's throughput, and as
   the crash/transient rate climbs to 10% the run must complete every
   request — crashes answered, transients retried, nothing hung — with
   bounded degradation. Each rate runs the same deterministic workload
   under the same fault seed, so the readings are reproducible. *)

module Rng = Suu_prob.Rng
module Io = Suu_harness.Io
module Json = Suu_service.Json
module Fault = Suu_service.Fault
module Service = Suu_service.Service
module Metrics = Suu_service.Metrics
module W = Suu_workloads.Workload

let escaped text = String.concat "\\n" (String.split_on_char '\n' text)

let requests ~count ~trials =
  let rng = Rng.create (Bench_common.master_seed lxor 0xfa17) in
  List.init count (fun k ->
      let w =
        match k mod 3 with
        | 0 -> W.grid_batch (Rng.split rng) ~n:16 ~m:4
        | 1 -> W.grid_workflow (Rng.split rng) ~n:16 ~m:4 ~stages:4
        | _ -> W.project (Rng.split rng) ~n:12 ~m:4
      in
      Printf.sprintf
        {|{"op":"solve","id":"r%d","trials":%d,"seed":%d,"instance":"%s"}|} k
        trials (k + 1)
        (escaped (Io.to_string w.W.instance)))

let config ~fault =
  {
    Service.default_config with
    Service.workers = 4;
    queue_capacity = 4096;
    cache_capacity = 0;
    default_trials = 100;
    default_seed = 1;
    default_deadline_ms = None;
    (* Generous budget: at 10% crash rate every crash must be survivable
       or the tail of the workload drains as "unavailable". *)
    max_restarts = 1024;
    retries = 2;
    retry_backoff_ms = 0.5;
    fault;
  }

let run () =
  Bench_common.section "EXP-FAULT: serving under injected faults";
  let trials = Bench_common.trials in
  let count = 96 in
  let lines = requests ~count ~trials in
  let rates = [ 0.0; 0.01; 0.10 ] in
  let rows =
    List.map
      (fun rate ->
        let fault =
          { Fault.none with Fault.seed = 13; crash = rate; transient = rate }
        in
        let start = Unix.gettimeofday () in
        let responses, report = Service.run_lines (config ~fault) lines in
        let elapsed = Unix.gettimeofday () -. start in
        (* The headline guarantee: every request answered, none dropped,
           however many workers died along the way. *)
        assert (List.length responses = count);
        let m = report.Service.metrics in
        assert (
          m.Metrics.ok + m.Metrics.errors + m.Metrics.timeouts
          + m.Metrics.rejected
          = count);
        let p95 =
          match m.Metrics.latency with
          | Some h -> Suu_obs.Histogram.quantile h 0.95
          | None -> Float.nan
        in
        (rate, elapsed, Float.of_int count /. elapsed, p95, m))
      rates
  in
  Bench_common.table
    ~title:"faulty serving (96 requests, 4 workers, crash+transient at rate)"
    ~header:
      [
        "fault rate"; "elapsed s"; "req/s"; "p95 ms"; "ok"; "crashes";
        "restarts"; "retries";
      ]
    (List.map
       (fun (rate, elapsed, rps, p95, m) ->
         [
           Printf.sprintf "%g%%" (100. *. rate);
           Printf.sprintf "%.3f" elapsed;
           Printf.sprintf "%.0f" rps;
           Printf.sprintf "%.2f" p95;
           string_of_int m.Metrics.ok;
           string_of_int m.Metrics.worker_crashes;
           string_of_int m.Metrics.restarts;
           string_of_int m.Metrics.retries;
         ])
       rows);
  Bench_common.note
    "JSON summary: %s"
    (Json.to_string
       (Json.Obj
          [
            ("bench", Json.Str "exp_fault");
            ("requests", Json.int count);
            ("trials", Json.int trials);
            ("workers", Json.int 4);
            ( "rates",
              Json.List
                (List.map
                   (fun (rate, elapsed, rps, p95, m) ->
                     Json.Obj
                       [
                         ("fault_rate", Json.Num rate);
                         ("elapsed_s", Json.Num elapsed);
                         ("rps", Json.Num rps);
                         ("p95_ms", Json.Num p95);
                         ("ok", Json.int m.Metrics.ok);
                         ("worker_crashes", Json.int m.Metrics.worker_crashes);
                         ("restarts", Json.int m.Metrics.restarts);
                         ("retries", Json.int m.Metrics.retries);
                       ])
                   rows) );
          ]))
