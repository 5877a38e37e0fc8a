module Engine = Suu_sim.Engine
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Stats = Suu_prob.Stats
module Trace = Suu_obs.Trace
module Prom = Suu_obs.Prom

type config = {
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  default_trials : int;
  default_seed : int;
  default_deadline_ms : float option;
  max_restarts : int;
  retries : int;
  retry_backoff_ms : float;
  degrade_watermark : int option;
  degrade_trials : int;
  estimate_domains : int;
  default_ci_target : float option;
  fault : Fault.spec;
  tracer : Trace.t;
}

let default_config =
  {
    workers = max 1 (min 8 (Domain.recommended_domain_count () - 1));
    queue_capacity = 64;
    cache_capacity = 128;
    default_trials = 200;
    default_seed = 1;
    default_deadline_ms = None;
    max_restarts = 8;
    retries = 2;
    retry_backoff_ms = 1.;
    degrade_watermark = None;
    degrade_trials = 25;
    estimate_domains = 1;
    default_ci_target = None;
    fault = Fault.none;
    tracer = Trace.disabled;
  }

type report = {
  metrics : Metrics.snapshot;
  cache_hits : int;
  cache_misses : int;
  cache_size : int;
  policy_cache_hits : int;
  policy_cache_misses : int;
  policy_cache_size : int;
  queue_hwm : int;
}

let report_to_string r =
  let m = r.metrics in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d requests (ok %d, errors %d, timeouts %d, rejected %d)\n"
       m.Metrics.requests m.Metrics.ok m.Metrics.errors m.Metrics.timeouts
       m.Metrics.rejected);
  Buffer.add_string buf
    (Printf.sprintf "cache: %d hits, %d misses, %d entries\n" r.cache_hits
       r.cache_misses r.cache_size);
  (* Only a run that served an oblivious solve looks up a built
     policy, so other shutdown dumps keep their three lines. *)
  if r.policy_cache_hits + r.policy_cache_misses > 0 then
    Buffer.add_string buf
      (Printf.sprintf "policy cache: %d hits, %d misses, %d entries\n"
         r.policy_cache_hits r.policy_cache_misses r.policy_cache_size);
  Buffer.add_string buf
    (Printf.sprintf "queue depth high-water mark: %d\n" r.queue_hwm);
  (* The fault line only appears once something went wrong (or chaos was
     injected), so healthy shutdown dumps stay three lines. *)
  if
    m.Metrics.worker_crashes > 0
    || m.Metrics.restarts > 0
    || m.Metrics.retries > 0
    || m.Metrics.degraded > 0
  then
    Buffer.add_string buf
      (Printf.sprintf
         "faults: %d worker crashes, %d restarts, %d retries, %d degraded\n"
         m.Metrics.worker_crashes m.Metrics.restarts m.Metrics.retries
         m.Metrics.degraded);
  Option.iter
    (fun h -> Printf.bprintf buf "%s\n" (Metrics.latency_line h))
    m.Metrics.latency;
  Buffer.contents buf

(* Prometheus text exposition of a report: service counters, pool and
   cache gauges, the full latency histogram, and the engine's
   process-wide counters — one scrape unifies all three layers. *)
let report_to_prom ?workers r =
  let m = r.metrics in
  let c name help v = Prom.counter ~name ~help (float_of_int v) in
  let g name help v = Prom.gauge ~name ~help (float_of_int v) in
  [
    c "suu_requests_total"
      "Completed requests (ok + errors + timeouts + rejected)."
      m.Metrics.requests;
    c "suu_requests_ok_total" "Requests answered ok." m.Metrics.ok;
    c "suu_requests_error_total" "Requests answered with an error."
      m.Metrics.errors;
    c "suu_requests_timeout_total" "Requests that exceeded their deadline."
      m.Metrics.timeouts;
    c "suu_requests_rejected_total" "Requests shed at admission (queue full)."
      m.Metrics.rejected;
    c "suu_stats_requests_total" "Stats requests (counted apart)."
      m.Metrics.stats_requests;
    c "suu_worker_crashes_total" "Worker domains that died mid-request."
      m.Metrics.worker_crashes;
    c "suu_worker_restarts_total" "Replacement worker domains spawned."
      m.Metrics.restarts;
    c "suu_retries_total" "Transient-failure retries." m.Metrics.retries;
    c "suu_degraded_total" "Requests admitted with a degraded trial count."
      m.Metrics.degraded;
    c "suu_cache_hits_total" "Result-cache hits." r.cache_hits;
    c "suu_cache_misses_total" "Result-cache misses." r.cache_misses;
    g "suu_cache_entries" "Result-cache entries currently held." r.cache_size;
    c "suu_policy_cache_hits_total" "Built-policy cache hits."
      r.policy_cache_hits;
    c "suu_policy_cache_misses_total" "Built-policy cache misses."
      r.policy_cache_misses;
    g "suu_policy_cache_entries" "Built policies currently held."
      r.policy_cache_size;
    g "suu_queue_high_water_mark" "Deepest the request queue has been."
      r.queue_hwm;
  ]
  @ (match workers with
    | None -> []
    | Some w -> [ g "suu_workers" "Configured worker domains." w ])
  @ (match m.Metrics.latency with
    | None -> []
    | Some h ->
        [
          Prom.histogram ~name:"suu_request_latency_ms"
            ~help:
              "Ok-response latency, admission to emission, milliseconds."
            h;
        ])
  @ List.map
      (fun (name, v) ->
        c ("suu_" ^ name) "Engine counter (process-wide, all callers)." v)
      (Suu_obs.Counters.snapshot Engine.counters)
  |> Prom.render

module type TRANSPORT = sig
  val recv : unit -> string option
  val send : string -> unit
end

(* Chaos at the transport seam: slow delivery and torn (truncated)
   lines, keyed by line number so a given workload is corrupted the
   same way on every run. [recv] is reader-domain-only, so the line
   counter needs no lock. *)
let wrap_transport fault (module T : TRANSPORT) : (module TRANSPORT) =
  if fault.Fault.slow = 0. && fault.Fault.truncate = 0. then (module T)
  else
    (module struct
      let lines = ref 0

      let recv () =
        match T.recv () with
        | None -> None
        | Some line ->
            let k = !lines in
            incr lines;
            if Fault.fires fault Fault.Slow ~key:k then
              Unix.sleepf (fault.Fault.slow_ms /. 1000.);
            if
              Fault.fires fault Fault.Truncate ~key:k
              && String.length line > 1
            then Some (String.sub line 0 (String.length line / 2))
            else Some line

      let send = T.send
    end)

(* --- request execution --- *)

exception Failed of string

let failed fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

(* Monotonic: deadlines and latencies must not move with the civil
   clock (NTP steps, manual adjustment). *)
let now_ms = Suu_obs.Clock.now_ms

(* [domains = 1] runs the words inline in the worker; more than one
   fans each estimate out over nested domains. Either way the word-seeded
   contract makes the answer — summary and sample order alike — a pure
   function of the request, so changing [domains] never changes a cached
   or recomputed response. *)
let estimate_fields ~domains ~policy ~trials ~seed ~range ~ci_target ~releases
    ~churn ~stop ~on_word instance =
  (* The wire carries the churn spec, not the timeline: regenerate it
     here against this instance's machine count, deterministically, so
     every worker (and every range of a split request) simulates
     the identical environment. *)
  let availability =
    Option.map
      (fun p -> Suu_dyn.Churn.generate ~m:(Instance.m instance) p)
      churn
  in
  match range with
  | Some (lo, hi) ->
      (* A trial-range request answers raw material, not a summary: the
         client concatenates the per-range samples (integral
         floats, so they cross the JSON wire bit-exactly) and recomputes
         the summary over the merged vector — identical to a
         single-process run of the full request. ["trials"] reports the
         executed count, which a [ci_target] can cut below [hi - lo]. *)
      let e =
        Engine.estimate_makespan_range ?releases ?availability ?ci_target
          ~domains ~stop ~on_word ~seed ~lo ~hi instance policy
      in
      [
        ("algo", Json.Str policy.Policy.name);
        ("partial", Json.Bool true);
        ("lo", Json.int lo);
        ("hi", Json.int hi);
        ("trials", Json.int e.Engine.trials);
        ("incomplete", Json.int e.Engine.incomplete);
        ( "samples",
          Json.List
            (Array.to_list (Array.map (fun s -> Json.Num s) e.Engine.samples))
        );
      ]
  | None ->
      let e =
        Engine.estimate_makespan_seeded ?releases ?availability ?ci_target
          ~domains ~stop ~on_word ~trials ~seed instance policy
      in
      let p95 =
        if Array.length e.Engine.samples = 0 then 0.
        else Stats.quantile e.Engine.samples 0.95
      in
      [
        ("algo", Json.Str policy.Policy.name);
        ("trials", Json.int e.Engine.trials);
        ("mean", Json.Num e.Engine.stats.Stats.mean);
        ("ci95", Json.Num e.Engine.stats.Stats.ci95);
        ("p95", Json.Num p95);
        ("incomplete", Json.int e.Engine.incomplete);
      ]

let info_fields instance =
  let dag = Instance.dag instance in
  (* LP-free bounds keep [info] cheap enough for the serving path. *)
  let bounds = Suu_algo.Bounds.compute ~with_lp:false instance in
  [
    ( "class",
      Json.Str (Suu_dag.Classify.to_string (Suu_dag.Classify.classify dag)) );
    ("jobs", Json.int (Instance.n instance));
    ("machines", Json.int (Instance.m instance));
    ("edges", Json.int (Suu_dag.Dag.edge_count dag));
    ("width", Json.int (Suu_dag.Dag.width dag));
    ("critical_path", Json.int (Suu_dag.Dag.longest_path dag));
    ( "bounds",
      Json.Obj
        [
          ("rate", Json.Num bounds.Suu_algo.Bounds.rate);
          ("capacity", Json.Num bounds.Suu_algo.Bounds.capacity);
          ("critical_path", Json.Num bounds.Suu_algo.Bounds.critical_path);
          ("best", Json.Num (Suu_algo.Bounds.best bounds));
        ] );
  ]

(* Built oblivious policies, shared by every worker domain. A policy is
   an immutable value whose [fresh] creates all per-run state, so one
   build serves any number of concurrent estimates; concurrent misses on
   one key may each build, and the last to finish stays. 32 entries of
   at most ~10 KB each at n=64, m=16. *)
let policy_cache_capacity = 32

let build_policy ~policies ~kind instance =
  let build () =
    try Suu_algo.Solver.solve ~kind instance with
    | Suu_algo.Solver.Unsupported msg -> failed "unsupported: %s" msg
    | Suu_algo.Lp_relax.Lp_failure msg -> failed "lp: %s" msg
    | Suu_algo.Accum.Too_long msg | Suu_algo.Fixed_assignment.Too_expensive msg
      ->
        failed "too expensive: %s" msg
  in
  match kind with
  | `Oblivious -> (
      (* The one LP-backed kind: solving (LP1)/(LP2) makes its build
         10-40x a 200-trial estimate at n=64, m=16. The other kinds
         build in about the time a digest and its key's garbage would
         cost them. Failures raise before [add], so they are never
         cached. *)
      let key = Suu_harness.Io.digest instance ^ "/oblivious" in
      match Cache.find policies key with
      | Some policy -> policy
      | None ->
          let policy = build () in
          Cache.add policies key policy;
          policy)
  | `Adaptive | `Improved | `Fixed -> build ()

let execute op ~policies ~domains ~stop ~on_word =
  match op with
  | Request.Solve
      { algo; trials; seed; range; ci_target; releases; churn; instance } ->
      (* [auto] is the practical default (the adaptive greedy policy);
         the paper's guaranteed oblivious column is an explicit opt-in.
         [canonical_algo] is also what the cache key is built from, so a
         key can never alias two different computations. *)
      let kind = Request.canonical_algo algo in
      let policy = build_policy ~policies ~kind instance in
      estimate_fields ~domains ~policy ~trials ~seed ~range ~ci_target
        ~releases ~churn ~stop ~on_word instance
  | Request.Estimate
      { plan; trials; seed; range; ci_target; releases; churn; instance; _ }
    ->
      estimate_fields ~domains
        ~policy:(Policy.of_oblivious "plan" plan)
        ~trials ~seed ~range ~ci_target ~releases ~churn ~stop ~on_word
        instance
  | Request.Ping -> [ ("pong", Json.Bool true) ]
  | Request.Info instance -> info_fields instance
  | Request.Exact instance -> (
      match Suu_algo.Malewicz.optimal instance with
      | r ->
          [
            ("topt", Json.Num r.Suu_algo.Malewicz.value);
            ("states", Json.int r.Suu_algo.Malewicz.states);
          ]
      | exception Suu_algo.Malewicz.Too_expensive msg ->
          failed "exact: too expensive: %s" msg)
  | Request.Stats _ -> assert false (* handled without execution *)

(* --- the service --- *)

type job = {
  seq : int;
  admitted_at : float;
  degraded : bool;
  req : Request.t;
}

let report_of ~metrics ~cache ~policies ~queue =
  {
    metrics = Metrics.snapshot metrics;
    cache_hits = Cache.hits cache;
    cache_misses = Cache.misses cache;
    cache_size = Cache.length cache;
    policy_cache_hits = Cache.hits policies;
    policy_cache_misses = Cache.misses policies;
    policy_cache_size = Cache.length policies;
    queue_hwm = Work_queue.high_water_mark queue;
  }

let stats_fields r =
  let m = r.metrics in
  let base =
    [
      ("requests", Json.int m.Metrics.requests);
      ("ok", Json.int m.Metrics.ok);
      ("errors", Json.int m.Metrics.errors);
      ("timeouts", Json.int m.Metrics.timeouts);
      ("rejected", Json.int m.Metrics.rejected);
      ("worker_crashes", Json.int m.Metrics.worker_crashes);
      ("restarts", Json.int m.Metrics.restarts);
      ("retries", Json.int m.Metrics.retries);
      ("degraded", Json.int m.Metrics.degraded);
      ("cache_hits", Json.int r.cache_hits);
      ("cache_misses", Json.int r.cache_misses);
      ("cache_size", Json.int r.cache_size);
      ("policy_cache_hits", Json.int r.policy_cache_hits);
      ("policy_cache_misses", Json.int r.policy_cache_misses);
      ("policy_cache_size", Json.int r.policy_cache_size);
      ("queue_hwm", Json.int r.queue_hwm);
    ]
  in
  match m.Metrics.latency with
  | None -> base
  | Some h ->
      base
      @ [
          ( "latency_ms",
            Json.Obj
              (List.map
                 (fun (name, v) -> (name, Json.Num v))
                 (Metrics.latency_summary h)) );
        ]

(* Degraded admission runs Monte-Carlo ops at a reduced trial count. The
   op is rewritten *before* the cache key is computed, so a degraded
   result is cached under the trial count actually executed and can
   never alias a full-fidelity entry. *)
let degrade_op cfg op =
  (* Range requests are never degraded: changing [trials] would move
     the range's meaning and break the client's bit-exact merge.
     Overload control belongs to the client for those. *)
  match op with
  | Request.Solve ({ range = None; _ } as r) when r.trials > cfg.degrade_trials
    ->
      Request.Solve { r with trials = cfg.degrade_trials }
  | Request.Estimate ({ range = None; _ } as r)
    when r.trials > cfg.degrade_trials ->
      Request.Estimate { r with trials = cfg.degrade_trials }
  | op -> op

let handle_job cfg ~metrics ~cache ~policies ~queue ~em job =
  let { seq; admitted_at; degraded; req } = job in
  let id = req.Request.id in
  let deadline_ms =
    match req.Request.deadline_ms with
    | Some _ as d -> d
    | None -> cfg.default_deadline_ms
  in
  let expired () =
    match deadline_ms with
    | None -> false
    | Some d -> now_ms () -. admitted_at >= d
  in
  let finish_ok ~retries fields =
    let fields =
      if retries > 0 then ("retries", Json.int retries) :: fields else fields
    in
    let fields =
      if degraded then ("degraded", Json.Bool true) :: fields else fields
    in
    Metrics.record_ok metrics ~latency_ms:(now_ms () -. admitted_at);
    Emitter.emit em seq (Request.ok ~id fields)
  in
  let finish_error ?reason msg =
    Metrics.record_error metrics;
    Emitter.emit em seq (Request.error ~id ?reason msg)
  in
  let finish_timeout () =
    Metrics.record_timeout metrics;
    Emitter.emit em seq
      (Request.timeout ~id
         ~deadline_ms:(Option.value deadline_ms ~default:0.))
  in
  match req.Request.op with
  | Request.Stats { format } ->
      (* Counted apart so a stats response describes the workload without
         counting itself; never subject to deadlines. The snapshot is
         deferred until this response is next in line to be emitted, so
         its counts include every response that appears above it in the
         stream (responses record their metrics before they emit). *)
      Metrics.record_stats_request metrics;
      Emitter.emit_lazy em seq (fun () ->
          let r = report_of ~metrics ~cache ~policies ~queue in
          match format with
          | `Json -> Request.ok ~id (stats_fields r)
          | `Prom ->
              Request.ok ~id
                [
                  ("format", Json.Str "prom");
                  ("prom", Json.Str (report_to_prom ~workers:cfg.workers r));
                ]
          | `Raw ->
              (* The mergeable form: structured counters plus the raw
                 latency histogram and engine counters, which is what
                 the coordinator pulls from each shard. *)
              let hist =
                match r.metrics.Metrics.latency with
                | None -> []
                | Some h -> [ ("latency_hist", Metrics.hist_to_json h) ]
              in
              Request.ok ~id
                (stats_fields r
                @ hist
                @ [
                    ("workers", Json.int cfg.workers);
                    ( "engine",
                      Metrics.counters_to_json
                        (Suu_obs.Counters.snapshot Engine.counters) );
                  ]))
  | _ ->
      if expired () then finish_timeout ()
      else begin
        let req =
          if degraded then { req with Request.op = degrade_op cfg req.op }
          else req
        in
        let op = req.Request.op in
        let span_attrs =
          (* Computed only when the tracer is on: attribute rendering
             must not tax the untraced hot path. *)
          if Trace.enabled cfg.tracer then
            [
              ("seq", string_of_int seq);
              ("id", Option.value id ~default:"");
              ("op", Request.op_kind op);
            ]
          else []
        in
        Trace.with_span cfg.tracer ~cat:"service" ~attrs:span_attrs "request"
        @@ fun () ->
        (* A zero-capacity cache stores nothing, so its key — an
           [Io.digest] hash over every probability of the instance — is
           never computed: the lookup still counts its miss and the
           answer still carries "cached":false. *)
        let key =
          if Cache.capacity cache > 0 then Request.cache_key req
          else if Request.cacheable req then Some ""
          else None
        in
        match Option.bind key (Cache.find cache) with
        | Some fields ->
            finish_ok ~retries:0 (("cached", Json.Bool true) :: fields)
        | None ->
            let on_word w =
              if w = 0 && Fault.fires cfg.fault Fault.Stall ~key:seq then
                Unix.sleepf (cfg.fault.Fault.stall_ms /. 1000.)
            in
            let rec attempt k =
              match
                if
                  Fault.fires cfg.fault Fault.Transient
                    ~key:(Fault.attempt_key ~seq ~attempt:k)
                then raise (Fault.Transient_failure "injected");
                Trace.with_span cfg.tracer ~cat:"service"
                  ~attrs:
                    (if Trace.enabled cfg.tracer then
                       [ ("attempt", string_of_int k) ]
                     else [])
                  "execute"
                  (fun () ->
                    execute op ~policies ~domains:cfg.estimate_domains
                      ~stop:expired ~on_word)
              with
              | fields ->
                  Option.iter (fun cache_k -> Cache.add cache cache_k fields) key;
                  let fields =
                    if key <> None then ("cached", Json.Bool false) :: fields
                    else fields
                  in
                  finish_ok ~retries:k fields
              | exception Engine.Interrupted -> finish_timeout ()
              | exception Failed msg -> finish_error msg
              | exception Fault.Transient_failure why ->
                  if k < cfg.retries && not (expired ()) then begin
                    Metrics.record_retry metrics;
                    (* Capped so a deep retry chain cannot hold a worker
                       for seconds. *)
                    Unix.sleepf
                      (Fault.backoff_s cfg.fault ~base_ms:cfg.retry_backoff_ms
                         ~cap_ms:50.
                         ~key:(Fault.attempt_key ~seq ~attempt:k)
                         ~attempt:k);
                    attempt (k + 1)
                  end
                  else
                    finish_error ~reason:"transient"
                      (Printf.sprintf
                         "transient failure (%s) after %d attempts" why (k + 1))
              (* Resource exhaustion must escape to the supervisor (a
                 worker-crash answer + restart), not masquerade as a
                 request-level internal error. *)
              | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
              | exception e ->
                  finish_error ("internal: " ^ Printexc.to_string e)
            in
            attempt 0
      end

(* --- supervision ---

   Worker domains are expendable: an exception escaping the request
   handler (injected or real) kills only the domain it happened on. The
   dying worker answers its in-flight request with a structured
   [worker_crash] error first — ordered emission never sees a sequence
   hole — and then, under the supervisor lock, spawns its own
   replacement while the restart budget lasts. Spawning happens-before
   the domain terminates, so the joiner below can never miss a
   replacement: when [Domain.join] returns for a crashed worker, its
   replacement is already on the handle list. *)

type supervisor = {
  slock : Mutex.t;
  mutable handles : unit Domain.t list;
  mutable restarts_left : int;
}

let serve cfg (module T0 : TRANSPORT) =
  if cfg.workers < 1 then invalid_arg "Service.serve: workers < 1";
  if cfg.max_restarts < 0 then invalid_arg "Service.serve: max_restarts < 0";
  if cfg.retries < 0 then invalid_arg "Service.serve: retries < 0";
  if cfg.estimate_domains < 1 then
    invalid_arg "Service.serve: estimate_domains < 1";
  if cfg.degrade_trials < 1 then
    invalid_arg "Service.serve: degrade_trials < 1";
  let fault = cfg.fault in
  let module T = (val wrap_transport fault (module T0)) in
  let metrics = Metrics.create () in
  let cache = Cache.create ~capacity:cfg.cache_capacity in
  let policies = Cache.create ~capacity:policy_cache_capacity in
  let on_pop =
    if fault.Fault.queue_delay = 0. then fun () -> ()
    else begin
      let pops = Atomic.make 0 in
      fun () ->
        let k = Atomic.fetch_and_add pops 1 in
        if Fault.fires fault Fault.Queue_delay ~key:k then
          Unix.sleepf (fault.Fault.queue_ms /. 1000.)
    end
  in
  let queue = Work_queue.create ~on_pop ~capacity:cfg.queue_capacity () in
  let em = Emitter.create T.send in
  let sup =
    {
      slock = Mutex.create ();
      handles = [];
      restarts_left = cfg.max_restarts;
    }
  in
  let crash_answer job e =
    Metrics.record_worker_crash metrics;
    Metrics.record_error metrics;
    (* Nothing may stop the dying worker from reaching the supervisor:
       if even the crash answer fails to emit, supervision (and the
       shutdown drain's no-hole guarantee) still proceed. *)
    try
      Emitter.emit em job.seq
        (Request.error ~id:job.req.Request.id ~reason:"worker_crash"
           ("worker crashed: " ^ Printexc.to_string e))
    with _ -> ()
  in
  let rec worker_main () =
    match worker_loop () with
    | () -> ()
    | exception _ ->
        Mutex.lock sup.slock;
        if sup.restarts_left > 0 then begin
          sup.restarts_left <- sup.restarts_left - 1;
          Metrics.record_restart metrics;
          sup.handles <- Domain.spawn worker_main :: sup.handles
        end;
        Mutex.unlock sup.slock
  and worker_loop () =
    match Work_queue.pop queue with
    | None -> ()
    | Some job ->
        (match
           if Fault.fires fault Fault.Crash ~key:job.seq then
             raise Fault.Injected_crash
           else handle_job cfg ~metrics ~cache ~policies ~queue ~em job
         with
        | () -> ()
        | exception e ->
            crash_answer job e;
            raise e);
        worker_loop ()
  in
  Mutex.lock sup.slock;
  sup.handles <- List.init cfg.workers (fun _ -> Domain.spawn worker_main);
  Mutex.unlock sup.slock;
  let seq = ref 0 in
  let rec read_loop () =
    match T.recv () with
    | None -> ()
    | Some line ->
        (* Blank lines are ignored rather than answered — convenient for
           hand-written request files. *)
        (if String.trim line <> "" then begin
           let s = !seq in
           incr seq;
           match
             Request.of_line ~default_trials:cfg.default_trials
               ~default_seed:cfg.default_seed
               ?default_ci_target:cfg.default_ci_target line
           with
           | Error (msg, id) ->
               Metrics.record_error metrics;
               Emitter.emit em s (Request.error ~id msg)
           | Ok req ->
               let degraded =
                 match (cfg.degrade_watermark, req.Request.op) with
                 | ( Some w,
                     ( Request.Solve { range = None; _ }
                     | Request.Estimate { range = None; _ } ) ) ->
                     Work_queue.length queue >= w
                 | _ -> false
               in
               let job = { seq = s; admitted_at = now_ms (); degraded; req } in
               if Work_queue.push queue job then begin
                 if degraded then Metrics.record_degraded metrics
               end
               else begin
                 Metrics.record_rejected metrics;
                 Emitter.emit em s
                   (Request.error ~id:req.Request.id ~reason:"queue_full"
                      (Printf.sprintf "queue full (capacity %d)"
                         cfg.queue_capacity))
               end
         end);
        read_loop ()
  in
  read_loop ();
  Work_queue.close queue;
  (* Join every worker, including replacements spawned while we were
     joining (each crash spawns before its domain terminates, so a
     re-scan that finds nothing new has seen everything). *)
  let rec join_all joined =
    Mutex.lock sup.slock;
    let current = sup.handles in
    Mutex.unlock sup.slock;
    let fresh = List.filter (fun h -> not (List.memq h joined)) current in
    if fresh <> [] then begin
      List.iter Domain.join fresh;
      join_all current
    end
  in
  join_all [];
  (* If the pool died with its restart budget exhausted, undelivered
     jobs remain: answer each so no admitted request is ever dropped
     and the ordered stream has no holes. *)
  let rec drain_unserved () =
    match Work_queue.pop queue with
    | None -> ()
    | Some job ->
        Metrics.record_error metrics;
        Emitter.emit em job.seq
          (Request.error ~id:job.req.Request.id ~reason:"unavailable"
             "service unavailable (worker pool exhausted)");
        drain_unserved ()
  in
  drain_unserved ();
  report_of ~metrics ~cache ~policies ~queue

let list_transport lines =
  let input = ref lines and out = ref [] in
  let transport =
    (module struct
      let recv () =
        match !input with
        | [] -> None
        | l :: tl ->
            input := tl;
            Some l

      (* Only the emitter sends, under its lock: no lock needed here. *)
      let send line = out := line :: !out
    end : TRANSPORT)
  in
  (transport, fun () -> List.rev !out)

let run_lines cfg lines =
  let transport, sent = list_transport lines in
  let report = serve cfg transport in
  (sent (), report)
