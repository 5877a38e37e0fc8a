(** The batch scheduling service: a request queue, a worker pool over
    OCaml 5 domains, an LRU result cache, and per-request deadlines.

    {2 Request lifecycle}

    The calling domain runs the {e reader}: it pulls one line at a time
    from the transport, decodes it ({!Request.of_line}) and admits it to
    a bounded {!Work_queue}. Admission failures — malformed requests,
    full queue — are answered immediately with structured error
    responses; they never kill the service and never block the reader.
    Worker domains pull requests, enforce deadlines, consult the result
    cache, execute, and emit responses. Responses are re-sequenced so
    they leave the transport {e in request order} regardless of which
    worker finishes first — clients can correlate by position as well as
    by id, and the output is deterministic for a deterministic workload.

    A [stats] response snapshots the counters at the moment it is next in
    line to be emitted, so its counts include every response that appears
    above it in the stream; responses still in flight below it may or may
    not be counted yet.

    {2 Reproducibility}

    Workers estimate makespans with
    {!Suu_sim.Engine.estimate_makespan_seeded} (range requests with
    {!Suu_sim.Engine.estimate_makespan_range}), spread over
    [estimate_domains] domains. Its word-seeded contract makes an answer
    a pure function of the request — not of worker count, estimate
    fan-out, scheduling, or cache state. A cache hit therefore returns
    byte-identical result fields to a recomputation.

    {2 Two caches}

    The {e result cache} ([cache_capacity] entries, {!Request.cache_key})
    maps a whole request — raw instance text digest, op, algorithm,
    trials, seed and the other result-shaping fields — to its answer
    fields. The {e built-policy cache} (32 entries, always on) maps
    that digest and the canonical algorithm to the
    policy an [oblivious] solve builds, the one kind that solves an LP
    (6–26 ms at n=64, m=16 on a 2-vCPU x86-64 host). A resubmitted
    instance with a new seed or trial count misses the first and hits
    the second. Policies are
    immutable and their [fresh] creates all per-run state, so every
    worker domain shares one; a failed build is not cached.

    {2 Deadlines}

    A request's budget ([deadline_ms], or the configured default) is
    measured from admission. It is checked when a worker picks the
    request up and before every Monte-Carlo word, so a pathological
    instance cannot wedge a worker beyond one word (each of its trials
    bounded by the engine's horizon). Expired requests answer
    [{"status":"timeout",…}].

    {2 Fault tolerance}

    The worker pool is {e supervised}: an exception escaping the request
    handler kills only that worker domain, which answers its in-flight
    request with [{"status":"error","reason":"worker_crash",…}] (ordered
    emission never sees a sequence hole) and is replaced by a fresh
    domain while the [max_restarts] budget lasts. Once the budget is
    spent, remaining admitted requests are answered
    [reason:"unavailable"] at shutdown — every admitted request gets
    exactly one response, no matter how the pool dies.

    Failures raised as {!Fault.Transient_failure} are {e retried} up to
    [retries] times with capped exponential backoff and deterministic
    jitter; responses that needed retries carry ["retries":k], and the
    exhausted case answers [reason:"transient"].

    Under overload — queue depth at or above [degrade_watermark] — new
    Monte-Carlo requests are admitted {e degraded}: their trial count is
    capped at [degrade_trials] and the response carries
    ["degraded":true]. Degradation sheds work before the queue fills;
    hard reject-on-full ([reason:"queue_full"]) remains the last resort.

    All of it is exercisable deterministically through [fault]
    ({!Fault.spec}): injected worker crashes, transient failures,
    stalled words, slow consumers, and slow or truncated transport
    lines, each keyed so the same spec corrupts the same requests at
    any worker count. *)

type config = {
  workers : int;  (** worker domains (>= 1) *)
  queue_capacity : int;  (** pending requests before load shedding *)
  cache_capacity : int;
      (** result-cache LRU entries; 0 disables result caching. The
          built-policy cache has a fixed size and is not affected. *)
  default_trials : int;  (** when a request omits ["trials"] *)
  default_seed : int;  (** when a request omits ["seed"] *)
  default_deadline_ms : float option;
      (** when a request omits ["deadline_ms"]; [None] = no deadline *)
  max_restarts : int;
      (** replacement worker domains over the service's lifetime; 0
          means a crashed worker is gone for good *)
  retries : int;  (** transient-failure retries per request *)
  retry_backoff_ms : float;
      (** base of the retry backoff ({!Fault.backoff_s}, capped at 50 ms):
          retry [k] waits [c = min (retry_backoff_ms * 2^k) 50] ms times a
          deterministic jitter factor in [\[0.5, 1.5)] *)
  degrade_watermark : int option;
      (** queue depth at which new Monte-Carlo requests are admitted
          degraded; [None] disables degradation *)
  degrade_trials : int;  (** trial cap for degraded admissions (>= 1) *)
  estimate_domains : int;
      (** domains {e per estimate} (>= 1), passed as the estimator's
          [~domains]: 1 runs a request's words inline in its worker;
          more fans each estimate's words out over nested domains,
          bit-identically, so responses (cached or recomputed) never
          depend on this knob *)
  default_ci_target : float option;
      (** when a request omits ["ci_target"]; [None] (the default) runs
          every estimate to its full trial count. A target enables
          CI-width sequential stopping
          ({!Suu_sim.Engine.estimate_makespan_seeded}): the response's
          ["trials"] field then reports the executed count. Part of the
          request's cache key either way. *)
  fault : Fault.spec;  (** fault injection; {!Fault.none} in production *)
  tracer : Suu_obs.Trace.t;
      (** span tracer for the request path; {!Suu_obs.Trace.disabled}
          (the default) makes every span a single boolean test. When
          enabled, each request records a ["request"] span (attrs: seq,
          id, op) with a nested ["execute"] span per attempt, from which
          [suu serve --trace-out] writes a Chrome trace-event file at
          shutdown. *)
}

val default_config : config
(** [Domain.recommended_domain_count () - 1] workers (at least 1, at
    most 8), queue 64, cache 128, 200 trials, seed 1, no deadline;
    8 restarts, 2 retries with 1 ms base backoff, degradation off,
    estimates inline ([estimate_domains = 1]), no fault injection. *)

(** What a service run reports on shutdown (and, live, via the [stats]
    request). *)
type report = {
  metrics : Metrics.snapshot;
  cache_hits : int;
  cache_misses : int;
  cache_size : int;
  policy_cache_hits : int;  (** oblivious solves that reused a built policy *)
  policy_cache_misses : int;  (** oblivious solves that built one *)
  policy_cache_size : int;
  queue_hwm : int;  (** queue depth high-water mark *)
}

val report_to_string : report -> string
(** Human-readable multi-line rendering, for the CLI's shutdown dump. *)

val report_to_prom : ?workers:int -> report -> string
(** Prometheus-style text exposition (format 0.0.4): service counters,
    result- and policy-cache counters, cache/queue gauges (plus a [suu_workers] gauge when [workers] is
    given), the full ok-latency histogram with cumulative [le] buckets,
    and the engine's process-wide counters
    ({!Suu_sim.Engine.counters} — trials run, naive steps simulated,
    kernel words, early stops). Served by the [stats] request's
    [format:"prom"] variant and by [suu serve --stats-format prom]'s
    shutdown dump. *)

(** The transport seam: the service core only ever sees a line source
    and a line sink, so a socket transport can be added without touching
    the service. [recv] is called from the reader domain only; [send] is
    called under the {!Emitter}'s lock, one call per response line. *)
module type TRANSPORT = sig
  val recv : unit -> string option
  (** Next request line, [None] at end of input. *)

  val send : string -> unit
  (** Emit one response line. *)
end

val serve : config -> (module TRANSPORT) -> report
(** Run the service until the transport's input is exhausted, then drain
    the queue, join the workers (and any supervisor-spawned
    replacements) and return the final report. Every admitted request is
    answered exactly once, even if the whole worker pool crashed. *)

val list_transport : string list -> (module TRANSPORT) * (unit -> string list)
(** An in-memory transport that serves the given request lines, paired
    with a reader of the response lines sent so far, in order. Its [send]
    takes no lock of its own: both servers only send under their
    {!Emitter}'s lock. *)

val run_lines : config -> string list -> string list * report
(** [serve] over {!list_transport}: feed request lines, collect response
    lines (in request order). For tests and benchmarks. *)
