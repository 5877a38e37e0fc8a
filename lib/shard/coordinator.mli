(** The sharding coordinator: one process speaking the service's
    line-JSON protocol on its transport, fronting a fleet of worker
    shards (each an ordinary {!Suu_service.Service} over its own pipe
    or socket).

    {2 Routing}

    Whole requests are routed by consistent hashing on the request's
    canonical cache key ({!Suu_service.Request.cache_key}): equal keys
    always reach the same shard, so each shard's LRU cache stays hot on
    its slice of the keyspace and the fleet's effective cache capacity
    is the {e sum} of the shards' — the capacity-scaling half of the
    sharding story. Keyless ops (info) round-robin over the live set.

    Every request travels whole: the coordinator forwards the client's
    line verbatim and passes the shard's answer back unchanged, so the
    response stream is {e byte-identical} to a single
    {!Suu_service.Service} over the same lines, up to the ["cached"]
    flag (each shard's LRU holds only its slice of the keyspace, and a
    respawned shard restarts cold) — certified by the [shard-heal]
    conformance property and the shard test suite. A line carrying a
    ["range":[lo,hi]] is forwarded like any other and answered with the
    shard's partial response; fanning one estimate out over ranges is
    left to clients ({!Dispatch}, {!Merge}). Parallelism inside one
    request belongs to the worker: [suu serve --estimate-domains] runs
    a single estimate across domains.

    {2 Failure model and self-healing}

    Worker loss surfaces as EOF on the shard's pipe (or a TCP client
    whose reconnect budget ran out), as a failed submit, or as
    [dead_after] consecutive missed heartbeats — whichever is observed
    first. The loss is routed through the {!Supervisor}: the slot is
    {e fenced} (its epoch bumped), every request in flight there is
    reclaimed by ticket and re-dispatched to survivors (up to [retries]
    times each, paced by {!Suu_service.Fault.backoff_s}), and the
    zombie's late answers — arriving after the fence — find their
    tickets gone and are discarded (counted as [fenced]). With
    [respawn_budget > 0] the supervisor then respawns the shard after a
    capped-exponential deterministically-jittered delay; the rejoined
    shard re-enters the ring at its new epoch immediately (its cache
    restarts cold, its counters at zero — the telemetry merge tolerates
    both). [respawn_budget = 0] preserves the
    degrade-only fleet: requests answer [reason:"shard_lost"]
    ([reason:"unavailable"] once no shard remains and recovery is
    impossible); while a respawn is still possible, work waits instead
    of failing. Every admitted request is answered exactly once and
    responses leave in request order — the same contract as a single
    service. Worker loss is injectable deterministically through the
    fault spec's [kill] rate ({!Suu_service.Fault.Kill}), keyed by the
    coordinator's dispatch counter.

    {2 Telemetry}

    [stats] requests are answered by the coordinator: it pulls raw
    stats from every live shard and merges them — counters summed
    ({!Suu_obs.Counters.merge_snapshots}), latency histograms merged
    bucket-wise ({!Suu_obs.Histogram.merge}) — into one response, or for
    [format:"prom"] one Prometheus exposition with the coordinator's own
    counters under [suu_coord_*], the fleet's under [suu_shard_*], and
    the supervision series: [suu_shard_respawns_total],
    [suu_coord_suspect_transitions_total],
    [suu_coord_fenced_replies_total] and the per-shard
    [suu_shard_epoch{shard="i"}] gauge. [ping] is answered locally with
    shard liveness attached. Admission records a [route] span per
    request when [tracer] is enabled. *)

type config = {
  shards : int;  (** worker shards to spawn (>= 1) *)
  replicas : int;  (** ring virtual nodes per shard *)
  retries : int;  (** re-dispatches per request after shard loss *)
  retry_backoff_ms : float;
      (** re-dispatch backoff base ({!Suu_service.Fault.backoff_s},
          capped at 50 ms) *)
  heartbeat_ms : float option;  (** ping period; [None] disables *)
  suspect_after : int;
      (** consecutive missed beats before a shard turns suspect *)
  dead_after : int;
      (** consecutive missed beats before a shard is declared dead
          (>= [suspect_after]) *)
  respawn_budget : int;
      (** respawn attempts per shard; [0] = degrade-only (PR-6
          behaviour) *)
  respawn_backoff_ms : float;
      (** respawn delay base, capped exponential with deterministic
          jitter *)
  default_trials : int;  (** when a request omits ["trials"] *)
  default_seed : int;  (** when a request omits ["seed"] *)
  default_ci_target : float option;
      (** when a request omits ["ci_target"]; [None] = exhaustive.
          Only request decoding at the coordinator sees it: forwards
          carry the client's line verbatim, so the shards apply their
          own default (the CLI passes the same one on their command
          line) *)
  fault : Suu_service.Fault.spec;  (** coordinator-side injection ([kill]) *)
  tracer : Suu_obs.Trace.t;  (** route/dispatch/merge spans *)
}

val default_config : config
(** 2 shards, 64 replicas, 2 retries at 1 ms base backoff, 100 ms
    heartbeat (suspect after 1 miss, dead after 3), respawn budget 2 at
    10 ms base backoff, 200 trials, seed 1, no [ci_target], no faults,
    tracing off. *)

type report = {
  metrics : Suu_service.Metrics.snapshot;
      (** the coordinator's own request accounting; [retries] counts
          re-dispatches after shard loss *)
  shards : int;
  shards_live : int;  (** live when shutdown (post-heal) completed *)
  forwards : int;  (** requests routed to a shard *)
  shard_deaths : int;  (** death events (a respawned shard can die again) *)
  heartbeats : int;  (** pings sent *)
  respawns : int;  (** successful respawns *)
  suspects : int;  (** healthy-to-suspect transitions *)
  fenced : int;  (** zombie answers discarded at the fence *)
}

val report_to_string : report -> string

val serve :
  config ->
  spawn:(int -> Client.t) ->
  (module Suu_service.Service.TRANSPORT) ->
  report
(** Spawn [shards] clients via [spawn] (retained by the supervisor for
    respawns), serve the transport until its input is exhausted, drain
    every outstanding response, wait for any in-flight healing to
    settle, then shut the fleet down gracefully (EOF, drain, join —
    zombies included) and report. [spawn] decides the worker flavour:
    {!Client.process} or {!Client.tcp_process} for real worker
    processes (the CLI), {!Client.local} or {!Client.tcp} for
    in-process or in-test workers. *)

val run_lines :
  config -> spawn:(int -> Client.t) -> string list -> string list * report
(** [serve] over an in-memory transport: feed request lines, collect
    response lines (in request order). For tests and benchmarks. *)
