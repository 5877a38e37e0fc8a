(** Typed requests and responses, and their line-oriented wire codec.

    One request per line, one response per line, each a JSON object
    ({!Json}). Instances and plans travel inside the JSON as strings in
    the existing {!Suu_harness.Io} formats (newlines escaped), so the
    wire format is a thin envelope over serialisations the rest of the
    system already speaks.

    Request envelope fields: ["op"] (required), ["id"] (optional, echoed
    back), ["deadline_ms"] (optional per-request budget), plus per-op
    fields:
    {v
    {"op":"solve","instance":S,
     "algo":"auto|adaptive|oblivious|improved|fixed",
     "trials":K,"seed":N,"range":[lo,hi],"ci_target":W,
     "releases":[r0,...],"churn":"seed=..,rate=..,..",...}
    {"op":"estimate","instance":S,"plan":P,"trials":K,"seed":N,
     "range":[lo,hi],"ci_target":W,"releases":…,"churn":…,...}
    {"op":"info","instance":S}
    {"op":"exact","instance":S}
    {"op":"ping"}
    {"op":"stats","format":"json|prom|raw"}
    v}
    ["range"] (optional, Monte-Carlo ops only) marks a {e trial-range
    request}: run only trials [lo <= k < hi] of the seeded estimate and
    answer a partial result carrying the raw samples — the unit of work
    a client can fan out over servers and merge bit-identically
    ({!sub_line}, [Suu_shard.Merge], {!Suu_sim.Engine.merge_ranges}).
    The sharding coordinator forwards such a line whole, like any
    other. A range is a run of whole words of
    the estimate, so [lo] must be a multiple of
    {!Suu_sim.Lanes.lanes_per_word} and [hi] a multiple too or equal to
    [trials]. ["ci_target"] (optional,
    Monte-Carlo ops only, > 0) enables CI-width sequential stopping: the
    estimate may execute fewer trials once the 95% CI half-width of the
    mean makespan reaches the target
    ({!Suu_sim.Engine.estimate_makespan}).

    ["releases"] (optional, Monte-Carlo ops only) is a per-job list of
    non-negative release steps making the run an online one; its length
    must match the instance's job count. ["churn"] (optional,
    Monte-Carlo ops only) is a {!Suu_dyn.Churn.params_of_spec} spec
    string — the worker regenerates the deterministic machine up/down
    timeline from the spec and the instance's machine count, so only
    the spec travels on the wire. Both fold into the cache key
    (distinct lanes: a dynamic answer never aliases a static one) and
    re-encode canonically in range lines ({!sub_line}).

    Responses carry ["id"], ["status"] (["ok"|"error"|"timeout"]) and
    status-specific fields. *)

type algo = [ `Auto | `Adaptive | `Oblivious | `Improved | `Fixed ]

val algo_name : algo -> string

val canonical_algo :
  algo -> [ `Adaptive | `Oblivious | `Improved | `Fixed ]
(** The algorithm actually executed: [`Auto] is the practical default and
    resolves to [`Adaptive]; the named algorithms are themselves. Cache
    keys use the canonical form so "auto" and "adaptive" requests for the
    same instance share one entry — and distinct named algorithms
    ("improved" vs "adaptive") can never alias. {!sub_line} re-encodes
    the canonical form too, so a client fanning out ranges resolves
    "auto" exactly once and every range executes identically on any
    worker. *)

type op =
  | Solve of {
      algo : algo;
      trials : int;
      seed : int;
      range : (int * int) option;  (** trial range to run, if any *)
      ci_target : float option;  (** CI-width stopping target, if any *)
      releases : int array option;  (** per-job release steps, if any *)
      churn : Suu_dyn.Churn.params option;
          (** machine-churn timeline spec, if any *)
      instance : Suu_core.Instance.t;
    }
      (** Build a schedule ({!Suu_algo.Solver}) and estimate its expected
          makespan. *)
  | Estimate of {
      plan : Suu_core.Oblivious.t;
      plan_digest : string;  (** content digest of the plan text *)
      trials : int;
      seed : int;
      range : (int * int) option;  (** trial range to run, if any *)
      ci_target : float option;  (** CI-width stopping target, if any *)
      releases : int array option;  (** per-job release steps, if any *)
      churn : Suu_dyn.Churn.params option;
          (** machine-churn timeline spec, if any *)
      instance : Suu_core.Instance.t;
    }  (** Estimate the expected makespan of a client-supplied plan. *)
  | Info of Suu_core.Instance.t
      (** Classification, DAG statistics and (LP-free) lower bounds. *)
  | Exact of Suu_core.Instance.t
      (** Optimal expected makespan by Malewicz's DP (small instances). *)
  | Ping
      (** Liveness probe: answers [{"status":"ok","pong":true}]
          immediately (through the ordinary queue, so a pong also vouches
          for the worker pool). The coordinator heartbeats shards with
          these. *)
  | Stats of { format : [ `Json | `Prom | `Raw ] }
      (** Service metrics snapshot. [`Json] (the default) answers with
          structured fields; [`Prom] answers with the whole
          Prometheus-style text exposition carried as an escaped string
          in a ["prom"] field (the wire stays one JSON line per
          response); [`Raw] answers with the [`Json] fields {e plus} the
          mergeable raw material — the latency histogram snapshot
          (["latency_hist"]) and the engine counters (["engine"]) — which
          is what the coordinator pulls from each shard to build one
          merged exposition. *)

type t = { id : string option; deadline_ms : float option; op : op }

val op_kind : op -> string
(** The wire name of the operation (["solve"], ["estimate"], ["info"],
    ["exact"], ["ping"], ["stats"]) — for span attributes and log
    lines. *)

val of_line :
  default_trials:int ->
  default_seed:int ->
  ?default_ci_target:float ->
  string ->
  (t, string * string option) result
(** Decode one request line. [Error (message, id)] carries the request id
    when the envelope was intact enough to recover it, so the error
    response can still be correlated. Missing ["trials"]/["seed"] take
    the supplied defaults, and a missing ["ci_target"] takes
    [default_ci_target] (default: none — exhaustive estimates); a
    ["range"] must satisfy [0 <= lo < hi <= trials] with word-aligned
    ends (above) and an explicit
    ["ci_target"] must be positive. Lines with duplicate JSON keys are
    rejected at the parser ({!Json.of_string}). *)

val cacheable : t -> bool
(** Whether {!cache_key} is [Some _]: [solve], [estimate] and [exact]
    answers can be cached; computing this costs no digest. *)

val cache_key : t -> string option
(** Result-cache key: a content digest of the request's semantics —
    [(instance digest, op, algorithm, trials, seed)] plus the trial
    range when one is present (a partial answer must never alias the
    full one) and the [ci_target] when one is set (an early-stopped
    answer must never alias an exhaustive one) — for [solve], [estimate]
    and [exact]; [None] for the
    uncacheable ops ([info] is cheap, [ping] and [stats] are
    time-varying). Requests with equal keys are guaranteed identical
    answers by the word-seeded contract
    ({!Suu_sim.Engine.estimate_makespan_seeded}). *)

val sub_line : t -> lo:int -> hi:int -> string
(** Client-side helper for the ["range"] protocol: re-encode a
    Monte-Carlo request as the range request line for trials
    [lo <= k < hi] — same id, deadline, algorithm, trials, seed and
    [ci_target], with ["range":[lo,hi]] and the instance (and plan)
    serialised canonically via {!Suu_harness.Io}. Those round-trip
    losslessly, so the range computes over bit-identical probabilities.
    All ranges of one request re-encode the plan identically, so their
    worker-side cache keys agree no matter which server runs them.
    @raise Invalid_argument on non-Monte-Carlo ops. *)

(** {1 Response encoding} *)

val ok : id:string option -> (string * Json.t) list -> string
(** [{"id":…,"status":"ok",…fields}] — fields keep their order. *)

val error : id:string option -> ?reason:string -> string -> string
(** [{"id":…,"status":"error","error":msg}], plus a machine-readable
    ["reason"] field when one is given. The service uses
    ["worker_crash"] (the worker died mid-request), ["transient"] (a
    retryable failure outlived its retry budget), ["queue_full"] (load
    shed at admission) and ["unavailable"] (drained at shutdown after
    the worker pool's restart budget was exhausted); the coordinator
    adds ["shard_lost"] (a request's retry budget died with its
    shards); plain request errors carry no reason. *)

val timeout : id:string option -> deadline_ms:float -> string
(** [{"id":…,"status":"timeout","error":"deadline exceeded",
    "deadline_ms":…}] *)
