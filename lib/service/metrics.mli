(** Service counters and latency tracking.

    One [t] is shared by the reader and all worker domains; recording is
    mutex-protected and O(1) — a few counter bumps and one histogram
    increment. Latencies land in a fixed-layout log-bucketed histogram
    ({!Suu_obs.Histogram}), so a long-lived service's metrics stay
    bounded no matter how many requests it serves, and quantiles are
    whole-run figures (not windowed) with bounded relative error
    (≤ 15% with the default layout). A {!snapshot} is taken on demand
    (the [stats] request) and on shutdown.

    Counting conventions (documented in DESIGN.md §"Serving"): [ok],
    [errors], [timeouts] and [rejected] partition the completed requests;
    [requests] is their sum. [stats] requests are counted separately in
    [stats_requests] so a stats response can report the workload without
    counting itself. Latencies are recorded for [ok] responses only and
    measured (monotonically, {!Clock}) from admission (enqueue) to
    response emission, so queueing delay is included. *)

type t

val create : unit -> t

val record_ok : t -> latency_ms:float -> unit
val record_error : t -> unit
val record_timeout : t -> unit

val record_rejected : t -> unit
(** A request refused at admission because the queue was full. *)

val record_stats_request : t -> unit

val record_worker_crash : t -> unit
(** A worker domain died on an uncaught exception; its in-flight request
    (if any) was answered with a [worker_crash] error. *)

val record_restart : t -> unit
(** The supervisor spawned a replacement worker domain. *)

val record_retry : t -> unit
(** One retry of a transiently-failed request (a request retried [k]
    times bumps this [k] times). *)

val record_degraded : t -> unit
(** A request admitted with a degraded trial count because the queue
    depth had crossed the overload watermark. *)

type snapshot = {
  requests : int;  (** ok + errors + timeouts + rejected *)
  ok : int;
  errors : int;
  timeouts : int;
  rejected : int;
  stats_requests : int;
  worker_crashes : int;  (** crashed workers (each answers as an error) *)
  restarts : int;  (** replacement domains spawned by the supervisor *)
  retries : int;  (** total transient-failure retries across requests *)
  degraded : int;  (** requests admitted with a degraded trial count *)
  latency : Suu_obs.Histogram.t option;
      (** an independent copy of the ok-latency histogram, the one
          source of every latency figure a server reports (summary,
          Prometheus buckets, raw stats); [None] until the first ok *)
}

val snapshot : t -> snapshot

val latency_summary : Suu_obs.Histogram.t -> (string * float) list
(** [min], [mean], [p50], [p95], [p99] and [max] of a latency
    histogram, in that order: [min], [mean] and [max] are exact, the
    quantiles carry the layout's relative error. The [stats] JSON and
    both servers' shutdown dumps print these. *)

val latency_line : Suu_obs.Histogram.t -> string
(** ["latency ms: min … mean … p50 … p95 … p99 … max …"], two decimals
    each, no newline: the shutdown dumps' latency line. *)

(** {2 Wire codecs}

    The raw [stats] form the coordinator pulls from every shard and
    merges. *)

val counters_to_json : (string * int) list -> Json.t
(** Named counters as one JSON object, in list order. *)

val counters_of_json : Json.t -> (string * int) list
(** The integer fields of a JSON object; anything else is skipped. *)

(** {2 Histogram wire codec}

    The raw [stats] form of a histogram, which the coordinator pulls from
    every shard and merges: the layout, the occupied buckets as
    [[k, count]] pairs, and [sum]/[min]/[max]. *)

val hist_to_json : Suu_obs.Histogram.t -> Json.t
(** Bucket counts are exact; [sum], [min] and [max] go through the float
    codec (12 significant digits — telemetry precision). *)

val hist_of_json : Json.t -> Suu_obs.Histogram.t option
(** The inverse of {!hist_to_json}; [None] for a missing or ill-typed
    field, or a layout or bucket list that {!Suu_obs.Histogram.import}
    rejects. *)
