(** Decoding and merging of worker responses.

    Two merge planes: {e results} — the client-side half of the
    ["range"] protocol: trial-range partial answers concatenate through
    {!Suu_sim.Engine.merge_ranges} into a response byte-identical to the
    unsplit run — and {e telemetry} — per-shard raw stats fold into one
    summed counter set and one merged latency histogram for the
    coordinator's Prometheus exposition. The coordinator uses
    {!classify} to account forwarded answers and the telemetry plane
    for [stats]; it never merges results itself, since it routes every
    request whole. *)

(** One trial-range partial answer: the raw material of a range
    request. The samples are integral makespans, so they crossed the
    JSON wire bit-exactly. *)
type part = {
  algo : string;
  lo : int;
  hi : int;
  trials : int;
      (** trials the shard actually executed — [hi - lo] unless the
          range's [ci_target] stopped it early (or the responding
          shard predates the field, which defaults to the full width) *)
  incomplete : int;
  samples : float array;
}

type response =
  | Part of part  (** [status:"ok"] with [partial:true] *)
  | Whole  (** [status:"ok"], not partial — a forwarded reply *)
  | Err of { msg : string; reason : string option }
  | Expired of float option  (** [status:"timeout"], with its deadline *)
  | Garbled of string  (** unparseable or shape-violating line *)

val classify : string -> response
(** Classify one worker response line. *)

val merged_fields :
  max_steps:int -> part list -> (string * Suu_service.Json.t) list
(** The ok-response fields ([algo], [trials], [mean], [ci95], [p95],
    [incomplete]) for the merge of [parts] (any order; sorted by [lo]
    internally). When the parts partition the request's trial range,
    the fields are byte-identical to the single-process response —
    pinned by the [split-merge] conformance property and the shard test
    suite. [max_steps] must be the engine default
    ({!Suu_sim.Engine.default_horizon} of the instance) — it only feeds
    the all-truncated fallback.
    @raise Invalid_argument on an empty part list. *)

(** Cross-shard telemetry folded from raw stats responses. *)
type telemetry = {
  shards_reporting : int;
  service : (string * int) list;  (** summed worker service counters *)
  engine : (string * int) list;  (** summed worker engine counters *)
  latency : Suu_obs.Histogram.t option;
      (** merged worker ok-latency histogram; [None] when no shard has
          recorded a latency yet *)
}

val telemetry_of_responses : string list -> telemetry
(** Fold the raw stats responses pulled from the live shards.
    Unparseable lines are skipped (a shard can die mid-pull); missing
    fields contribute zero. *)
