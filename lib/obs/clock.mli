(** Monotonic clock (the only timestamp source in the telemetry core).

    Spans, latency histograms and the serving layer's deadlines all read
    this clock, so none of them can be torn by NTP steps or manual
    adjustment of the civil clock. *)

external now_ns : unit -> float = "suu_obs_clock_now_ns"
(** Monotonic nanoseconds since an arbitrary origin. Only differences
    are meaningful. *)

val now_ms : unit -> float
(** [now_ns] scaled to milliseconds. *)
