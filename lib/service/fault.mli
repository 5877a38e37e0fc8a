(** Deterministic fault injection for the serving layer.

    The paper's machines are unreliable ([p_ij] failure probabilities);
    this module holds the serving layer to the same standard by letting
    tests, cram sessions and benchmarks inject the failures the service
    claims to survive: worker crashes, transient engine failures, wedged
    Monte-Carlo trials, a slow consumer, and slow or truncated transport
    lines.

    Injection is {e deterministic}: whether a fault fires at a given
    {!site} is a pure function of [(spec.seed, site, key)], where [key]
    identifies the event (a request's sequence number, a retry attempt,
    an input line number). Determinism is what makes chaos testable —
    the same spec over the same workload injects the same faults no
    matter how many worker domains race on it, so a test can predict
    exactly which requests crash, and `dune runtest` can exercise every
    failure path reproducibly (the CI matrix varies [SUU_FAULT_SEED] to
    sweep different fault placements over the same structural
    assertions). *)

(** Where a fault can be injected, and what firing means there:

    - [Crash]: the worker domain raises {!Injected_crash} right after
      picking the request up — an uncaught exception escaping the
      request handler, exercising supervision. Keyed by request seq.
    - [Transient]: request execution raises [Transient_failure] — a
      retryable fault class (think a flaky backend), exercising the
      retry/backoff policy. Keyed by {!attempt_key} (seq, attempt).
    - [Stall]: the first Monte-Carlo word (word 0) of an estimate
      sleeps [stall_ms] (a wedged word), exercising deadline
      enforcement mid-request. Keyed by request seq.
    - [Slow]: the transport delays delivery of an input line by
      [slow_ms]. Keyed by line number.
    - [Truncate]: the transport delivers only the first half of an
      input line (a torn read), which must surface as a structured
      parse error. Keyed by line number.
    - [Queue_delay]: a consumer sleeps [queue_ms] before popping (a
      slow worker), widening race windows. Keyed by a pop counter.
    - [Kill]: whole-process loss. The in-process service never fires
      this site itself; the sharding coordinator draws on it per
      dispatched job and SIGKILLs (or abruptly disconnects) the target
      worker process when it fires, exercising shard death, request
      re-dispatch and degraded service. Keyed by a dispatch counter.
    - [Refuse]: a TCP worker rejects an incoming connection right after
      accepting it (a refused socket), exercising the client's
      connect-retry/backoff path. Keyed by a connection counter.
    - [Tear]: a TCP worker tears the connection down abruptly instead of
      writing a response line (a torn socket mid-stream), exercising the
      client's reconnect and idempotent re-send. Keyed by the response
      line counter.
    - [Sock_stall]: a TCP worker sleeps [sock_stall_ms] before writing a
      response line (a stalled socket), exercising the client's read
      timeout. Keyed by the response line counter. *)
type site =
  | Crash
  | Transient
  | Stall
  | Slow
  | Truncate
  | Queue_delay
  | Kill
  | Refuse
  | Tear
  | Sock_stall

type spec = {
  seed : int;
  crash : float;  (** per-request probability of a worker crash *)
  transient : float;  (** per-attempt probability of a transient failure *)
  stall : float;  (** per-request probability of a stalled trial *)
  stall_ms : float;  (** stall duration *)
  slow : float;  (** per-line probability of slow transport delivery *)
  slow_ms : float;  (** transport delay *)
  truncate : float;  (** per-line probability of a truncated line *)
  queue_delay : float;  (** per-pop probability of a slow consumer *)
  queue_ms : float;  (** slow-consumer delay *)
  kill : float;  (** per-dispatch probability of killing a worker process *)
  refuse : float;  (** per-connection probability of refusing a TCP accept *)
  tear : float;  (** per-response probability of tearing the TCP socket *)
  sock_stall : float;  (** per-response probability of a stalled socket *)
  sock_stall_ms : float;  (** socket stall duration *)
}

val none : spec
(** All rates zero: no injection. The production default. *)

val is_none : spec -> bool
(** [true] iff every rate is zero (durations are ignored). *)

val of_string : ?default_seed:int -> string -> (spec, string) result
(** Parse a spec from a comma-separated [key=value] list, e.g.
    ["seed=7,crash=0.01,transient=0.1,stall=0.05,stall_ms=20"]. Keys are
    the record fields; omitted rates are zero, omitted durations take
    small defaults, and an omitted seed takes [default_seed]
    (default 1) — the [suu serve] CLI passes [SUU_FAULT_SEED] there.
    Unknown keys, unparseable values and out-of-range rates are
    [Error]. The empty string is {!none}. *)

val to_string : spec -> string
(** Round-trips through {!of_string}; zero rates are omitted. *)

exception Injected_crash
(** The injected worker-crash exception ([Crash] site). *)

exception Transient_failure of string
(** A retryable fault ([Transient] site). The service retries these with
    capped exponential backoff; other exceptions are not retried. *)

val fires : spec -> site -> key:int -> bool
(** Whether the fault at [site] fires for event [key] — a pure function
    of [(spec.seed, site, key)]; rate 0 never fires, rate 1 always. *)

val attempt_key : seq:int -> attempt:int -> int
(** Key for per-attempt sites: distinct attempts of one request must
    draw independent faults (else a transient fault would be permanent
    and retries could never succeed). *)

val jitter : spec -> key:int -> float
(** Deterministic uniform draw in [0, 1) for event [key] — the backoff
    jitter source, so even retry timing is reproducible under test. *)

val backoff_s :
  spec -> base_ms:float -> cap_ms:float -> key:int -> attempt:int -> float
(** The one retry-pacing rule of the system, in seconds: capped
    exponential backoff [c = min (base_ms · 2^attempt) cap_ms] times a
    deterministic jitter factor, [c · (0.5 + jitter spec ~key)], so each
    delay lands in [\[c/2, 3c/2)] and a chaos replay schedules the same
    delays. Every caller keeps its own cap and key: the service's
    transient retries and the coordinator's re-dispatches (50 ms, keyed
    by {!attempt_key}), TCP reconnects (200 ms) and shard respawns
    (500 ms). *)
