(** One worker shard, seen from the coordinator.

    A client owns the line pipe to one worker process (or TCP peer, or
    in-process worker) plus a reader thread ({!Io_thread}) and a FIFO
    of response callbacks. {!submit} pushes the callback and writes the request
    line as one atomic step, so the FIFO order matches the wire order;
    since the service answers in request order, the reader pairs each
    incoming response line with the oldest callback. Worker loss —
    however it happens: SIGKILL, crash, torn pipe, reconnect budget
    exhausted — surfaces uniformly as EOF on the reader, which marks
    the client dead and drains {e every} outstanding callback with
    [None] exactly once. The coordinator's invariant that every
    admitted request is answered rests on that: a callback passed to a
    successful [submit] always fires, with [Some response] or with
    [None]. *)

type t

(** {2 Transports} *)

(** The raw line pipe to one worker: five operations, so subprocess,
    TCP and in-process workers are interchangeable, and tests can
    hand-craft a peer (e.g. one that never answers, or answers with
    fabricated zombie lines). [kill_peer] is abrupt loss — the reader
    must subsequently see EOF; [close_input] is graceful EOF — the
    worker drains admitted work and exits; [reap] runs after the reader
    saw EOF (waitpid / join / close). *)
type peer = {
  send_line : string -> unit;
  recv_line : unit -> string option;
  kill_peer : unit -> unit;
  close_input : unit -> unit;
  reap : unit -> unit;
}

val custom : id:int -> peer -> t
(** Wrap a hand-built peer: spawns the reader thread over it. The seam
    every other constructor goes through. *)

val process : id:int -> prog:string -> argv:string array -> t
(** A subprocess worker: spawns [prog argv] (normally
    [suu serve --quiet …]) over a pipe pair. Sets SIGPIPE to ignore so
    writes to a killed worker raise (and are absorbed) instead of
    terminating the coordinator. *)

val tcp_peer :
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?reconnects:int ->
  ?backoff_ms:float ->
  ?fault:Suu_service.Fault.spec ->
  ?kill_pid:int ->
  ?reap_extra:(unit -> unit) ->
  addr:string ->
  unit ->
  peer
(** The connecting side of the TCP transport, as a bare peer (so tests
    can wrap it before {!custom}). Dials [addr] immediately — raising
    on failure, which callers treat as a failed spawn. On a torn,
    reset or (with [read_timeout_s > 0]) timed-out connection while
    answers are owed, the reader shuts the socket down, backs off
    ({!Suu_service.Fault.backoff_s} on base [backoff_ms], capped at
    200 ms), dials again and replays every
    unanswered request line in order — idempotent because workers
    recompute deterministically from the request line. After
    [reconnects] {e consecutive} cycles without a single delivered
    answer (every answer resets the budget) the peer reports EOF and
    the client drains. [read_timeout_s = 0.] (default) disables the read timeout;
    an idle timed-out wait (nothing owed) never burns the budget.
    [kill_pid] is SIGKILLed by [kill_peer] and reaped by [reap]. *)

val tcp :
  id:int ->
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?reconnects:int ->
  ?backoff_ms:float ->
  ?fault:Suu_service.Fault.spec ->
  addr:string ->
  unit ->
  t
(** {!custom} over {!tcp_peer}: a worker already listening at [addr]
    (a remote peer, or an in-test {!Suu_service.Tcp.serve_connections}). *)

val tcp_process :
  id:int ->
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?reconnects:int ->
  ?backoff_ms:float ->
  ?fault:Suu_service.Fault.spec ->
  prog:string ->
  argv:string array ->
  unit ->
  t
(** A subprocess worker reached over TCP: spawns [prog argv] (which
    must include [--listen 127.0.0.1:0] or similar), reads the
    worker's one-line announce ["listening HOST:PORT"] from its
    stdout, then dials. Raises [Failure] if the worker fails to
    announce or the dial fails — a failed spawn, charged to the
    supervisor's respawn budget. *)

val local : id:int -> Suu_service.Service.config -> t
(** An in-process worker: {!Suu_service.Service.serve} in its own
    domain over in-memory blocking channels. Same observable contract
    as {!process} — used by tests and benchmarks, where [kill]
    models abrupt process loss by wrecking both channels. *)

(** {2 Operations} *)

val id : t -> int

val submit : t -> string -> (string option -> unit) -> bool
(** [submit t line cb] sends one request line; [cb] fires exactly once,
    from the reader thread, with [Some response_line] or — if the worker
    is lost first — [None]. Returns [false] (and never fires [cb]) when
    the client is already dead. The callback runs on the reader thread:
    it must not block on this client. *)

val alive : t -> bool
(** [false] once the reader has seen EOF. A [true] answer is advisory —
    the worker can die between the check and a submit. *)

val kill : t -> unit
(** Abrupt worker loss (SIGKILL / wrecked channels / torn socket). The
    reader then drains outstanding callbacks with [None]. Idempotent. *)

val close_input : t -> unit
(** Graceful shutdown: EOF on the worker's input; the worker drains its
    queue, answers everything admitted, and exits. Idempotent. *)

val join : t -> unit
(** Wait for the reader thread and reap the worker (waitpid / domain
    join / socket close). Call after {!kill} or {!close_input}. An
    exception that escaped the reader re-raises here. *)
