(** One worker shard, seen from the coordinator.

    A client owns the line pipe to one worker process (or in-process
    worker) plus a reader thread ({!Io_thread}) and a FIFO of response
    callbacks. {!submit} pushes the callback and writes the request
    line as one atomic step, so the FIFO order matches the wire order;
    since the service answers in request order, the reader pairs each
    incoming response line with the oldest callback. Worker loss —
    however it happens: SIGKILL, crash, torn pipe — surfaces uniformly
    as EOF on the reader, which marks the client dead and drains
    {e every} outstanding callback with [None] exactly once. Recovery
    is the supervisor's job (respawn, with epoch fencing), not the
    client's: a client never reconnects. The coordinator's invariant that every
    admitted request is answered rests on that: a callback passed to a
    successful [submit] always fires, with [Some response] or with
    [None]. *)

type t

(** {2 Transports} *)

(** The raw line pipe to one worker: five operations, so subprocess
    and in-process workers are interchangeable, and tests can
    hand-craft a peer (e.g. one that never answers, or answers with
    fabricated zombie lines). [kill_peer] is abrupt loss — the reader
    must subsequently see EOF; [close_input] is graceful EOF — the
    worker drains admitted work and exits; [reap] runs after the reader
    saw EOF (waitpid / join). *)
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
(** Abrupt worker loss (SIGKILL / wrecked channels). The reader then
    drains outstanding callbacks with [None]. Idempotent. *)

val close_input : t -> unit
(** Graceful shutdown: EOF on the worker's input; the worker drains its
    queue, answers everything admitted, and exits. Idempotent. *)

val join : t -> unit
(** Wait for the reader thread and reap the worker (waitpid / domain
    join). Call after {!kill} or {!close_input}. An exception that
    escaped the reader re-raises here. *)
