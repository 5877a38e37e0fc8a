(** Bounded multi-producer / multi-consumer work queue.

    The service's admission point: requests wait here between the reader
    and the worker pool. The queue is {e bounded} and {e non-blocking on
    the producer side} — when it is full, {!push} refuses instead of
    blocking, and the caller turns the refusal into a structured
    "queue full" error response. That is the backpressure policy: clients
    see load shedding immediately rather than unbounded buffering or a
    wedged reader.

    Consumers block on {!pop} until an item or shutdown arrives. All
    operations are safe across OCaml 5 domains.

    With [capacity = max_int] it is also the unbounded blocking line
    channel of the sharding layer's in-process workers. *)

type 'a t

val create : ?on_pop:(unit -> unit) -> capacity:int -> unit -> 'a t
(** [on_pop] (default: nothing) runs at every {!pop} entry, outside the
    queue lock — the fault-injection seam for simulating slow consumers
    and widening race windows in stress tests. It must not raise.

    @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Enqueue; [false] (and no effect) when the queue is full or closed. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while the queue is empty and open. [None] once the
    queue is closed {e and} drained — consumers treat it as shutdown. *)

val close : 'a t -> unit
(** Reject further [push]es and wake all blocked consumers; items already
    queued are still delivered. Idempotent. *)

val wreck : 'a t -> unit
(** {!close}, and drop every queued item: blocked and later consumers
    see [None] at once. Models abrupt loss (an in-process shard's
    channels when it is killed). Idempotent. *)

val length : 'a t -> int
(** Current depth (racy under concurrency; exact when quiescent). *)

val high_water_mark : 'a t -> int
(** Maximum depth ever reached — the service reports it as a congestion
    metric. *)
