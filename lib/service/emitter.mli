(** Ordered response emission, shared by [suu serve] and
    [suu coordinator].

    Requests are numbered in arrival order and finish out of order; their
    responses must not. A response parks under its sequence number until
    every earlier one has been sent, then flushes with any later ones
    already waiting. Parked responses are thunks, rendered at the moment
    they are next in line — a [stats] response uses this to snapshot
    counters consistent with the stream above it. All operations are
    safe across domains; the sink is only ever called under the
    emitter's lock, one line at a time. *)

type t

val create : (string -> unit) -> t
(** An emitter whose next expected sequence number is 0, writing each
    line to the given sink. *)

val emit_lazy : t -> int -> (unit -> string) -> unit
(** [emit_lazy em seq make] parks [make] under [seq] and flushes every
    line that is now in order. A [seq] already emitted is a stale
    duplicate (a worker that crashed after its response left) and is
    dropped. *)

val emit : t -> int -> string -> unit
(** [emit em seq line] is [emit_lazy em seq (fun () -> line)]. *)
