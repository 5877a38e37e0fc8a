(** I/O-bound helpers as system threads of the calling domain.

    A shard reader spends its life blocked in a read, and the
    coordinator's supervision loop in a sleep; neither needs a domain of
    its own, and every extra domain brings an OCaml backup thread that
    costs CPU on each wake-up. A thread shares the caller's domain and
    gives up the runtime lock whenever it blocks. *)

type t

val spawn : (unit -> unit) -> t
(** Run [f] on a new thread, with SIGINT and SIGTERM blocked in it, so
    those signals and their OCaml handlers land on the threads that did
    not block them (the main one). A process the thread starts inherits
    the blocked mask; [suu serve] unblocks both when it installs its
    handlers. *)

val join : t -> unit
(** Wait for the thread to finish, then re-raise the exception that
    escaped [f], if any, with its backtrace — as [Domain.join] does. *)
