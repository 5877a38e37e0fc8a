(** TCP transport for the serving layer.

    Newline-delimited line framing over a socket — the same wire
    protocol the stdio transport speaks, so [suu serve --listen]
    answers byte-identically to [suu serve] on a pipe. This module is
    the {e listener} side only: binding, accepting, running one
    {!Service.serve} instance per connection, and injecting the
    connection-level fault sites. Any line-framed socket client can
    dial it; the coordinator's shards run over pipes. *)

val parse_addr : string -> (Unix.inet_addr * int, string) result
(** Parse ["host:port"], [":port"] or bare ["port"]. The host defaults
    to [127.0.0.1]; port [0] asks the kernel for a free port. *)

val addr_to_string : Unix.sockaddr -> string
(** Render as ["host:port"]. *)

val listen : string -> (Unix.file_descr * string, string) result
(** Bind + listen on a {!parse_addr} address. Returns the listening
    socket and the actual bound address (resolving port [0]) — the
    worker announces this so a coordinator spawning [--listen 127.0.0.1:0]
    workers learns where to connect. *)

(** {2 Line-framed connections}

    A buffered reader that reassembles newline-framed lines from socket
    reads, and a write that loops over short writes. Tests dial the
    listener with them too. *)

type conn

val conn_of_fd : Unix.file_descr -> conn

val recv_line : ?stopping:(unit -> bool) -> conn -> string option
(** Next framed line, or [None] on clean EOF (a trailing unterminated
    fragment is dropped). A CRLF terminator is stripped whole. Time is
    linear in the line's length, however many reads it spans. A read
    interrupted by a signal ([EINTR]) is retried, unless [stopping ()]
    (default: never) then holds, which reads as EOF. Other read errors,
    such as a connection reset, raise [Unix.Unix_error]. *)

val send_line : conn -> string -> unit
(** Write [line ^ "\n"], looping over short writes. Raises
    [Unix.Unix_error] (e.g. [EPIPE] with SIGPIPE ignored) on a dead
    peer. *)

val tear : conn -> unit
(** Destroy the connection abruptly (linger-0 close: RST where the
    platform supports it). Used by the [Refuse] and [Tear] fault sites.
    Idempotent; errors are swallowed. *)

val close : conn -> unit
(** Close exactly once — {!tear} and [close] after either is a no-op,
    so a recycled descriptor number is never closed twice. *)

val wake : string -> unit
(** Dial-and-drop a throwaway connection to the address: pops a
    {!serve_connections} loop blocked in accept so it re-checks its
    [stopping] flag. (Closing a listening socket from another thread
    does not wake a blocked accept on Linux.) Errors are swallowed. *)

(** {2 The worker's accept loop} *)

val serve_connections :
  ?max_conns:int ->
  ?stopping:(unit -> bool) ->
  on_report:(Service.report -> unit) ->
  Service.config ->
  Unix.file_descr ->
  unit
(** Accept connections sequentially and run one {!Service.serve}
    instance per connection, calling [on_report] after each. Faults
    from [cfg.fault]: [Refuse] (keyed by a connection counter) tears a
    connection down right after accept; [Tear] and [Sock_stall] (keyed
    by a response-line counter that continues across connections, so a
    reconnecting client cannot re-draw the schedule that tore its first
    connection) are applied on the response path. [max_conns = 0]
    (default) accepts until [stopping] turns true — flip the flag, then
    {!wake} the listener to pop the blocked accept. Once [stopping]
    holds, the open connection stops reading as well: its next read, or
    one a signal interrupts, is EOF, and its service drains and
    reports. Closes the listening socket on exit (unless it was already
    closed under the loop, which is also detected and treated as a
    stop).

    Note each connection is a fresh service instance: its stats and
    cache start empty, and [on_report] gets that connection's report. *)
