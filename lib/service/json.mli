(** Minimal JSON values for the service wire protocol.

    The container has no JSON library, so the serving layer carries its
    own: a small value type, a serialiser that emits everything on one
    line (the protocol is line-oriented), and a recursive-descent parser.
    Object fields keep their list order on output, so encoded responses
    are byte-deterministic — which is what lets the cram tests pin them.

    Numbers are [float]s (as in JSON itself); integral values within the
    exactly-representable range print without a decimal point, and
    non-finite values, which JSON cannot represent, print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an integer. *)

val to_string : t -> string
(** One-line serialisation; strings are escaped per RFC 8259. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error). Objects with duplicate keys are rejected — a
    line whose meaning depends on which occurrence a reader picks could
    make two processes (say, a routing coordinator and the worker it
    forwards to) disagree about the same request. [Error msg] pinpoints
    the byte offset. *)

(** {1 Accessors} — shallow, total; [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val to_str : t -> string option
val to_num : t -> float option

val to_int : t -> int option
(** [Num]s that are exactly integral. *)

val to_bool : t -> bool option
