(** Plain-text serialisation of SUU instances.

    Format (line oriented, [#] starts a comment):
    {v
    suu 1            # magic + version
    n <jobs> m <machines>
    edges <count>
    <u> <v>          # one per edge
    probs            # then m rows of n floats, machine-major
    <p_00> ... <p_0,n-1>
    v} *)

val write : out_channel -> Suu_core.Instance.t -> unit

val read : in_channel -> Suu_core.Instance.t
(** Read the rest of the channel and parse it as {!of_string} does. *)

val save : string -> Suu_core.Instance.t -> unit
(** Write to a file path. *)

val load : string -> Suu_core.Instance.t
(** Read from a file path.
    @raise Failure on malformed input. *)

val to_string : Suu_core.Instance.t -> string

val of_string : string -> Suu_core.Instance.t
(** Parse in one pass over the text, numbers converted in place straight
    into the rows, each exactly as [float_of_string_opt] or
    [int_of_string_opt] reads its token (see {!float_of_token}). Counts
    read from the header are checked against the length of the rest of
    the text before anything of their size is allocated; a zero-job
    header may not claim more machines than the text has bytes.
    @raise Failure ["Io.read: ..."] on malformed input. *)

val float_of_token : string -> float option
(** The float converter of {!of_string}, on a whole string: the same
    answer as [float_of_string_opt], bit for bit, on every string. Text
    in [[+-]d+[.d*][(e|E)[+-]d+]] with at most 18 significant digits is
    converted exactly in place (Clinger's fast path, else Eisel-Lemire
    over a 128-bit power-of-ten table); everything else, and every case
    those cannot decide, goes to [float_of_string_opt]. *)

val digest : Suu_core.Instance.t -> string
(** Hex MD5 of a framed binary image of the instance: [n], [m], the edge
    count and the edges in {!Suu_dag.Dag.edges} order as 64-bit
    little-endian integers, then [Int64.bits_of_float] of every [p_ij]
    in machine-major order. Two instances share a digest iff they have
    the same shape, the same edge set and bit-identical probabilities,
    however their text was spelled ([0.5], [5e-1] and [0.50] agree) and
    however they were built. Used by the serving layer ({!Suu_service})
    as the instance part of result-cache keys. *)

(** {1 Oblivious schedule files}

    Computed plans can be exported and replayed later (the whole point of
    oblivious schedules is that they are decided in advance). Format:
    {v
    suu-plan 1
    m <machines>
    prefix <steps>
    <one line per step: m job ids, -1 for idle>
    cycle <steps>
    <one line per step>
    v} *)

val schedule_to_string : Suu_core.Oblivious.t -> string
val schedule_of_string : string -> Suu_core.Oblivious.t
val save_schedule : string -> Suu_core.Oblivious.t -> unit
val load_schedule : string -> Suu_core.Oblivious.t
(** @raise Failure on malformed input. *)
