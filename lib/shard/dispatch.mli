(** Trial-range planning and retry pacing — pure arithmetic, unit-tested
    exhaustively.

    {!plan} and {!auto_chunk} are client-side helpers for the ["range"]
    protocol: a client that wants one estimate fanned out over several
    servers cuts it into word-aligned ranges with them, sends one
    {!Suu_service.Request.sub_line} per range, and merges the partial
    answers with {!Merge}. The coordinator itself routes every request
    whole; it uses only {!backoff_s}, to pace re-dispatches after shard
    loss. *)

val plan : trials:int -> chunk:int -> (int * int) list
(** Contiguous half-open ranges [(lo, hi)] of width at most [chunk]
    partitioning [\[0, trials)], in increasing order. With [chunk] a
    multiple of {!Suu_sim.Lanes.lanes_per_word} (as {!auto_chunk}
    guarantees) every range is a run of
    whole words of the estimate — what makes the merged estimate
    bit-identical to the unsplit run.
    @raise Invalid_argument when [trials < 1] or [chunk < 1]. *)

val auto_chunk : trials:int -> shards:int -> int
(** Default chunk width: about four chunks per shard, rounded up to
    whole words (at least one), so a client's ranges can rebalance
    around a slow or dying server.
    @raise Invalid_argument when [trials < 1] or [shards < 1]. *)

val backoff_s : base_ms:float -> fault:Suu_service.Fault.spec -> key:int -> attempt:int -> float
(** Capped exponential backoff (cap 50 ms) with deterministic jitter in
    [0.5, 1] drawn from the fault spec's seed — the same discipline as
    the service's transient retries, so chaos runs reproduce. *)
