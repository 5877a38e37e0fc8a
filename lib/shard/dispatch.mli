(** Trial-range planning and retry pacing for the coordinator — the
    pure arithmetic, kept out of the stateful dispatch loop so it can
    be unit-tested exhaustively. *)

val plan : trials:int -> chunk:int -> (int * int) list
(** Contiguous half-open ranges [(lo, hi)] of width at most [chunk]
    partitioning [\[0, trials)], in increasing order. With [chunk] a
    multiple of {!Suu_sim.Lanes.lanes_per_word} (as {!auto_chunk} and
    the coordinator's configuration guarantee) every range is a run of
    whole words of the estimate — what makes the merged estimate
    bit-identical to the unsplit run.
    @raise Invalid_argument when [trials < 1] or [chunk < 1]. *)

val auto_chunk : trials:int -> shards:int -> int
(** Default chunk width: about four chunks per shard, rounded up to
    whole words (at least one), so the job queue can rebalance around a
    slow or dying shard.
    @raise Invalid_argument when [trials < 1] or [shards < 1]. *)

val backoff_s : base_ms:float -> fault:Suu_service.Fault.spec -> key:int -> attempt:int -> float
(** Capped exponential backoff (cap 50 ms) with deterministic jitter in
    [0.5, 1] drawn from the fault spec's seed — the same discipline as
    the service's transient retries, so chaos runs reproduce. *)
