(** Trial-range planning — pure arithmetic, unit-tested exhaustively.

    This module holds only the client-side helpers of the ["range"]
    protocol: a client that wants one estimate fanned out over several
    servers cuts it into word-aligned ranges with {!plan} and
    {!auto_chunk}, sends one {!Suu_service.Request.sub_line} per range,
    and merges the partial answers with {!Merge}. The coordinator routes
    every request whole and uses none of it; its re-dispatch pacing is
    {!Suu_service.Fault.backoff_s}. *)

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
