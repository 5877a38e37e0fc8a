let word = Suu_sim.Lanes.lanes_per_word

let auto_chunk ~trials ~shards =
  if trials < 1 then invalid_arg "Dispatch.auto_chunk: trials < 1";
  if shards < 1 then invalid_arg "Dispatch.auto_chunk: shards < 1";
  (* About four chunks per shard: enough slack that a slow shard sheds
     work to the others through the job queue, without per-chunk
     overhead dominating. Chunks are whole words (ranges must start at
     word boundaries); ceiling division so the chunk count never exceeds
     4 * shards. *)
  let words = (trials + word - 1) / word in
  word * max 1 ((words + (4 * shards) - 1) / (4 * shards))

let plan ~trials ~chunk =
  if trials < 1 then invalid_arg "Dispatch.plan: trials < 1";
  if chunk < 1 then invalid_arg "Dispatch.plan: chunk < 1";
  let rec go lo acc =
    if lo >= trials then List.rev acc
    else
      let hi = min trials (lo + chunk) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []
