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

(* Same shape as the service's transient-retry backoff: capped
   exponential with deterministic jitter from the fault spec's seed. *)
let backoff_cap_ms = 50.

let backoff_s ~base_ms ~fault ~key ~attempt =
  let raw = base_ms *. (2. ** float_of_int attempt) in
  let jitter =
    Suu_service.Fault.jitter fault
      ~key:(Suu_service.Fault.attempt_key ~seq:key ~attempt)
  in
  Float.min raw backoff_cap_ms *. (0.5 +. (0.5 *. jitter)) /. 1000.
