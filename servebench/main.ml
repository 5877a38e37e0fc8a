(* Serving benchmark load generator.

     main.exe --exe PATH --workload NAME --seed N --seconds S --trace 0|1

   Spawns the [suu] binary at PATH as [suu serve] or [suu coordinator]
   (per workload), drives it closed-loop from this one process with two
   requests outstanding, checks every answer against an in-process
   reference, and prints every metric by name and unit. The last line
   of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

   [--trace 0] reports the end-to-end metrics. [--trace 1] serves for
   half the time, then replays the same lines in-process for the other
   half through each layer's public functions, with and without spans,
   and reports the per-layer metrics; the spans are written as Chrome
   trace-event JSON under servebench/out. *)

module Gen = Servebench.Gen
module Service = Suu_service.Service
module Trace = Suu_obs.Trace

let window = 2

(* The served time is split over this many fresh servers, one after
   another, so that no single process's lot (where it is placed, how
   its heap grows) sets a run's figures. *)
let segments = 3

(* Set-ups measured per run, the segments' own included. *)
let setups = 9

(* Client figures are medians over blocks of at least this many
   consecutive requests: a slow stretch of a shared machine then moves
   a block, not the run. A block's p90 keeps at least 12 samples beyond
   it. *)
let block = 120

(* --- arguments --- *)

let usage () =
  prerr_endline
    "usage: main.exe --exe PATH --workload NAME --seed N --seconds S --trace \
     0|1";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg k = match List.assoc_opt k args with Some v -> v | None -> usage ()

let int_arg k =
  match int_of_string_opt (arg k) with Some v -> v | None -> usage ()

(* --- small statistics --- *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks. *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = q *. float_of_int (n - 1) in
    let k = int_of_float r in
    if k >= n - 1 then a.(n - 1)
    else a.(k) +. ((r -. float_of_int k) *. (a.(k + 1) -. a.(k)))

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio a b = if b = 0. then 0. else a /. b

(* Throughput, p50 and p90 latency: medians of the per-block figures,
   and the block count. Each segment splits evenly into as many blocks
   as it holds [block]s (at least one), so no answer is left out. *)
let client_figures (loops : Drive.loop list) =
  let figures (l : Drive.loop) lo hi =
    let t_start =
      if lo = 0 then l.Drive.sent_ms.(0) else l.Drive.answered_ms.(lo - 1)
    in
    let lat = Array.sub (Drive.latencies l) lo (hi - lo) in
    ( 1000. *. float_of_int (hi - lo) /. (l.Drive.answered_ms.(hi - 1) -. t_start),
      percentile lat 0.5,
      percentile lat 0.9 )
  in
  let blocks =
    List.concat_map
      (fun (l : Drive.loop) ->
        let n = Array.length l.Drive.answers in
        let k = max 1 (n / block) in
        List.init k (fun b -> figures l (b * n / k) ((b + 1) * n / k)))
      loops
  in
  let pick f = median (Array.of_list (List.map f blocks)) in
  ( pick (fun (r, _, _) -> r),
    pick (fun (_, p, _) -> p),
    pick (fun (_, _, p) -> p),
    List.length blocks )

(* --- correctness --- *)

(* A cache hit may differ from a recomputation only in its "cached"
   flag, which sits in the same place in both. *)
let normalise line =
  let hit = {|"cached":true|} and miss = {|"cached":false|} in
  let h = String.length hit and n = String.length line in
  let rec find k =
    if k + h > n then line
    else if String.sub line k h = hit then
      String.sub line 0 k ^ miss ^ String.sub line (k + h) (n - k - h)
    else find (k + 1)
  in
  find 0

(* The single-process answers to lines [0, count): a [suu serve] of the
   same configuration (for the coordinator, its byte-identical
   single-process counterpart), run in chunks off the timed window. *)
let reference ~cache_capacity ~line ~count =
  let chunk = 256 in
  let cfg =
    {
      Service.default_config with
      (* Answers do not depend on the worker count (per-trial seeding);
         two workers halve the time the check takes. *)
      Service.workers = 2;
      cache_capacity;
      queue_capacity = chunk + 1;
    }
  in
  (* An answer is a function of its line alone (up to the cache flag),
     so each distinct line is computed once. *)
  let seen = Hashtbl.create 1024 and firsts = ref [] in
  let slot =
    Array.init count (fun i ->
        let d = Digest.string (line i) in
        match Hashtbl.find_opt seen d with
        | Some k -> k
        | None ->
            let k = Hashtbl.length seen in
            Hashtbl.add seen d k;
            firsts := i :: !firsts;
            k)
  in
  let firsts = Array.of_list (List.rev !firsts) in
  let unique = Array.length firsts in
  let out = Array.make unique "" in
  let rec go lo =
    if lo < unique then begin
      let k = min chunk (unique - lo) in
      let answers, _ =
        Service.run_lines cfg (List.init k (fun j -> line firsts.(lo + j)))
      in
      List.iteri (fun j a -> out.(lo + j) <- a) answers;
      go (lo + k)
    end
  in
  go 0;
  Array.map (fun k -> out.(k)) slot

(* Requests answered other than ok, or differently from the reference;
   the first few are printed. *)
let check ~expected answers =
  let failed = ref 0 in
  Array.iteri
    (fun i a ->
      let ok = Drive.status a = "ok" && normalise a = normalise expected.(i) in
      if not ok then begin
        incr failed;
        if !failed <= 3 then
          Printf.printf "mismatch at request %d:\n  served:   %s\n  expected: %s\n"
            i
            (if String.length a > 300 then String.sub a 0 300 ^ "..." else a)
            expected.(i)
      end)
    answers;
  !failed

(* --- output --- *)

let show (name, unit, v) = Printf.printf "metric %s = %.6g %s\n" name v unit

let result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 512 in
  Printf.bprintf buf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{|}
    correct attempted failed;
  List.iteri
    (fun k (name, unit, v) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf buf {|%s"%s":{"value":%.17g,"unit":"%s"}|}
        (if k = 0 then "" else ",")
        name v unit)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* --- the run --- *)

type segment = {
  loop : Drive.loop;
  before : Suu_service.Json.t;  (** raw stats after set-up *)
  after : Suu_service.Json.t;  (** raw stats after the loop *)
  setup : float;  (** seconds *)
  rss : float;  (** peak resident MB, server and shards *)
}

let main () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = arg "exe" in
  let wname = arg "workload" in
  let workload =
    match Gen.of_name wname with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" wname
          (String.concat ", " (List.map fst Gen.workloads));
        exit 2
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let traced =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "no suu binary at %s\n" exe;
    exit 2
  end;
  Printf.printf "servebench: workload=%s seed=%d seconds=%g trace=%d\n" wname
    seed seconds (Bool.to_int traced);
  Printf.printf "machine: nproc=%d ocaml=%s git=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "SERVEBENCH_GIT") ~default:"unknown");
  let gen = Gen.create workload ~seed in
  let line = Gen.line gen in
  let server_args = Gen.server_args workload in
  let cache_capacity = Gen.cache_capacity workload in
  let shards = Gen.shards workload in
  Printf.printf "server: suu %s (closed loop, %d outstanding)\n%!"
    (String.concat " " server_args) window;
  (* Set-ups of servers that serve nothing, then the served segments,
     each from its own set-up, continuing the line sequence. *)
  let extra = List.init (setups - segments) (fun _ ->
      let s, t, _ = Drive.start exe server_args in
      Drive.stop s;
      t)
  in
  let served_s = if traced then seconds /. 2. else seconds in
  let rec serve k first acc =
    if k = segments then List.rev acc
    else begin
      let s, setup, before = Drive.start exe server_args in
      let seg =
        Fun.protect
          ~finally:(fun () -> Drive.stop s)
          (fun () ->
            let loop =
              Drive.closed_loop s ~window
                ~seconds:(served_s /. float_of_int segments)
                ~line:(fun i -> line (first + i))
            in
            let after = Drive.stats s in
            { loop; before; after; setup; rss = Drive.peak_rss_mb s })
      in
      serve (k + 1) (first + Array.length seg.loop.Drive.answers) (seg :: acc)
    end
  in
  let segs = serve 0 0 [] in
  let loops = List.map (fun g -> g.loop) segs in
  let answers = Array.concat (List.map (fun (l : Drive.loop) -> l.Drive.answers) loops) in
  let lat = Array.concat (List.map Drive.latencies loops) in
  let sent = Array.length answers in
  let expected = reference ~cache_capacity ~line ~count:sent in
  let failed = check ~expected answers in
  let rate, p50, p90, blocks = client_figures loops in
  Printf.printf "requests: sent=%d ok=%d failed=%d failed_share=%g\n" sent
    (sent - failed) failed
    (ratio (float_of_int failed) (float_of_int sent));
  Printf.printf
    "latency samples: %d from %d servers in %d blocks; a block's p90 keeps a \
     tenth of its samples beyond it\n"
    sent segments blocks;
  let d path =
    List.fold_left (fun n g -> n + Drive.delta ~before:g.before ~after:g.after path) 0 segs
  in
  let cache_path k = if shards > 0 then [ "shard"; k ] else [ k ] in
  let hits = d (cache_path "cache_hits") and misses = d (cache_path "cache_misses") in
  let engine k = d [ "engine"; "engine_" ^ k ^ "_total" ] in
  let forwards = d [ "forwards" ] and splits = d [ "splits" ] and subjobs = d [ "subjobs" ] in
  Printf.printf
    "counters over the run: cache_hits=%d cache_misses=%d trials=%d \
     vector_words=%d steps_simulated=%d leapfrog_trials=%d forwards=%d \
     splits=%d subjobs=%d\n"
    hits misses (engine "trials") (engine "vector_words")
    (engine "steps_simulated") (engine "leapfrog_trials") forwards splits subjobs;
  let metrics =
    if not traced then
      [
        ("req_per_s", "1/s", rate);
        ("latency_p50_ms", "ms", p50);
        ("latency_p90_ms", "ms", p90);
        ("ok_share", "share", float_of_int (sent - failed) /. float_of_int sent);
        ("setup_s", "s", median (Array.of_list (extra @ List.map (fun g -> g.setup) segs)));
        ("peak_rss_mb", "MB", List.fold_left (fun m g -> Float.max m g.rss) 0. segs);
      ]
    else begin
      (* In-process replay of the served lines: untraced and traced
         alternately, each with its own cache or ring, until the
         remaining half of the time is used. *)
      let tracer = Trace.create ~capacity:(96 * (sent + 1)) ~enabled:true () in
      let plain = Layers.replayer ~cache_capacity ~shards in
      let spanned = Layers.replayer ~cache_capacity ~shards in
      let untraced_ms = ref 0. and traced_ms = ref 0. in
      let timed acc f =
        let t0 = Drive.now_ms () in
        ignore (f ());
        acc := !acc +. (Drive.now_ms () -. t0)
      in
      let stop_at = Drive.now_ms () +. (seconds *. 500.) in
      let replayed = ref 0 in
      while !replayed < sent && Drive.now_ms () < stop_at do
        let i = !replayed in
        let untraced () = timed untraced_ms (fun () -> plain Trace.disabled i (line i)) in
        let traced () = timed traced_ms (fun () -> spanned tracer i (line i)) in
        if i mod 2 = 0 then (untraced (); traced ())
        else (traced (); untraced ());
        incr replayed
      done;
      let r = float_of_int (max 1 !replayed) in
      let spans = Trace.spans tracer in
      if Trace.dropped tracer > 0 then
        Printf.printf "warning: %d spans dropped\n" (Trace.dropped tracer);
      let out_dir = "servebench/out" in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let trace_file =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" wname seed)
      in
      Out_channel.with_open_text trace_file (fun oc ->
          Suu_obs.Trace_event.write oc
            (Suu_obs.Trace_event.process_name ~pid:0 ("servebench replay " ^ wname)
            :: List.map (Suu_obs.Trace_event.of_span ~pid:0) spans));
      Printf.printf "trace: %d spans over %d replayed requests -> %s\n"
        (List.length spans) !replayed trace_file;
      let t = Layers.totals spans in
      let per_req k = Option.value (Hashtbl.find_opt t.Layers.ms k) ~default:0. /. r in
      let solve algo =
        match Hashtbl.find_opt t.Layers.algo_requests algo with
        | Some n -> Option.value (Hashtbl.find_opt t.Layers.ms ("solver.solve." ^ algo)) ~default:0. /. float_of_int n
        | None -> 0.
      in
      (* The layers a request passes through, each once: decode parts
         are re-calls and count only inside their parent. *)
      let covered =
        List.fold_left (fun acc k -> acc +. per_req k) 0.
          [
            "request.of_line"; "request.cache_key"; "info.compute"; "solver.solve";
            "engine.estimate"; "request.ok"; "shard.route"; "shard.sub_line";
            "shard.merge";
          ]
      in
      let client_mean = mean lat in
      let service_p50 =
        median
          (Array.of_list
             (List.map (fun g -> Drive.service_p50_ms ~before:g.before ~after:g.after) segs))
      in
      let lookups = float_of_int (hits + misses) in
      [
        ("request.of_line_ms", "ms", per_req "request.of_line");
        ("json.of_string_ms", "ms", per_req "json.of_string");
        ("io.of_string_ms", "ms", per_req "io.of_string");
        ("request.cache_key_ms", "ms", per_req "request.cache_key");
        ("request.ok_ms", "ms", per_req "request.ok");
        ("info.compute_ms", "ms", per_req "info.compute");
        ("cache.hit_ratio", "share", ratio (float_of_int hits) lookups);
        ("cache.hits", "count", float_of_int hits);
        ("cache.misses", "count", float_of_int misses);
        ("service.latency_p50_ms", "ms", service_p50);
        ("client.latency_p50_ms", "ms", p50);
        ("transport.gap_ms", "ms", p50 -. service_p50);
        ("solver.solve_ms.adaptive", "ms", solve "adaptive");
        ("solver.solve_ms.improved", "ms", solve "improved");
        ("solver.solve_ms.fixed", "ms", solve "fixed");
        ("solver.solve_ms.oblivious", "ms", solve "oblivious");
        ("engine.estimate_ms", "ms", per_req "engine.estimate");
        ("engine.trials_total", "count", float_of_int (engine "trials"));
        ("engine.vector_words_total", "count", float_of_int (engine "vector_words"));
        ("engine.steps_simulated_total", "count", float_of_int (engine "steps_simulated"));
        ("engine.leapfrog_trials_total", "count", float_of_int (engine "leapfrog_trials"));
        ("shard.route_us", "us", 1000. *. per_req "shard.route");
        ("shard.sub_line_ms", "ms", per_req "shard.sub_line");
        ("shard.merge_ms", "ms", per_req "shard.merge");
        ( "shard.subjobs_per_request", "count",
          ratio (float_of_int subjobs) (float_of_int (splits + forwards)) );
        ("shard.subjobs", "count", float_of_int subjobs);
        ("shard.splits", "count", float_of_int splits);
        ("shard.forwards", "count", float_of_int forwards);
        ("layers.traced_ms", "ms", covered);
        ("client.latency_mean_ms", "ms", client_mean);
        ("layers.coverage", "share", ratio covered client_mean);
        ("replay.requests", "count", float_of_int !replayed);
        ("replay.untraced_ms", "ms", !untraced_ms /. r);
        ("trace.overhead_share", "share", ratio (!traced_ms -. !untraced_ms) !untraced_ms);
      ]
    end
  in
  List.iter show metrics;
  result ~correct:(failed = 0) ~attempted:sent ~failed metrics;
  if failed > 0 then exit 1

(* A server that hangs, dies or answers garbage ends the run without a
   result line. *)
let () =
  try main ()
  with Drive.Failed msg ->
    Printf.eprintf "servebench: %s\n" msg;
    exit 1
