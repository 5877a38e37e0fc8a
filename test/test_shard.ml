(* The sharding layer: consistent-hash ring, trial-range planning, and
   the coordinator's end-to-end contract — every request is routed
   whole and its answer is byte-identical to a single service's, a
   client's trial-range fan-out through the fleet merges back to the
   unsplit answer, every admitted request is answered exactly once in
   order, worker loss degrades instead of hanging, and (new in the
   self-healing fleet) killed shards respawn, rejoin the ring, and their
   late zombie answers are fenced off by epoch. The coordinator suite
   runs over in-process workers ([Client.local]); the listener side of
   TCP is tested directly in test_service. *)

module Ring = Suu_shard.Ring
module Dispatch = Suu_shard.Dispatch
module Client = Suu_shard.Client
module Coordinator = Suu_shard.Coordinator
module Service = Suu_service.Service
module Json = Suu_service.Json
module Fault = Suu_service.Fault
module Request = Suu_service.Request
module Merge = Suu_shard.Merge

(* CI sweeps this seed over the chaos tests' structural assertions. *)
let chaos_seed =
  Option.bind (Sys.getenv_opt "SUU_FAULT_SEED") int_of_string_opt
  |> Option.value ~default:1

let instance_text = "suu 1\nn 2 m 2\nedges 0\nprobs\n0.9 0.5\n0.4 0.8"
let escaped text = String.concat "\\n" (String.split_on_char '\n' text)

let solve ?(trials = 40) ?(seed = 5) ?ci_target id =
  let ci =
    match ci_target with
    | None -> ""
    | Some w -> Printf.sprintf {|"ci_target":%g,|} w
  in
  Printf.sprintf
    {|{"op":"solve","id":"%s","trials":%d,"seed":%d,%s"instance":"%s"}|} id
    trials seed ci (escaped instance_text)

let status line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "status" v) Json.to_str
  | Error _ -> None

let field name line =
  match Json.of_string line with
  | Ok v -> Json.member name v
  | Error _ -> None

(* A repeat can be a cache hit on its owning shard but a miss in a
   single service's (shared) cache — and a respawned worker restarts
   its cache cold — so the cached flag is the one field byte-identity
   comparisons may scrub. Everything else, including
   every float, must match to the byte. *)
let replace ~needle ~by line =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = needle then
      String.sub line 0 i ^ by
      ^ String.sub line (i + n) (String.length line - i - n)
    else find (i + 1)
  in
  find 0

let scrub = replace ~needle:{|"cached":true|} ~by:{|"cached":false|}

let check_byte_identical ~msg want got =
  Alcotest.(check int) (msg ^ ": one response per request")
    (List.length want) (List.length got);
  List.iteri
    (fun k (w, g) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: response %d byte-identical" msg k)
        (scrub w) (scrub g))
    (List.combine want got)

let worker_config =
  {
    Service.default_config with
    Service.workers = 1;
    queue_capacity = 64;
    cache_capacity = 16;
    default_trials = 40;
    default_seed = 5;
    default_deadline_ms = None;
    fault = Fault.none;
  }

let spawn_local i = Client.local ~id:i worker_config

let coord_config ~shards =
  {
    Coordinator.default_config with
    Coordinator.shards;
    retries = 2;
    retry_backoff_ms = 0.1;
    (* The heartbeat races run_lines' short lifetimes; tests that want
       it opt in. Likewise respawning: the base suite pins the PR-6
       degrade-only fleet, the healing tests opt in. *)
    heartbeat_ms = None;
    respawn_budget = 0;
    default_trials = 40;
    default_seed = 5;
  }

(* --- Ring --- *)

let keys = List.init 200 (fun k -> Printf.sprintf "solve:key-%d" k)

let test_ring_determinism () =
  let ring = Ring.create [ 0; 1; 2; 3 ] in
  let live _ = true in
  List.iter
    (fun key ->
      let a = Ring.route ring ~live key in
      let b = Ring.route ring ~live key in
      Alcotest.(check bool) "same key, same shard" true (a = b);
      match a with
      | Some s -> Alcotest.(check bool) "in range" true (s >= 0 && s < 4)
      | None -> Alcotest.fail "route lost a key with all shards live")
    keys;
  let ring' = Ring.create [ 0; 1; 2; 3 ] in
  List.iter
    (fun key ->
      Alcotest.(check bool) "rebuilt ring routes identically" true
        (Ring.route ring ~live key = Ring.route ring' ~live key))
    keys

let test_ring_coverage () =
  let ring = Ring.create [ 0; 1; 2; 3 ] in
  let hits = Array.make 4 0 in
  List.iter
    (fun key ->
      match Ring.route ring ~live:(fun _ -> true) key with
      | Some s -> hits.(s) <- hits.(s) + 1
      | None -> Alcotest.fail "unroutable key")
    keys;
  Array.iteri
    (fun s n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns some keys" s)
        true (n > 0))
    hits

let test_ring_death_moves_only_lost_arcs () =
  let ring = Ring.create [ 0; 1; 2; 3 ] in
  let all _ = true in
  let dead = 2 in
  let survivors s = s <> dead in
  List.iter
    (fun key ->
      let before = Ring.route ring ~live:all key in
      let after = Ring.route ring ~live:survivors key in
      match (before, after) with
      | Some b, Some a when b <> dead ->
          Alcotest.(check int) "survivor keys do not move" b a
      | Some b, Some a ->
          Alcotest.(check bool) "lost arc lands on a survivor" true
            (b = dead && a <> dead)
      | _ -> Alcotest.fail "route lost a key with survivors live")
    keys;
  Alcotest.(check (option int)) "no live shard -> None" None
    (Ring.route ring ~live:(fun _ -> false) "solve:key-0")

let test_ring_rejoin_restores_routes () =
  (* Routing consults [live] at route time, so a respawned shard
     re-enters the ring simply by answering [live] again — and because
     death moved only the dead shard's arcs, rejoining restores exactly
     the original placement. This is what makes the coordinator's
     rejoin safe: no rebuild, no resharding storm. *)
  let ring = Ring.create [ 0; 1; 2 ] in
  let dead = ref (-1) in
  let live s = s <> !dead in
  let before = List.map (fun key -> Ring.route ring ~live key) keys in
  dead := 1;
  List.iter2
    (fun key b ->
      match (Ring.route ring ~live key, b) with
      | Some a, Some b ->
          Alcotest.(check bool) "dead shard unroutable" true (a <> 1);
          if b <> 1 then Alcotest.(check int) "survivor keys stable" b a
      | _ -> Alcotest.fail "route lost a key with survivors live")
    keys before;
  dead := -1;
  List.iter2
    (fun key b ->
      Alcotest.(check (option int)) "rejoin restores the original route" b
        (Ring.route ring ~live key))
    keys before

let test_ring_invalid_args () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted invalid ring arguments"
  in
  raises (fun () -> Ring.create []);
  raises (fun () -> Ring.create ~replicas:0 [ 0 ])

(* --- Dispatch --- *)

let test_dispatch_plan_partitions () =
  List.iter
    (fun (trials, chunk) ->
      let ranges = Dispatch.plan ~trials ~chunk in
      (* Contiguous, increasing, covering [0, trials), widths in
         [1, chunk]. *)
      let rec walk at = function
        | [] -> Alcotest.(check int) "covers all trials" trials at
        | (lo, hi) :: rest ->
            Alcotest.(check int) "contiguous" at lo;
            Alcotest.(check bool) "non-empty, bounded width" true
              (hi > lo && hi - lo <= chunk);
            walk hi rest
      in
      walk 0 ranges)
    [ (40, 8); (41, 8); (1, 8); (7, 100); (100, 1) ]

let test_dispatch_auto_chunk () =
  (* Every planned range must be a run of whole Monte-Carlo words: [lo]
     word-aligned, [hi] word-aligned or the end of the estimate. *)
  let word = Suu_sim.Lanes.lanes_per_word in
  for trials = 1 to 500 do
    for shards = 1 to 8 do
      let chunk = Dispatch.auto_chunk ~trials ~shards in
      Alcotest.(check int) "chunk is whole words" 0 (chunk mod word);
      Alcotest.(check bool) "at least one word" true (chunk >= word);
      let ranges = Dispatch.plan ~trials ~chunk in
      List.iter
        (fun (lo, hi) ->
          if lo mod word <> 0 || (hi mod word <> 0 && hi <> trials) then
            Alcotest.failf "trials=%d shards=%d: range [%d,%d) not aligned"
              trials shards lo hi)
        ranges;
      (* About four chunks per shard: enough jobs to rebalance, never
         more than the estimate has words. *)
      let words = (trials + word - 1) / word in
      let jobs = List.length ranges in
      Alcotest.(check bool) "work to steal" true
        (jobs >= min words (2 * shards));
      Alcotest.(check bool) "bounded" true (jobs <= min words (4 * shards))
    done
  done

let test_dispatch_invalid_args () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted invalid dispatch arguments"
  in
  raises (fun () -> Dispatch.plan ~trials:0 ~chunk:4);
  raises (fun () -> Dispatch.plan ~trials:4 ~chunk:0);
  raises (fun () -> Dispatch.auto_chunk ~trials:0 ~shards:2);
  raises (fun () -> Dispatch.auto_chunk ~trials:4 ~shards:0)

(* --- Coordinator (parameterized over the shard transport) --- *)

let test_coordinator_matches_single_service spawn () =
  (* Small and large requests, a CI-stopped one, and repeats (cache hits
     on the owning shard): at every fleet size each request is forwarded
     whole, and the coordinator's response stream is byte-identical to
     one service's. *)
  let lines =
    [
      solve ~trials:40 ~seed:5 "a";
      solve ~trials:40 ~seed:7 "b";
      solve ~trials:8 ~seed:5 "small";
      solve ~trials:40 ~seed:5 "a2";
      solve ~trials:100 ~seed:11 "c";
      solve ~trials:1000 ~seed:13 "big";
      solve ~trials:1000 ~seed:17 ~ci_target:0.2 "ci";
    ]
  in
  let single, _ = Service.run_lines worker_config lines in
  List.iter
    (fun shards ->
      let sharded, report =
        Coordinator.run_lines (coord_config ~shards) ~spawn lines
      in
      let msg = Printf.sprintf "%d shards vs single service" shards in
      check_byte_identical ~msg single sharded;
      Alcotest.(check int) "all answered ok" (List.length lines)
        report.Coordinator.metrics.Suu_service.Metrics.ok;
      Alcotest.(check int) "every request forwarded whole" (List.length lines)
        report.Coordinator.forwards;
      Alcotest.(check int) "no shard lost" shards
        report.Coordinator.shards_live)
    [ 1; 2; 4 ]

let test_coordinator_forwards_range_lines spawn () =
  (* The "range" protocol stays a client's tool: cut a request into
     word ranges (Dispatch.plan), send each as its own line
     (Request.sub_line), and merge the partial answers (Merge). The
     coordinator forwards every range line whole, and the merge is
     byte-identical to one service's unsplit answer. *)
  let whole = solve ~trials:200 ~seed:11 "w" in
  let req =
    match Request.of_line ~default_trials:40 ~default_seed:5 whole with
    | Ok r -> r
    | Error (msg, _) -> Alcotest.fail msg
  in
  let ranges =
    Dispatch.plan ~trials:200 ~chunk:(Dispatch.auto_chunk ~trials:200 ~shards:2)
  in
  let sub_lines =
    List.map (fun (lo, hi) -> Request.sub_line req ~lo ~hi) ranges
  in
  let single, _ = Service.run_lines worker_config [ whole ] in
  let out, report =
    Coordinator.run_lines (coord_config ~shards:2) ~spawn sub_lines
  in
  Alcotest.(check int) "each range line forwarded" (List.length ranges)
    report.Coordinator.forwards;
  let parts =
    List.map
      (fun line ->
        match Merge.classify line with
        | Merge.Part p -> p
        | _ -> Alcotest.failf "range answer is not a partial: %s" line)
      out
  in
  let merged =
    Request.ok ~id:(Some "w")
      (("cached", Json.Bool false)
      :: Merge.merged_fields
           ~max_steps:
             (Suu_sim.Engine.default_horizon
                (Suu_harness.Io.of_string instance_text))
           parts)
  in
  check_byte_identical ~msg:"merged ranges vs single service" single [ merged ]

let test_coordinator_ping_and_order spawn () =
  let n = 12 in
  let lines =
    {|{"op":"ping","id":"p"}|}
    :: List.init n (fun k -> solve ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let out, _ = Coordinator.run_lines (coord_config ~shards:3) ~spawn lines in
  Alcotest.(check int) "every request answered" (n + 1) (List.length out);
  Alcotest.(check (option bool)) "pong" (Some true)
    (Option.bind (field "pong" (List.nth out 0)) Json.to_bool);
  Alcotest.(check (option int)) "ping reports shards" (Some 3)
    (Option.bind (field "shards" (List.nth out 0)) Json.to_int);
  Alcotest.(check (option int)) "ping reports liveness" (Some 3)
    (Option.bind (field "shards_live" (List.nth out 0)) Json.to_int);
  (* Responses leave in request order: the id sequence is the request
     sequence. *)
  List.iteri
    (fun k line ->
      let want = if k = 0 then "p" else Printf.sprintf "r%d" (k - 1) in
      Alcotest.(check (option string)) "in request order" (Some want)
        (Option.bind (field "id" line) Json.to_str))
    out

let test_coordinator_stats_merge spawn () =
  let lines =
    [
      solve ~trials:8 ~seed:5 "a";
      solve ~trials:8 ~seed:7 "b";
      solve ~trials:8 ~seed:9 "c";
      {|{"op":"stats","id":"st"}|};
    ]
  in
  let out, _ = Coordinator.run_lines (coord_config ~shards:2) ~spawn lines in
  let stats = List.nth out 3 in
  Alcotest.(check (option string)) "stats ok" (Some "ok") (status stats);
  (* The snapshot precedes the stats request's own completion: it
     covers the three solves, not itself. *)
  Alcotest.(check (option int)) "coordinator requests" (Some 3)
    (Option.bind (field "requests" stats) Json.to_int);
  Alcotest.(check (option int)) "all shards reporting" (Some 2)
    (Option.bind (field "shards_live" stats) Json.to_int);
  (* The shard object sums the workers' service counters: three solves
     were forwarded, however they were spread over the fleet. *)
  let shard name =
    Option.bind (field "shard" stats) (fun o ->
        Option.bind (Json.member name o) Json.to_int)
  in
  Alcotest.(check (option int)) "summed worker oks" (Some 3) (shard "ok");
  Alcotest.(check (option int)) "summed worker requests" (Some 3)
    (shard "requests");
  (* And the engine object sums the workers' engine counters. In-process
     workers share the process-global Obs registry (unlike subprocess
     workers, where each shard reports its own process), so only a lower
     bound is meaningful here: the 3 x 8 trials ran somewhere. *)
  let engine name =
    Option.bind (field "engine" stats) (fun o ->
        Option.bind (Json.member name o) Json.to_int)
  in
  Alcotest.(check bool) "summed engine trials" true
    (match engine "engine_trials_total" with
    | Some n -> n >= 24
    | None -> false)

let test_coordinator_survives_worker_loss spawn () =
  (* Chaos: kill fires per dispatch with the CI-swept seed. Whatever
     the placement, the structural contract holds — every request is
     answered exactly once, in order, each ok response is a real
     estimate and each error names a reason; nothing hangs. *)
  let n = 16 in
  let lines =
    List.init n (fun k ->
        solve ~trials:40 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let cfg =
    {
      (coord_config ~shards:3) with
      Coordinator.fault = { Fault.none with seed = chaos_seed; kill = 0.15 };
    }
  in
  let out, report = Coordinator.run_lines cfg ~spawn lines in
  Alcotest.(check int) "every request answered" n (List.length out);
  List.iteri
    (fun k line ->
      Alcotest.(check (option string)) "in request order"
        (Some (Printf.sprintf "r%d" k))
        (Option.bind (field "id" line) Json.to_str);
      match status line with
      | Some "ok" ->
          Alcotest.(check bool) "ok carries a mean" true
            (field "mean" line <> None)
      | Some "error" ->
          Alcotest.(check bool) "error names a reason" true
            (match Option.bind (field "reason" line) Json.to_str with
            | Some ("shard_lost" | "unavailable") -> true
            | _ -> false)
      | s ->
          Alcotest.failf "response %d has unexpected status %s" k
            (Option.value ~default:"<none>" s))
    out;
  let m = report.Coordinator.metrics in
  Alcotest.(check int) "accounting covers every request" n
    m.Suu_service.Metrics.requests;
  Alcotest.(check int) "ok + errors = requests" n
    (m.Suu_service.Metrics.ok + m.Suu_service.Metrics.errors);
  Alcotest.(check bool) "deaths within the fleet" true
    (report.Coordinator.shard_deaths <= 3);
  Alcotest.(check int) "no respawns in degrade-only mode" 0
    report.Coordinator.respawns

let test_coordinator_all_shards_lost spawn () =
  (* kill=1 murders the only shard on the first dispatch; with respawns
     disabled, retries are exhausted and every later request finds no
     live shard. Degraded, answered, not hung. *)
  let n = 5 in
  let lines =
    List.init n (fun k ->
        solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let cfg =
    {
      (coord_config ~shards:1) with
      Coordinator.retries = 1;
      fault = { Fault.none with seed = 1; kill = 1.0 };
    }
  in
  let out, report = Coordinator.run_lines cfg ~spawn lines in
  Alcotest.(check int) "every request answered" n (List.length out);
  List.iter
    (fun line ->
      Alcotest.(check (option string)) "all degraded to errors"
        (Some "error") (status line))
    out;
  Alcotest.(check int) "the fleet is gone" 0 report.Coordinator.shards_live;
  Alcotest.(check int) "death counted once" 1 report.Coordinator.shard_deaths

let test_coordinator_respawn_heals spawn () =
  (* The headline chaos demonstration: shards are killed mid-stream,
     the supervisor respawns each one after its backoff, the rejoined
     shards re-enter the ring — and the answer stream is byte-identical
     to a single unfaulted service. Forward-sized requests keep the
     kill exposure well inside the respawn budget. *)
  let n = 12 in
  let lines =
    List.init n (fun k ->
        solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let cfg =
    {
      (coord_config ~shards:3) with
      Coordinator.retries = 8;
      respawn_budget = 8;
      respawn_backoff_ms = 0.5;
      fault = { Fault.none with seed = chaos_seed; kill = 0.2 };
    }
  in
  let single, _ = Service.run_lines worker_config lines in
  let out, report = Coordinator.run_lines cfg ~spawn lines in
  check_byte_identical ~msg:"healed fleet vs single service" single out;
  Alcotest.(check int) "all answered ok" n
    report.Coordinator.metrics.Suu_service.Metrics.ok;
  Alcotest.(check bool) "the chaos actually fired" true
    (report.Coordinator.shard_deaths >= 1);
  Alcotest.(check int) "every death was healed"
    report.Coordinator.shard_deaths report.Coordinator.respawns;
  Alcotest.(check int) "fleet back at full strength" 3
    report.Coordinator.shards_live

(* --- Epoch fencing --- *)

(* A blocking line channel for hand-built peers. *)
module Zchan = struct
  type t = {
    m : Mutex.t;
    cv : Condition.t;
    q : string Queue.t;
    mutable closed : bool;
  }

  let create () =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      q = Queue.create ();
      closed = false;
    }

  let push t line =
    Mutex.lock t.m;
    if not t.closed then Queue.push line t.q;
    Condition.broadcast t.cv;
    Mutex.unlock t.m

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.cv t.m
    done;
    let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.m;
    r
end

let zombie_marker = {|"mean":-999|}

let test_coordinator_fences_zombie_answers () =
  (* Shard 0 is a zombie: it accepts requests, never answers — until it
     is killed, at which point every answer it owed surfaces at once,
     fabricated with a poisoned mean (modelling a SIGKILLed worker whose
     late answers were already in flight). Heartbeat escalation must
     declare it suspect then dead, fence its epoch, re-dispatch its
     in-flight work to the survivor — and the zombie flood must be
     discarded at the fence, never emitted. *)
  let out_chan = Zchan.create () in
  let received = Atomic.make 0 in
  let zombie_peer =
    {
      Client.send_line = (fun _ -> Atomic.incr received);
      recv_line = (fun () -> Zchan.pop out_chan);
      kill_peer =
        (fun () ->
          for _ = 1 to Atomic.get received do
            Zchan.push out_chan
              (Printf.sprintf {|{"status":"ok","id":"zombie",%s}|}
                 zombie_marker)
          done;
          Zchan.close out_chan);
      close_input = (fun () -> Zchan.close out_chan);
      reap = (fun () -> ());
    }
  in
  let spawn i =
    if i = 0 then Client.custom ~id:0 zombie_peer else spawn_local i
  in
  let n = 8 in
  let lines =
    List.init n (fun k ->
        solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let cfg =
    {
      (coord_config ~shards:2) with
      Coordinator.heartbeat_ms = Some 5.;
      suspect_after = 1;
      dead_after = 2;
    }
  in
  let single, _ = Service.run_lines worker_config lines in
  let out, report = Coordinator.run_lines cfg ~spawn lines in
  (* Every answer is the survivor's real computation... *)
  check_byte_identical ~msg:"survivor answers, not the zombie" single out;
  List.iter
    (fun line ->
      let rec contains i =
        i + String.length zombie_marker <= String.length line
        && (String.sub line i (String.length zombie_marker) = zombie_marker
           || contains (i + 1))
      in
      Alcotest.(check bool) "no poisoned answer leaked" false
        (String.length line >= String.length zombie_marker && contains 0))
    out;
  (* ...and the supervision saw the whole lifecycle: suspect, dead,
     fence, zombie answers discarded. *)
  Alcotest.(check bool) "suspect transition recorded" true
    (report.Coordinator.suspects >= 1);
  Alcotest.(check int) "the zombie died once" 1
    report.Coordinator.shard_deaths;
  Alcotest.(check bool) "late answers were fenced" true
    (report.Coordinator.fenced >= 1);
  Alcotest.(check int) "survivor still standing" 1
    report.Coordinator.shards_live

(* --- Client contract: every admitted callback fires exactly once --- *)

(* A callback recorder: [fire k] is the callback for request [k]; the
   result is every (k, answer) in firing order. *)
let recorder () =
  let m = Mutex.create () in
  let fired = ref [] in
  let fire k answer =
    Mutex.lock m;
    fired := (k, answer) :: !fired;
    Mutex.unlock m
  in
  let got () =
    Mutex.lock m;
    let l = List.rev !fired in
    Mutex.unlock m;
    l
  in
  (fire, got)

let test_client_graceful_close () =
  let c = spawn_local 0 in
  let fire, got = recorder () in
  let n = 5 in
  for k = 0 to n - 1 do
    Alcotest.(check bool) "live client admits" true
      (Client.submit c
         (solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "c%d" k))
         (fire k))
  done;
  Client.close_input c;
  Client.join c;
  let answers = got () in
  Alcotest.(check (list int)) "each callback once, in request order"
    (List.init n Fun.id) (List.map fst answers);
  List.iter
    (fun (k, answer) ->
      match answer with
      | None -> Alcotest.failf "request %d admitted but never answered" k
      | Some line ->
          Alcotest.(check (option string)) "answer is ok" (Some "ok")
            (status line);
          Alcotest.(check (option string)) "answer pairs with its request"
            (Some (Printf.sprintf "c%d" k))
            (Option.bind (field "id" line) Json.to_str))
    answers;
  Alcotest.(check bool) "dead after EOF" false (Client.alive c);
  let late = ref false in
  Alcotest.(check bool) "closed client refuses" false
    (Client.submit c (solve "late") (fun _ -> late := true));
  Alcotest.(check bool) "refused callback never fires" false !late

let test_client_kill_drains () =
  (* A peer that accepts lines and never answers: only the kill ends
     the reader, which must drain every pending callback with [None]. *)
  let out_chan = Zchan.create () in
  let c =
    Client.custom ~id:0
      {
        Client.send_line = (fun _ -> ());
        recv_line = (fun () -> Zchan.pop out_chan);
        kill_peer = (fun () -> Zchan.close out_chan);
        close_input = (fun () -> Zchan.close out_chan);
        reap = (fun () -> ());
      }
  in
  let fire, got = recorder () in
  for k = 0 to 2 do
    ignore (Client.submit c (solve (Printf.sprintf "k%d" k)) (fire k))
  done;
  Client.kill c;
  Client.kill c;
  Client.join c;
  Alcotest.(check (list (pair int (option string))))
    "every pending callback drained once with None, oldest first"
    [ (0, None); (1, None); (2, None) ]
    (got ());
  Alcotest.(check bool) "killed client refuses" false
    (Client.submit c (solve "late") (fire 3));
  Alcotest.(check int) "refused callback never fires" 3
    (List.length (got ()))

(* --- Fleet identity over generated lines --- *)

(* The coordinator routes on raw text and answers only what fails before
   the instance would be read; everything else is the shard's [of_line].
   So over any line file without ping and stats (whose answers differ by
   design) the fleet must answer byte for byte as one service. The
   generator mixes every algo, estimate/info/exact, malformed instances
   and plans, a bad instance beside a bad envelope field (which error
   wins), two spellings of one instance, blank lines, duplicate keys,
   non-JSON and unknown ops. *)
let respelled = "suu 1\nn 2 m 2\nedges 0\nprobs\n0.90 0.5 # same bits\n0.4 0.8"

let gen_request_line =
  let open QCheck.Gen in
  let id = map (Printf.sprintf "q%d") (int_bound 9) in
  let good_inst =
    oneofl
      [
        escaped instance_text;
        escaped respelled;
        escaped "suu 1\nn 2 m 2\nedges 1\n0 1\nprobs\n0.9 0.5\n0.4 0.8";
      ]
  in
  let bad_inst =
    oneofl
      [
        escaped "suu 1\nn 2 m 2\nedges 0\nprobs\n0.9";
        escaped "suu 2\nn 1 m 1\nedges 0\nprobs\n0.5";
        "";
      ]
  in
  let inst = frequency [ (3, good_inst); (1, bad_inst) ] in
  let trials =
    oneofl [ ""; {|"trials":1,|}; {|"trials":8,|}; {|"trials":0,|} ]
  in
  let extra =
    oneofl
      [
        {|"seed":3,|};
        {|"seed":"x",|};
        {|"ci_target":0.5,|};
        {|"ci_target":-1,|};
        {|"releases":[0,2],|};
        {|"releases":[0],|};
        {|"releases":[-1,0],|};
        {|"churn":"seed=2,rate=0.1,repair=4,steps=64",|};
        {|"churn":"bogus",|};
        {|"range":[0,1],|};
        {|"range":[1,2],|};
        {|"deadline_ms":60000,|};
        {|"deadline_ms":-5,|};
      ]
  in
  let extras = map (String.concat "") (list_size (int_bound 2) extra) in
  let algo =
    oneofl
      [
        "";
        {|"algo":"auto",|};
        {|"algo":"adaptive",|};
        {|"algo":"oblivious",|};
        {|"algo":"improved",|};
        {|"algo":"fixed",|};
        {|"algo":"lzf",|};
      ]
  in
  let plan =
    oneofl
      [
        escaped "suu-plan 1\nm 2\nprefix 0\ncycle 1\n0 1";
        escaped "suu-plan 1\nm 3\nprefix 0\ncycle 1\n0 1 0";
        escaped "suu-plan 2";
      ]
  in
  let solve =
    map
      (fun (id, algo, trials, extras, inst) ->
        Printf.sprintf {|{"op":"solve","id":"%s",%s%s%s"instance":"%s"}|} id
          algo trials extras inst)
      (tup5 id algo trials extras inst)
  in
  let estimate =
    map
      (fun (id, plan, trials, extras, inst) ->
        Printf.sprintf
          {|{"op":"estimate","id":"%s","plan":"%s",%s%s"instance":"%s"}|} id
          plan trials extras inst)
      (tup5 id plan trials extras inst)
  in
  let single op =
    map2
      (fun id inst ->
        Printf.sprintf {|{"op":"%s","id":"%s","instance":"%s"}|} op id inst)
      id inst
  in
  let odd =
    oneofl
      [
        "";
        "   ";
        "\t";
        "not json";
        "{";
        "[1,2]";
        {|{"op":"solve","id":"d","trials":8,"trials":9,"instance":"x"}|};
        {|{"op":"frobnicate","id":"u"}|};
        {|{"op":7,"id":"u"}|};
        {|{"id":"u"}|};
        {|{"op":"info","id":"n","instance":5}|};
        {|{"op":"exact","id":"n"}|};
        {|{"op":"solve","id":"n","trials":8,"seed":"x","instance":"suu 2"}|};
      ]
  in
  frequency
    [
      (6, solve);
      (2, estimate);
      (1, single "info");
      (1, single "exact");
      (3, odd);
    ]

(* Each line is sent again later, its instance text possibly in the
   other spelling, so the caches hit. With one key for the route and
   the result cache, even the "cached" flag must match. *)
let gen_request_lines =
  let open QCheck.Gen in
  let swap line =
    let a = escaped instance_text and b = escaped respelled in
    let line' = replace ~needle:a ~by:b line in
    if line' <> line then line' else replace ~needle:b ~by:a line
  in
  list_size (int_range 1 6) gen_request_line >>= fun lines ->
  map2
    (fun again swapped ->
      lines @ List.map2 (fun l s -> if s then swap l else l) again swapped)
    (shuffle_l lines)
    (list_repeat (List.length lines) bool)

let prop_fleet_identity =
  QCheck.Test.make ~name:"2-shard coordinator = one service, byte for byte"
    ~count:50
    (QCheck.make
       ~print:(fun lines -> String.concat "\n" lines)
       ~shrink:QCheck.Shrink.list gen_request_lines)
    (fun lines ->
      let single, _ = Service.run_lines worker_config lines in
      let fleet, _ =
        Coordinator.run_lines (coord_config ~shards:2) ~spawn:spawn_local lines
      in
      single = fleet)

(* The coordinator never parses an instance it forwards: a solve whose
   only fault is its instance text routes on that text, and the shard's
   parse produces the error — so the bytes are one service's and the
   error is counted by a shard. *)
let test_forwards_unparsed_instance () =
  let bad =
    Printf.sprintf {|{"op":"solve","id":"b","trials":8,"instance":"%s"}|}
      (escaped "suu 1\nn 2 m 2\nedges 0\nprobs\n0.9")
  in
  (match Request.route_line ~default_trials:40 ~default_seed:5 bad with
  | Request.Forward { id = Some "b"; key = Some _ } -> ()
  | _ -> Alcotest.fail "a malformed instance is not forwarded unparsed");
  let single, _ = Service.run_lines worker_config [ bad ] in
  let out, report =
    Coordinator.run_lines (coord_config ~shards:2) ~spawn:spawn_local
      [ bad; {|{"op":"stats","id":"z"}|} ]
  in
  check_byte_identical ~msg:"malformed instance" single [ List.hd out ];
  Alcotest.(check int) "forwarded" 1 report.Coordinator.forwards;
  let shard name =
    Option.bind (field "shard" (List.nth out 1)) (fun o ->
        Option.bind (Json.member name o) Json.to_int)
  in
  Alcotest.(check (option int)) "counted in a shard's errors" (Some 1)
    (shard "errors")

(* --- Suites --- *)

let coordinator_cases spawn =
  [
    Alcotest.test_case "byte-identical to single service" `Quick
      (test_coordinator_matches_single_service spawn);
    Alcotest.test_case "range lines forward whole and merge" `Quick
      (test_coordinator_forwards_range_lines spawn);
    Alcotest.test_case "ping + response order" `Quick
      (test_coordinator_ping_and_order spawn);
    Alcotest.test_case "merged stats" `Quick
      (test_coordinator_stats_merge spawn);
    Alcotest.test_case "survives worker loss" `Quick
      (test_coordinator_survives_worker_loss spawn);
    Alcotest.test_case "all shards lost" `Quick
      (test_coordinator_all_shards_lost spawn);
    Alcotest.test_case "respawn heals the fleet" `Quick
      (test_coordinator_respawn_heals spawn);
  ]

let () =
  let test_merge_partial_trials_field () =
    (* A partial response's optional "trials" field is the executed count
       (a ci_target can cut it below the range width); absent or
       out-of-range values fall back to the full width so pre-field
       shards still merge correctly. *)
    let part extra =
      match
        Suu_shard.Merge.classify
          (Printf.sprintf
             {|{"id":"x","status":"ok","algo":"a","partial":true,"lo":10,"hi":20,%s"incomplete":0,"samples":[3,4]}|}
             extra)
      with
      | Suu_shard.Merge.Part p -> p
      | _ -> Alcotest.fail "partial did not classify"
    in
    Alcotest.(check int) "explicit executed count" 4
      (part {|"trials":4,|}).Suu_shard.Merge.trials;
    Alcotest.(check int) "absent field defaults to the width" 10
      (part "").Suu_shard.Merge.trials;
    Alcotest.(check int) "overlong count clamps to the width" 10
      (part {|"trials":99,|}).Suu_shard.Merge.trials
  in
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "determinism" `Quick test_ring_determinism;
          Alcotest.test_case "coverage" `Quick test_ring_coverage;
          Alcotest.test_case "death moves only lost arcs" `Quick
            test_ring_death_moves_only_lost_arcs;
          Alcotest.test_case "rejoin restores routes" `Quick
            test_ring_rejoin_restores_routes;
          Alcotest.test_case "invalid args" `Quick test_ring_invalid_args;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "plan partitions" `Quick
            test_dispatch_plan_partitions;
          Alcotest.test_case "auto chunk" `Quick test_dispatch_auto_chunk;
          Alcotest.test_case "invalid args" `Quick
            test_dispatch_invalid_args;
        ] );
      ( "merge",
        [
          Alcotest.test_case "partial trials field" `Quick
            test_merge_partial_trials_field;
        ] );
      ("coordinator", coordinator_cases spawn_local);
      ( "fleet identity",
        [
          Alcotest.test_case "forwards a malformed instance unparsed" `Quick
            test_forwards_unparsed_instance;
          QCheck_alcotest.to_alcotest prop_fleet_identity;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "zombie answers discarded at the fence" `Quick
            test_coordinator_fences_zombie_answers;
        ] );
      ( "client contract",
        [
          Alcotest.test_case "graceful close answers admitted work" `Quick
            test_client_graceful_close;
          Alcotest.test_case "kill drains pending callbacks" `Quick
            test_client_kill_drains;
        ] );
    ]
