(* The sharding layer: consistent-hash ring, trial-range planning, and
   the coordinator's end-to-end contract — every request is routed
   whole and its answer is byte-identical to a single service's, a
   client's trial-range fan-out through the fleet merges back to the
   unsplit answer, every admitted request is answered exactly once in
   order, worker loss degrades instead of hanging, and (new in the
   self-healing fleet) killed shards respawn, rejoin the ring, and their
   late zombie answers are fenced off by epoch. The coordinator suite
   runs twice: once over in-process pipe workers and once over in-test
   TCP workers, so both transports carry the same contract. *)

module Ring = Suu_shard.Ring
module Dispatch = Suu_shard.Dispatch
module Client = Suu_shard.Client
module Coordinator = Suu_shard.Coordinator
module Service = Suu_service.Service
module Tcp = Suu_service.Tcp
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
   single service's (shared) cache — and a respawned or reconnected
   worker restarts its cache cold — so the cached flag is the one field
   byte-identity comparisons may scrub. Everything else, including
   every float, must match to the byte. *)
let scrub line =
  let needle = {|"cached":true|} in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = needle then
      String.sub line 0 i ^ {|"cached":false|}
      ^ String.sub line (i + n) (String.length line - i - n)
    else find (i + 1)
  in
  find 0

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

(* An in-test TCP worker: a listener on a kernel-picked port, one
   serving domain, and the client's connecting side dialled at it. One
   connection per worker is enough here (faults that force reconnects
   get their own servers below); the server exits once its connection
   drains, and reap joins the domain. *)
let spawn_tcp i =
  match Tcp.listen "127.0.0.1:0" with
  | Error e -> failwith e
  | Ok (lsock, addr) ->
      let srv =
        Domain.spawn (fun () ->
            Tcp.serve_connections ~max_conns:1
              ~on_report:(fun _ -> ())
              worker_config lsock)
      in
      let p = Client.tcp_peer ~addr () in
      Client.custom ~id:i
        {
          p with
          Client.reap =
            (fun () ->
              p.Client.reap ();
              Domain.join srv);
        }

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

(* --- TCP transport: reconnect, refuse, stall --- *)

let tcp_server cfg =
  match Tcp.listen "127.0.0.1:0" with
  | Error e -> failwith e
  | Ok (lsock, addr) ->
      let stop = Atomic.make false in
      let srv =
        Domain.spawn (fun () ->
            Tcp.serve_connections
              ~stopping:(fun () -> Atomic.get stop)
              ~on_report:(fun _ -> ())
              cfg lsock)
      in
      (stop, addr, srv)

let stop_tcp_server (stop, addr, srv) =
  (* Flip the flag, then pop the blocked accept with a wake dial. *)
  Atomic.set stop true;
  Tcp.wake addr;
  Domain.join srv

(* Submit every line and block until each callback has fired. *)
let collect client lines =
  let n = List.length lines in
  let out = Array.make n None in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let fired = ref 0 in
  let bump () =
    Mutex.lock m;
    incr fired;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  List.iteri
    (fun k line ->
      let accepted =
        Client.submit client line (fun r ->
            out.(k) <- r;
            bump ())
      in
      if not accepted then bump ())
    lines;
  Mutex.lock m;
  while !fired < n do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  Array.to_list out

let test_tcp_reconnect_resends () =
  (* A worker whose responses tear the connection mid-stream: the
     client must shut the torn socket down, back off, dial again and
     replay every unanswered line — and because workers recompute
     deterministically, the final stream is byte-identical to an
     unfaulted single service. Tear keys continue across connections,
     so the replay cannot re-draw the schedule that tore it. *)
  let faulty =
    {
      worker_config with
      Service.fault = { Fault.none with seed = 3; tear = 0.35 };
    }
  in
  let server = tcp_server faulty in
  let _, addr, _ = server in
  let client =
    Client.tcp ~id:0 ~reconnects:10 ~backoff_ms:0.2 ~addr ()
  in
  let n = 10 in
  let lines =
    List.init n (fun k ->
        solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let single, _ = Service.run_lines worker_config lines in
  let got = collect client lines in
  List.iteri
    (fun k r ->
      match r with
      | Some line ->
          Alcotest.(check string)
            (Printf.sprintf "replayed response %d byte-identical" k)
            (scrub (List.nth single k))
            (scrub line)
      | None -> Alcotest.failf "response %d lost despite reconnects" k)
    got;
  Client.close_input client;
  Client.join client;
  stop_tcp_server server

let test_tcp_refuse_exhausts_budget () =
  (* Every accepted connection is torn immediately: reconnects burn the
     whole budget, the peer reports EOF and the outstanding callback
     fires with None — the same uniform loss signal as a killed pipe
     worker. *)
  let refusing =
    {
      worker_config with
      Service.fault = { Fault.none with seed = 1; refuse = 1.0 };
    }
  in
  let server = tcp_server refusing in
  let _, addr, _ = server in
  (* The RST can race into the initial dial itself; that raises (a
     failed spawn, charged to the respawn budget, not the reconnect
     budget) — retry until a dial survives long enough to be a
     connection. *)
  let rec dial tries =
    match Client.tcp ~id:0 ~reconnects:2 ~backoff_ms:0.2 ~addr () with
    | client -> client
    | exception (Unix.Unix_error _ | Failure _) when tries > 0 ->
        dial (tries - 1)
  in
  let client = dial 50 in
  let got = collect client [ solve ~trials:8 ~seed:1 "r0" ] in
  Alcotest.(check bool) "the lone callback fired with None" true
    (got = [ None ]);
  Alcotest.(check bool) "client reports dead" false (Client.alive client);
  Client.join client;
  stop_tcp_server server

let test_tcp_stall_does_not_corrupt () =
  (* Sock_stall delays response writes without killing them: with no
     read timeout armed the client just waits, and the stream stays
     byte-identical. (The timeout-driven give-up path is exercised by
     the refuse test above without depending on wall-clock margins.) *)
  let stalling =
    {
      worker_config with
      Service.fault =
        { Fault.none with seed = 7; sock_stall = 0.5; sock_stall_ms = 2. };
    }
  in
  let server = tcp_server stalling in
  let _, addr, _ = server in
  let client = Client.tcp ~id:0 ~addr () in
  let n = 6 in
  let lines =
    List.init n (fun k ->
        solve ~trials:8 ~seed:(k + 1) (Printf.sprintf "r%d" k))
  in
  let single, _ = Service.run_lines worker_config lines in
  let got = collect client lines in
  List.iteri
    (fun k r ->
      match r with
      | Some line ->
          Alcotest.(check string)
            (Printf.sprintf "stalled response %d byte-identical" k)
            (scrub (List.nth single k))
            (scrub line)
      | None -> Alcotest.failf "response %d lost to a stall" k)
    got;
  Client.close_input client;
  Client.join client;
  stop_tcp_server server

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
      ("coordinator-tcp", coordinator_cases spawn_tcp);
      ( "fencing",
        [
          Alcotest.test_case "zombie answers discarded at the fence" `Quick
            test_coordinator_fences_zombie_answers;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "reconnect replays unanswered lines" `Quick
            test_tcp_reconnect_resends;
          Alcotest.test_case "refused connections exhaust the budget" `Quick
            test_tcp_refuse_exhausts_budget;
          Alcotest.test_case "stalls delay but do not corrupt" `Quick
            test_tcp_stall_does_not_corrupt;
        ] );
    ]
