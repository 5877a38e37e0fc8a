module Service = Suu_service.Service
module Request = Suu_service.Request
module Json = Suu_service.Json
module Fault = Suu_service.Fault
module Metrics = Suu_service.Metrics
module Emitter = Suu_service.Emitter
module Trace = Suu_obs.Trace
module Prom = Suu_obs.Prom

let now_ms = Suu_obs.Clock.now_ms

type config = {
  shards : int;
  replicas : int;
  retries : int;
  retry_backoff_ms : float;
  heartbeat_ms : float option;
  suspect_after : int;
  dead_after : int;
  respawn_budget : int;
  respawn_backoff_ms : float;
  default_trials : int;
  default_seed : int;
  default_ci_target : float option;
  fault : Fault.spec;
  tracer : Trace.t;
}

let default_config =
  {
    shards = 2;
    replicas = 64;
    retries = 2;
    retry_backoff_ms = 1.;
    heartbeat_ms = Some 100.;
    suspect_after = 1;
    dead_after = 3;
    respawn_budget = 2;
    respawn_backoff_ms = 10.;
    default_trials = 200;
    default_seed = 1;
    default_ci_target = None;
    fault = Fault.none;
    tracer = Trace.disabled;
  }

type report = {
  metrics : Metrics.snapshot;
  shards : int;
  shards_live : int;
  forwards : int;
  shard_deaths : int;
  heartbeats : int;
  respawns : int;
  suspects : int;
  fenced : int;
}

(* --- jobs ------------------------------------------------------------- *)

type fwd = {
  fseq : int;
  fid : string option;
  fadmitted : float;
  fline : string;
  fkey : string option;
  mutable fattempts : int;
}

type statjob = {
  tseq : int;
  tid : string option;
  tformat : [ `Json | `Prom | `Raw ];
  mutable waiting : int;
  mutable replies : string list;
}

(* Everything in flight on a shard is registered under a ticket in that
   shard's table. A reply only counts if its ticket is still there
   ("owned"); fencing a shard removes the tickets wholesale and
   re-dispatches the work, after which the zombie's late answers find
   no ticket and are discarded. That is the exactly-once half of
   rejoin-safety: the ring may route to a respawned shard immediately,
   because nothing the previous incarnation still says can be mistaken
   for an answer. *)
type work = W_fwd of fwd | W_stat of statjob

type t = {
  cfg : config;
  ring : Ring.t;
  sup : Supervisor.t;
  em : Emitter.t;
  metrics : Metrics.t;
  lock : Mutex.t;
  done_cv : Condition.t;
  mutable outstanding : int;
  mutable dispatches : int;  (* kill-injection key; one per dispatch *)
  mutable rr : int;  (* keyless round-robin cursor *)
  mutable next_ticket : int;
  tickets : (int, work) Hashtbl.t array;  (* per shard: in-flight work *)
  mutable forwards : int;
  mutable shard_deaths : int;
  mutable heartbeats : int;
  mutable fenced : int;  (* zombie answers discarded at the fence *)
}

let shard_live t i = Supervisor.routable t.sup i
let live_indices t = Supervisor.routable_indices t.sup

let request_done_locked t =
  t.outstanding <- t.outstanding - 1;
  Condition.broadcast t.done_cv

let request_done t =
  Mutex.lock t.lock;
  request_done_locked t;
  Mutex.unlock t.lock

(* Register work on a shard; returns the ticket. Caller holds [t.lock]. *)
let register_locked t i work =
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  Hashtbl.replace t.tickets.(i) ticket work;
  ticket

(* Claim a reply: true iff the ticket was still owned (and is now
   consumed). A false return means the fence already rescued this work —
   whatever the shard says now is a zombie's word. *)
let claim t i ticket ~answered =
  Mutex.lock t.lock;
  let owned = Hashtbl.mem t.tickets.(i) ticket in
  if owned then Hashtbl.remove t.tickets.(i) ticket
  else if answered then t.fenced <- t.fenced + 1;
  Mutex.unlock t.lock;
  owned

(* --- stats ------------------------------------------------------------ *)

let coord_counter_fields t =
  (* racy reads of monotone ints: telemetry precision *)
  [
    ("forwards", Json.int t.forwards);
    ("shard_deaths", Json.int t.shard_deaths);
    ("heartbeats", Json.int t.heartbeats);
    ("respawns", Json.int (Supervisor.respawns_total t.sup));
    ("suspects", Json.int (Supervisor.suspects_total t.sup));
    ("fenced", Json.int t.fenced);
  ]

let coord_stats_fields t telemetry =
  let m = Metrics.snapshot t.metrics in
  let live = List.length (live_indices t) in
  let epochs =
    Supervisor.snapshot t.sup |> Array.to_list
    |> List.map (fun (_, epoch, _) -> Json.int epoch)
  in
  [
    ("shards", Json.int t.cfg.shards);
    ("shards_live", Json.int live);
    ("requests", Json.int m.Metrics.requests);
    ("ok", Json.int m.Metrics.ok);
    ("errors", Json.int m.Metrics.errors);
    ("timeouts", Json.int m.Metrics.timeouts);
    ("retries", Json.int m.Metrics.retries);
  ]
  @ coord_counter_fields t
  @ [
      ("shard_epochs", Json.List epochs);
      ("shard", Metrics.counters_to_json telemetry.Merge.service);
      ("engine", Metrics.counters_to_json telemetry.Merge.engine);
    ]

(* One exposition for the whole deployment: the coordinator's own
   request counters under [suu_coord_*], the summed worker service
   counters under [suu_shard_*], the merged worker latency histogram,
   the summed worker engine counters, and the supervision series —
   respawns, suspicion transitions, fenced zombie answers, and a
   per-shard epoch gauge. *)
let prom_exposition t telemetry =
  let m = Metrics.snapshot t.metrics in
  let c name help v = Prom.counter ~name ~help (float_of_int v) in
  let g name help v = Prom.gauge ~name ~help (float_of_int v) in
  let epoch_rows =
    Supervisor.snapshot t.sup |> Array.to_list
    |> List.mapi (fun i (_, epoch, _) ->
           ([ ("shard", string_of_int i) ], float_of_int epoch))
  in
  Prom.render
    ([
       g "suu_shards" "Configured worker shards." t.cfg.shards;
       g "suu_shards_live" "Shards currently believed live."
         (List.length (live_indices t));
       c "suu_coord_requests_total"
         "Requests completed by the coordinator (ok + errors + timeouts)."
         m.Metrics.requests;
       c "suu_coord_requests_ok_total" "Requests answered ok." m.Metrics.ok;
       c "suu_coord_requests_error_total" "Requests answered with an error."
         m.Metrics.errors;
       c "suu_coord_requests_timeout_total"
         "Requests that exceeded their deadline." m.Metrics.timeouts;
       c "suu_coord_retries_total"
         "Re-dispatches of work lost with a shard." m.Metrics.retries;
       c "suu_coord_forwards_total" "Whole requests routed to a shard."
         t.forwards;
       c "suu_coord_shard_deaths_total" "Worker shards lost." t.shard_deaths;
       c "suu_coord_heartbeats_total" "Heartbeat pings sent." t.heartbeats;
       c "suu_shard_respawns_total" "Worker shards respawned after loss."
         (Supervisor.respawns_total t.sup);
       c "suu_coord_suspect_transitions_total"
         "Shards escalated to suspect after missed heartbeats."
         (Supervisor.suspects_total t.sup);
       c "suu_coord_fenced_replies_total"
         "Late answers from fenced (killed-epoch) shards, discarded."
         t.fenced;
       Prom.labelled ~name:"suu_shard_epoch"
         ~help:
           "Shard incarnation number (death count); work is fenced to \
            the epoch it was dispatched under."
         ~ty:`Gauge epoch_rows;
     ]
    @ (match m.Metrics.latency with
      | None -> []
      | Some h ->
          [
            Prom.histogram ~name:"suu_coord_request_latency_ms"
              ~help:
                "Coordinator ok-response latency, admission to emission, \
                 milliseconds."
              h;
          ])
    @ List.map
        (fun (name, v) ->
          c
            ("suu_shard_" ^ name ^ "_total")
            "Summed across live worker shards." v)
        telemetry.Merge.service
    @ (match telemetry.Merge.latency with
      | None -> []
      | Some h ->
          [
            Prom.histogram ~name:"suu_shard_request_latency_ms"
              ~help:
                "Worker ok-response latency, merged across live shards, \
                 milliseconds."
              h;
          ])
    @ List.map
        (fun (name, v) ->
          c ("suu_shard_" ^ name) "Summed across live worker shards." v)
        telemetry.Merge.engine)

let finalize_stats_locked t st =
  Emitter.emit_lazy t.em st.tseq (fun () ->
      let telemetry = Merge.telemetry_of_responses st.replies in
      match st.tformat with
      | `Prom ->
          Request.ok ~id:st.tid
            [ ("prom", Json.Str (prom_exposition t telemetry)) ]
      | `Json -> Request.ok ~id:st.tid (coord_stats_fields t telemetry)
      | `Raw ->
          let hist =
            match telemetry.Merge.latency with
            | None -> []
            | Some h -> [ ("latency_hist", Metrics.hist_to_json h) ]
          in
          Request.ok ~id:st.tid (coord_stats_fields t telemetry @ hist));
  request_done_locked t

(* One shard's part of a stats pull is over, answered or lost. *)
let stat_settled_locked t st =
  st.waiting <- st.waiting - 1;
  if st.waiting = 0 then finalize_stats_locked t st

(* --- forwards --------------------------------------------------------- *)

let fwd_fail t fwd ~reason msg =
  Metrics.record_error t.metrics;
  Emitter.emit t.em fwd.fseq (Request.error ~id:fwd.fid ~reason msg);
  request_done t

let record_forward_outcome t fwd line =
  match Merge.classify line with
  | Merge.Whole | Merge.Part _ ->
      Metrics.record_ok t.metrics ~latency_ms:(now_ms () -. fwd.fadmitted)
  | Merge.Expired _ -> Metrics.record_timeout t.metrics
  | Merge.Err _ | Merge.Garbled _ -> Metrics.record_error t.metrics

(* Mutual recursion: dispatch / reply / retry / shard-loss handling /
   fencing all feed each other. *)
let rec dispatch_forward t fwd =
  let target =
    Mutex.lock t.lock;
    let target =
      match fwd.fkey with
      | Some key -> Ring.route t.ring ~live:(fun i -> shard_live t i) key
      | None -> (
          (* keyless ops (info) spread round-robin over the live set *)
          match live_indices t with
          | [] -> None
          | live ->
              let n = List.length live in
              let pick = List.nth live (t.rr mod n) in
              t.rr <- t.rr + 1;
              Some pick)
    in
    let target =
      match target with
      | None -> None
      | Some i -> (
          match Supervisor.checkout t.sup i with
          | None -> None (* died between route and checkout; re-route *)
          | Some (c, epoch) ->
              let k = t.dispatches in
              t.dispatches <- k + 1;
              let kill = Fault.fires t.cfg.fault Fault.Kill ~key:k in
              let ticket = register_locked t i (W_fwd fwd) in
              Some (i, c, epoch, ticket, kill))
    in
    Mutex.unlock t.lock;
    target
  in
  match target with
  | None ->
      (* No shard routable right now. While recovery is possible the
         request waits for a respawn; once it is not, fail fast. *)
      if Supervisor.can_recover t.sup then begin
        Unix.sleepf 0.002;
        dispatch_forward t fwd
      end
      else fwd_fail t fwd ~reason:"unavailable" "no live shards"
  | Some (i, c, epoch, ticket, kill) ->
      if kill then Client.kill c;
      let submitted =
        Client.submit c fwd.fline (fun resp ->
            on_forward_reply t fwd i epoch ticket resp)
      in
      (* Never sent: the same as a loss before the answer. *)
      if not submitted then on_forward_reply t fwd i epoch ticket None

and on_forward_reply t fwd i epoch ticket = function
  | Some line ->
      if claim t i ticket ~answered:true then begin
        record_forward_outcome t fwd line;
        Emitter.emit t.em fwd.fseq line;
        request_done t
      end
      (* else: fenced zombie answer — the work was re-dispatched; this
         late line must not reach the emitter a second time *)
  | None ->
      (* Take the ticket back ourselves — but only if we win the claim.
         A concurrent fence may have reclaimed and re-dispatched this
         work already; retrying on top of that would answer the request
         twice. *)
      if claim t i ticket ~answered:false then begin
        handle_shard_loss t i ~epoch;
        retry_forward t fwd
      end
      else handle_shard_loss t i ~epoch

and retry_forward t fwd =
  if fwd.fattempts >= t.cfg.retries then
    fwd_fail t fwd ~reason:"shard_lost" "request lost with its shard"
  else begin
    let attempt = fwd.fattempts in
    fwd.fattempts <- attempt + 1;
    Metrics.record_retry t.metrics;
    Unix.sleepf
      (Fault.backoff_s t.cfg.fault ~base_ms:t.cfg.retry_backoff_ms ~cap_ms:50.
         ~key:(Fault.attempt_key ~seq:fwd.fseq ~attempt)
         ~attempt);
    dispatch_forward t fwd
  end

(* --- fencing ---------------------------------------------------------- *)

(* A shard at [epoch] was observed dead (EOF, failed submit, or missed
   heartbeats). The supervisor decides whether this observation is
   fresh; if so it fences the slot — bumps the epoch, schedules the
   respawn — and hands back the old client. We then kill it (so its
   reader drains), reclaim every ticket it still held and re-dispatch
   that work to survivors, eagerly: jobs re-dispatched here do not wait
   for the zombie's EOF to trickle in. The zombie's own late callbacks
   find their tickets gone and are counted, not processed. *)
and handle_shard_loss t i ~epoch =
  match Supervisor.note_death t.sup i ~epoch ~now:(Unix.gettimeofday ()) with
  | `Stale -> () (* someone already fenced this epoch *)
  | `Fenced old ->
      Mutex.lock t.lock;
      t.shard_deaths <- t.shard_deaths + 1;
      Mutex.unlock t.lock;
      (* Reclaim the tickets BEFORE killing the client: the kill makes
         the zombie's reader drain, and any answer it surfaces while
         dying must already find its ticket gone. (A genuine answer
         that wins the race instead is claimed and emitted — still
         exactly once.) *)
      fence_slot t i;
      Client.kill old

and fence_slot t i =
  Mutex.lock t.lock;
  let orphans = Hashtbl.fold (fun _ w acc -> w :: acc) t.tickets.(i) [] in
  Hashtbl.reset t.tickets.(i);
  let fwds =
    List.filter_map
      (function
        | W_fwd fwd -> Some fwd
        | W_stat st ->
            stat_settled_locked t st;
            None)
      orphans
  in
  Mutex.unlock t.lock;
  List.iter (retry_forward t) fwds

let on_stats_reply t st i epoch ticket = function
  | Some line ->
      if claim t i ticket ~answered:true then begin
        Mutex.lock t.lock;
        st.replies <- line :: st.replies;
        stat_settled_locked t st;
        Mutex.unlock t.lock
      end
  | None ->
      if claim t i ticket ~answered:false then begin
        Mutex.lock t.lock;
        stat_settled_locked t st;
        Mutex.unlock t.lock;
        handle_shard_loss t i ~epoch
      end
      else handle_shard_loss t i ~epoch

let stats_pull_line =
  Json.to_string (Json.Obj [ ("op", Json.Str "stats"); ("format", Json.Str "raw") ])

let admit_stats t seq req format =
  Metrics.record_stats_request t.metrics;
  Mutex.lock t.lock;
  t.outstanding <- t.outstanding + 1;
  let st =
    {
      tseq = seq;
      tid = req.Request.id;
      tformat = format;
      waiting = 0;
      replies = [];
    }
  in
  let targets =
    List.filter_map
      (fun i ->
        match Supervisor.checkout t.sup i with
        | None -> None
        | Some (c, epoch) ->
            st.waiting <- st.waiting + 1;
            let ticket = register_locked t i (W_stat st) in
            Some (i, c, epoch, ticket))
      (live_indices t)
  in
  if targets = [] then finalize_stats_locked t st;
  Mutex.unlock t.lock;
  List.iter
    (fun (i, c, epoch, ticket) ->
      let reply = on_stats_reply t st i epoch ticket in
      if not (Client.submit c stats_pull_line reply) then reply None)
    targets

(* --- admission -------------------------------------------------------- *)

let admit_forward t seq req line =
  Mutex.lock t.lock;
  t.outstanding <- t.outstanding + 1;
  t.forwards <- t.forwards + 1;
  Mutex.unlock t.lock;
  let fwd =
    {
      fseq = seq;
      fid = req.Request.id;
      fadmitted = now_ms ();
      fline = line;
      fkey = Request.cache_key req;
      fattempts = 0;
    }
  in
  dispatch_forward t fwd

let admit t seq line =
  Trace.with_span t.cfg.tracer "route"
    ~attrs:[ ("seq", string_of_int seq) ]
    (fun () ->
      match
        Request.of_line ~default_trials:t.cfg.default_trials
          ~default_seed:t.cfg.default_seed
          ?default_ci_target:t.cfg.default_ci_target line
      with
      | Error (msg, id) ->
          Metrics.record_error t.metrics;
          Emitter.emit t.em seq (Request.error ~id msg)
      | Ok req -> (
          match req.Request.op with
          | Request.Ping ->
              (* Answered at the coordinator: a pong vouches for the
                 routing layer; shard liveness is the heartbeat's job. *)
              Metrics.record_ok t.metrics ~latency_ms:0.;
              Emitter.emit t.em seq
                (Request.ok ~id:req.Request.id
                   [
                     ("pong", Json.Bool true);
                     ("shards", Json.int t.cfg.shards);
                     ("shards_live", Json.int (List.length (live_indices t)));
                   ])
          | Request.Stats { format } -> admit_stats t seq req format
          | _ -> admit_forward t seq req line))

(* --- supervision ------------------------------------------------------ *)

let heartbeat_line =
  Json.to_string (Json.Obj [ ("op", Json.Str "ping"); ("id", Json.Str "hb") ])

(* One domain runs the whole control loop: heartbeat escalation on the
   configured period, respawn of dead shards when their backoff clock
   expires, and an opportunistic pump so work queued while the fleet
   was empty starts the moment a shard rejoins (or fails for good the
   moment recovery becomes impossible). *)
let do_beats t =
  let beat, expired = Supervisor.begin_beats t.sup in
  List.iter (fun (i, epoch) -> handle_shard_loss t i ~epoch) expired;
  List.iter
    (fun (i, epoch) ->
      match Supervisor.checkout t.sup i with
      | Some (c, e) when e = epoch ->
          let submitted =
            Client.submit c heartbeat_line (fun r ->
                match r with
                | Some _ -> Supervisor.pong t.sup i ~epoch
                | None -> handle_shard_loss t i ~epoch)
          in
          if submitted then begin
            Mutex.lock t.lock;
            t.heartbeats <- t.heartbeats + 1;
            Mutex.unlock t.lock
          end
          else handle_shard_loss t i ~epoch
      | _ -> () (* fenced since begin_beats; nothing to ping *))
    beat

let supervision_loop t stop =
  let period = Option.map (fun ms -> ms /. 1000.) t.cfg.heartbeat_ms in
  let slice = 0.005 in
  let rec loop hb_elapsed =
    if not (Atomic.get stop) then begin
      Unix.sleepf slice;
      (* Respawns: slots whose backoff expired. The spawn itself runs
         outside every lock; a rejoined shard is routable at its new
         epoch immediately, so requests waiting in [dispatch_forward]
         pick it up on their next attempt. *)
      let due = Supervisor.due_respawns t.sup ~now:(Unix.gettimeofday ()) in
      List.iter
        (fun i ->
          ignore (Supervisor.respawn t.sup i ~now:(Unix.gettimeofday ())))
        due;
      let hb_elapsed = hb_elapsed +. slice in
      match period with
      | Some p when hb_elapsed >= p ->
          do_beats t;
          loop 0.
      | _ -> loop hb_elapsed
    end
  in
  loop 0.

(* --- lifecycle -------------------------------------------------------- *)

let validate (cfg : config) =
  if cfg.shards < 1 then invalid_arg "Coordinator: shards < 1";
  if cfg.replicas < 1 then invalid_arg "Coordinator: replicas < 1";
  if cfg.retries < 0 then invalid_arg "Coordinator: retries < 0";
  if cfg.respawn_budget < 0 then invalid_arg "Coordinator: respawn_budget < 0";
  if cfg.suspect_after < 1 then invalid_arg "Coordinator: suspect_after < 1";
  if cfg.dead_after < cfg.suspect_after then
    invalid_arg "Coordinator: dead_after < suspect_after"

let serve cfg ~spawn transport =
  validate cfg;
  let module T = (val transport : Service.TRANSPORT) in
  let sup =
    Supervisor.create
      {
        Supervisor.shards = cfg.shards;
        respawn_budget = cfg.respawn_budget;
        respawn_backoff_ms = cfg.respawn_backoff_ms;
        suspect_after = cfg.suspect_after;
        dead_after = cfg.dead_after;
        fault = cfg.fault;
      }
      ~spawn
  in
  let t =
    {
      cfg;
      ring = Ring.create ~replicas:cfg.replicas (List.init cfg.shards Fun.id);
      sup;
      em = Emitter.create T.send;
      metrics = Metrics.create ();
      lock = Mutex.create ();
      done_cv = Condition.create ();
      outstanding = 0;
      dispatches = 0;
      rr = 0;
      next_ticket = 0;
      tickets = Array.init cfg.shards (fun _ -> Hashtbl.create 16);
      forwards = 0;
      shard_deaths = 0;
      heartbeats = 0;
      fenced = 0;
    }
  in
  let stop_sup = Atomic.make false in
  let sup_domain =
    if cfg.heartbeat_ms <> None || cfg.respawn_budget > 0 then
      Some (Domain.spawn (fun () -> supervision_loop t stop_sup))
    else None
  in
  let rec read_loop seq =
    match T.recv () with
    | None -> ()
    | Some line ->
        admit t seq line;
        read_loop (seq + 1)
  in
  read_loop 0;
  Mutex.lock t.lock;
  while t.outstanding > 0 do
    Condition.wait t.done_cv t.lock
  done;
  Mutex.unlock t.lock;
  (* Let the fleet finish healing before the final report: respawn
     budgets are finite and backoff is capped, so this terminates. With
     the supervision domain disabled there is nobody to heal. *)
  if sup_domain <> None then
    while Supervisor.healing t.sup do
      Unix.sleepf 0.005
    done;
  Atomic.set stop_sup true;
  Option.iter Domain.join sup_domain;
  let shards_live = Supervisor.live_count t.sup in
  let clients = Supervisor.clients t.sup in
  List.iter Client.close_input clients;
  List.iter Client.join clients;
  List.iter Client.join (Supervisor.drain_zombies t.sup);
  {
    metrics = Metrics.snapshot t.metrics;
    shards = cfg.shards;
    shards_live;
    forwards = t.forwards;
    shard_deaths = t.shard_deaths;
    heartbeats = t.heartbeats;
    respawns = Supervisor.respawns_total t.sup;
    suspects = Supervisor.suspects_total t.sup;
    fenced = t.fenced;
  }

let run_lines cfg ~spawn lines =
  let transport, sent = Service.list_transport lines in
  let r = serve cfg ~spawn transport in
  (sent (), r)

let report_to_string (r : report) =
  let m = r.metrics in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "coordinator: %d requests (%d ok, %d errors, %d timeouts), %d retries\n"
    m.Metrics.requests m.Metrics.ok m.Metrics.errors m.Metrics.timeouts
    m.Metrics.retries;
  Printf.bprintf b
    "shards: %d spawned, %d live at shutdown, %d lost, %d respawned\n"
    r.shards r.shards_live r.shard_deaths r.respawns;
  Printf.bprintf b "dispatch: %d forwarded\n" r.forwards;
  Printf.bprintf b "heartbeats: %d" r.heartbeats;
  (if r.suspects > 0 || r.fenced > 0 then
     Printf.bprintf b "\nsupervision: %d suspect transitions, %d fenced replies"
       r.suspects r.fenced);
  Option.iter
    (fun h -> Printf.bprintf b "\n%s" (Metrics.latency_line h))
    m.Metrics.latency;
  Buffer.contents b