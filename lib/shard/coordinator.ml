module Service = Suu_service.Service
module Request = Suu_service.Request
module Json = Suu_service.Json
module Fault = Suu_service.Fault
module Metrics = Suu_service.Metrics
module Engine = Suu_sim.Engine
module Trace = Suu_obs.Trace
module Prom = Suu_obs.Prom
module Histogram = Suu_obs.Histogram

let now_ms = Suu_obs.Clock.now_ms

type config = {
  shards : int;
  replicas : int;
  split_threshold : int;
  chunk_trials : int;
  sub_inflight : int;
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
    split_threshold = 64;
    chunk_trials = 0;
    sub_inflight = 4;
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
  splits : int;
  subjobs : int;
  shard_deaths : int;
  heartbeats : int;
  respawns : int;
  suspects : int;
  fenced : int;
}

(* Ordered emission, same discipline as the service's emitter: park
   out-of-order responses, flush in sequence, render lazily so a stats
   response snapshots counters at its stream position. *)
type emitter = {
  elock : Mutex.t;
  parked : (int, unit -> string) Hashtbl.t;
  mutable next_seq : int;
  send_line : string -> unit;
}

let emitter_create send_line =
  { elock = Mutex.create (); parked = Hashtbl.create 16; next_seq = 0; send_line }

let emit_lazy em seq make_line =
  Mutex.lock em.elock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock em.elock)
    (fun () ->
      if seq >= em.next_seq then begin
        Hashtbl.replace em.parked seq make_line;
        let rec flush () =
          match Hashtbl.find_opt em.parked em.next_seq with
          | Some make ->
              Hashtbl.remove em.parked em.next_seq;
              em.send_line (make ());
              em.next_seq <- em.next_seq + 1;
              flush ()
          | None -> ()
        in
        flush ()
      end)

let emit em seq line = emit_lazy em seq (fun () -> line)

(* --- jobs ------------------------------------------------------------- *)

type fwd = {
  fseq : int;
  fid : string option;
  fadmitted : float;
  fline : string;
  fkey : string option;
  mutable fattempts : int;
}

type failure = F_error of string * string option | F_timeout of float option

type split = {
  sseq : int;
  sid : string option;
  sadmitted : float;
  smax_steps : int;
  mutable sremaining : int;
  mutable sparts : Merge.part list;
  mutable sfailure : failure option;
}

type sub = {
  parent : split;
  sub_lo : int;
  sub_hi : int;
  sub_line : string;
  mutable attempts : int;
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
type work = W_fwd of fwd | W_sub of sub | W_stat of statjob

type t = {
  cfg : config;
  ring : Ring.t;
  sup : Supervisor.t;
  em : emitter;
  metrics : Metrics.t;
  lock : Mutex.t;
  done_cv : Condition.t;
  mutable outstanding : int;
  mutable dispatches : int;  (* kill-injection key; one per dispatch *)
  mutable rr : int;  (* keyless round-robin cursor *)
  mutable next_ticket : int;
  tickets : (int, work) Hashtbl.t array;  (* per shard: in-flight work *)
  jobs : sub Queue.t;  (* sub-jobs awaiting a shard slot *)
  sub_inflight : int array;
  mutable forwards : int;
  mutable splits : int;
  mutable subjobs : int;
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

(* --- forwards --------------------------------------------------------- *)

let fwd_fail t fwd ~reason msg =
  Metrics.record_error t.metrics;
  emit t.em fwd.fseq (Request.error ~id:fwd.fid ~reason msg);
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
      if not submitted then
        (* Never sent: take the ticket back ourselves — but only if we
           win the claim. A concurrent fence may have reclaimed and
           re-dispatched this work already; retrying on top of that
           would answer the request twice. *)
        if claim t i ticket ~answered:false then begin
          handle_shard_loss t i ~epoch;
          retry_forward t fwd
        end
        else handle_shard_loss t i ~epoch

and on_forward_reply t fwd i epoch ticket = function
  | Some line ->
      if claim t i ticket ~answered:true then begin
        record_forward_outcome t fwd line;
        emit t.em fwd.fseq line;
        request_done t
      end
      (* else: fenced zombie answer — the work was re-dispatched; this
         late line must not reach the emitter a second time *)
  | None ->
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
      (Dispatch.backoff_s ~base_ms:t.cfg.retry_backoff_ms ~fault:t.cfg.fault
         ~key:fwd.fseq ~attempt);
    dispatch_forward t fwd
  end

(* --- splits ----------------------------------------------------------- *)

and set_failure p f = if p.sfailure = None then p.sfailure <- Some f

and finalize_split_locked t p =
  match p.sfailure with
  | Some (F_timeout d) ->
      Metrics.record_timeout t.metrics;
      emit t.em p.sseq
        (Request.timeout ~id:p.sid ~deadline_ms:(Option.value ~default:0. d));
      request_done_locked t
  | Some (F_error (msg, reason)) ->
      Metrics.record_error t.metrics;
      emit t.em p.sseq (Request.error ~id:p.sid ?reason msg);
      request_done_locked t
  | None ->
      let fields =
        Trace.with_span t.cfg.tracer "merge"
          ~attrs:[ ("seq", string_of_int p.sseq) ]
          (fun () ->
            ("cached", Json.Bool false)
            :: Merge.merged_fields ~max_steps:p.smax_steps p.sparts)
      in
      Metrics.record_ok t.metrics ~latency_ms:(now_ms () -. p.sadmitted);
      emit t.em p.sseq (Request.ok ~id:p.sid fields);
      request_done_locked t

and resolve_sub_locked t sub outcome =
  let p = sub.parent in
  (match outcome with
  | `Part part -> p.sparts <- part :: p.sparts
  | `Failure f -> set_failure p f);
  p.sremaining <- p.sremaining - 1;
  if p.sremaining = 0 then finalize_split_locked t p

(* Pick dispatch work while the lock is held; the (blocking) submits
   happen after release. When no shard is routable, queued sub-jobs
   wait as long as a respawn can still bring one back; once recovery is
   impossible they resolve as failures here — that is what guarantees
   [outstanding] always drains and shutdown never hangs. *)
and pump_locked t =
  let least_loaded () =
    List.fold_left
      (fun best i ->
        match best with
        | Some j when t.sub_inflight.(j) <= t.sub_inflight.(i) -> best
        | _ -> Some i)
      None (live_indices t)
  in
  let rec collect acc =
    if Queue.is_empty t.jobs then List.rev acc
    else
      match least_loaded () with
      | Some i when t.sub_inflight.(i) < t.cfg.sub_inflight -> (
          match Supervisor.checkout t.sup i with
          | None -> List.rev acc (* raced a death; next pump retries *)
          | Some (c, epoch) ->
              let sub = Queue.pop t.jobs in
              t.sub_inflight.(i) <- t.sub_inflight.(i) + 1;
              let k = t.dispatches in
              t.dispatches <- k + 1;
              let kill = Fault.fires t.cfg.fault Fault.Kill ~key:k in
              let ticket = register_locked t i (W_sub sub) in
              collect ((i, c, epoch, ticket, sub, kill) :: acc))
      | Some _ -> List.rev acc (* every live shard at its cap *)
      | None ->
          if not (Supervisor.can_recover t.sup) then
            (* permanently empty fleet: fail the whole queue *)
            while not (Queue.is_empty t.jobs) do
              resolve_sub_locked t (Queue.pop t.jobs)
                (`Failure (F_error ("no live shards", Some "unavailable")))
            done;
          List.rev acc
  in
  collect []

and run_actions t acts =
  List.iter
    (fun (i, c, epoch, ticket, sub, kill) ->
      if kill then Client.kill c;
      let submitted =
        Client.submit c sub.sub_line (fun resp ->
            on_sub_reply t sub i epoch ticket resp)
      in
      if not submitted then
        (* Only requeue if we win the claim: a concurrent fence that
           beat us here has already requeued this sub-job (and reset
           the slot's inflight count). *)
        if claim t i ticket ~answered:false then begin
          Mutex.lock t.lock;
          t.sub_inflight.(i) <- max 0 (t.sub_inflight.(i) - 1);
          Queue.push sub t.jobs;
          Mutex.unlock t.lock;
          handle_shard_loss t i ~epoch;
          pump t
        end
        else handle_shard_loss t i ~epoch)
    acts

and pump t =
  Mutex.lock t.lock;
  let acts = pump_locked t in
  Mutex.unlock t.lock;
  run_actions t acts

and on_sub_reply t sub i epoch ticket = function
  | Some line ->
      if claim t i ticket ~answered:true then begin
        let outcome =
          match Merge.classify line with
          | Merge.Part part -> `Part part
          | Merge.Whole ->
              `Failure
                (F_error ("shard answered a sub-job with a non-partial ok", None))
          | Merge.Err { msg; reason } -> `Failure (F_error (msg, reason))
          | Merge.Expired d -> `Failure (F_timeout d)
          | Merge.Garbled msg -> `Failure (F_error (msg, None))
        in
        Mutex.lock t.lock;
        t.sub_inflight.(i) <- max 0 (t.sub_inflight.(i) - 1);
        resolve_sub_locked t sub outcome;
        let acts = pump_locked t in
        Mutex.unlock t.lock;
        run_actions t acts
      end
  | None ->
      if claim t i ticket ~answered:false then begin
        handle_shard_loss t i ~epoch;
        let retrying = sub.attempts < t.cfg.retries in
        if retrying then begin
          let attempt = sub.attempts in
          sub.attempts <- attempt + 1;
          Metrics.record_retry t.metrics;
          Unix.sleepf
            (Dispatch.backoff_s ~base_ms:t.cfg.retry_backoff_ms
               ~fault:t.cfg.fault
               ~key:((sub.parent.sseq * 1_000_003) + sub.sub_lo)
               ~attempt)
        end;
        Mutex.lock t.lock;
        t.sub_inflight.(i) <- max 0 (t.sub_inflight.(i) - 1);
        if retrying then Queue.push sub t.jobs
        else
          resolve_sub_locked t sub
            (`Failure
              (F_error ("sub-job lost with its shard", Some "shard_lost")));
        let acts = pump_locked t in
        Mutex.unlock t.lock;
        run_actions t acts
      end
      else handle_shard_loss t i ~epoch

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
  t.sub_inflight.(i) <- 0;
  let fwds = ref [] in
  List.iter
    (fun w ->
      match w with
      | W_fwd fwd -> fwds := fwd :: !fwds
      | W_sub sub ->
          if sub.attempts < t.cfg.retries then begin
            sub.attempts <- sub.attempts + 1;
            Metrics.record_retry t.metrics;
            Queue.push sub t.jobs
          end
          else
            resolve_sub_locked t sub
              (`Failure
                (F_error ("sub-job lost with its shard", Some "shard_lost")))
      | W_stat st ->
          st.waiting <- st.waiting - 1;
          if st.waiting = 0 then finalize_stats_locked t st)
    orphans;
  let acts = pump_locked t in
  Mutex.unlock t.lock;
  run_actions t acts;
  List.iter (fun fwd -> retry_forward t fwd) !fwds

(* --- stats ------------------------------------------------------------ *)

and coord_counter_fields t =
  (* racy reads of monotone ints: telemetry precision *)
  [
    ("forwards", Json.int t.forwards);
    ("splits", Json.int t.splits);
    ("subjobs", Json.int t.subjobs);
    ("shard_deaths", Json.int t.shard_deaths);
    ("heartbeats", Json.int t.heartbeats);
    ("respawns", Json.int (Supervisor.respawns_total t.sup));
    ("suspects", Json.int (Supervisor.suspects_total t.sup));
    ("fenced", Json.int t.fenced);
  ]

and coord_stats_fields t telemetry =
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
      ("shard", Json.Obj (List.map (fun (n, v) -> (n, Json.int v)) telemetry.Merge.service));
      ("engine", Json.Obj (List.map (fun (n, v) -> (n, Json.int v)) telemetry.Merge.engine));
    ]

and hist_snapshot_json h =
  let s = Histogram.export h in
  Json.Obj
    [
      ("lo", Json.Num s.Histogram.layout_lo);
      ("growth", Json.Num s.Histogram.layout_growth);
      ("buckets", Json.int s.Histogram.layout_buckets);
      ( "counts",
        Json.List
          (List.map
             (fun (k, c) -> Json.List [ Json.int k; Json.int c ])
             s.Histogram.occupied) );
      ("sum", Json.Num s.Histogram.total_sum);
      ("min", Json.Num s.Histogram.observed_min);
      ("max", Json.Num s.Histogram.observed_max);
    ]

(* One exposition for the whole deployment: the coordinator's own
   request counters under [suu_coord_*], the summed worker service
   counters under [suu_shard_*], the merged worker latency histogram,
   the summed worker engine counters, and the supervision series —
   respawns, suspicion transitions, fenced zombie answers, and a
   per-shard epoch gauge. *)
and prom_exposition t telemetry =
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
       c "suu_coord_splits_total"
         "Monte-Carlo requests split into trial-range sub-jobs." t.splits;
       c "suu_coord_subjobs_total" "Trial-range sub-jobs dispatched."
         t.subjobs;
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
    @ (match m.Metrics.latency_hist with
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

and finalize_stats_locked t st =
  emit_lazy t.em st.tseq (fun () ->
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
            | Some h -> [ ("latency_hist", hist_snapshot_json h) ]
          in
          Request.ok ~id:st.tid (coord_stats_fields t telemetry @ hist));
  request_done_locked t

let on_stats_reply t st i epoch ticket = function
  | Some line ->
      if claim t i ticket ~answered:true then begin
        Mutex.lock t.lock;
        st.replies <- line :: st.replies;
        st.waiting <- st.waiting - 1;
        if st.waiting = 0 then finalize_stats_locked t st;
        Mutex.unlock t.lock
      end
  | None ->
      if claim t i ticket ~answered:false then begin
        Mutex.lock t.lock;
        st.waiting <- st.waiting - 1;
        if st.waiting = 0 then finalize_stats_locked t st;
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
      if
        not
          (Client.submit c stats_pull_line (fun r ->
               on_stats_reply t st i epoch ticket r))
      then
        if claim t i ticket ~answered:false then begin
          Mutex.lock t.lock;
          st.waiting <- st.waiting - 1;
          if st.waiting = 0 then finalize_stats_locked t st;
          Mutex.unlock t.lock;
          handle_shard_loss t i ~epoch
        end
        else handle_shard_loss t i ~epoch)
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

let admit_split t seq req ~trials ~instance =
  let chunk =
    if t.cfg.chunk_trials > 0 then t.cfg.chunk_trials
    else Dispatch.auto_chunk ~trials ~shards:t.cfg.shards
  in
  let ranges = Dispatch.plan ~trials ~chunk in
  let p =
    {
      sseq = seq;
      sid = req.Request.id;
      sadmitted = now_ms ();
      smax_steps = Engine.default_horizon instance;
      sremaining = List.length ranges;
      sparts = [];
      sfailure = None;
    }
  in
  let subs =
    List.map
      (fun (lo, hi) ->
        {
          parent = p;
          sub_lo = lo;
          sub_hi = hi;
          sub_line = Request.sub_line req ~lo ~hi;
          attempts = 0;
        })
      ranges
  in
  let acts =
    Trace.with_span t.cfg.tracer "dispatch"
      ~attrs:
        [ ("seq", string_of_int seq); ("subjobs", string_of_int (List.length subs)) ]
      (fun () ->
        Mutex.lock t.lock;
        t.outstanding <- t.outstanding + 1;
        t.splits <- t.splits + 1;
        t.subjobs <- t.subjobs + List.length subs;
        List.iter (fun s -> Queue.push s t.jobs) subs;
        let acts = pump_locked t in
        Mutex.unlock t.lock;
        acts)
  in
  run_actions t acts

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
          emit t.em seq (Request.error ~id msg)
      | Ok req -> (
          match req.Request.op with
          | Request.Ping ->
              (* Answered at the coordinator: a pong vouches for the
                 routing layer; shard liveness is the heartbeat's job. *)
              Metrics.record_ok t.metrics ~latency_ms:0.;
              emit t.em seq
                (Request.ok ~id:req.Request.id
                   [
                     ("pong", Json.Bool true);
                     ("shards", Json.int t.cfg.shards);
                     ("shards_live", Json.int (List.length (live_indices t)));
                   ])
          | Request.Stats { format } -> admit_stats t seq req format
          | Request.Solve { range = None; trials; instance; _ }
            when t.cfg.split_threshold > 0 && trials >= t.cfg.split_threshold
            ->
              admit_split t seq req ~trials ~instance
          | Request.Estimate { range = None; trials; instance; _ }
            when t.cfg.split_threshold > 0 && trials >= t.cfg.split_threshold
            ->
              admit_split t seq req ~trials ~instance
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
         epoch immediately, so pump right away. *)
      let due = Supervisor.due_respawns t.sup ~now:(Unix.gettimeofday ()) in
      List.iter
        (fun i ->
          ignore (Supervisor.respawn t.sup i ~now:(Unix.gettimeofday ()));
          (* On success queued jobs can start; on a failed attempt the
             budget may just have run out, in which case the pump fails
             whatever could only have waited for this shard. *)
          pump t)
        due;
      (* Opportunistic pump: jobs can be parked while the fleet is
         empty but recoverable. *)
      (let queued =
         Mutex.lock t.lock;
         let q = not (Queue.is_empty t.jobs) in
         Mutex.unlock t.lock;
         q
       in
       if queued then pump t);
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
  if cfg.sub_inflight < 1 then invalid_arg "Coordinator: sub_inflight < 1";
  if cfg.retries < 0 then invalid_arg "Coordinator: retries < 0";
  if cfg.chunk_trials < 0 || cfg.chunk_trials mod Suu_sim.Lanes.lanes_per_word <> 0
  then invalid_arg "Coordinator: chunk_trials must be 0 or a word multiple";
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
      em = emitter_create T.send;
      metrics = Metrics.create ();
      lock = Mutex.create ();
      done_cv = Condition.create ();
      outstanding = 0;
      dispatches = 0;
      rr = 0;
      next_ticket = 0;
      tickets = Array.init cfg.shards (fun _ -> Hashtbl.create 16);
      jobs = Queue.create ();
      sub_inflight = Array.make cfg.shards 0;
      forwards = 0;
      splits = 0;
      subjobs = 0;
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
    splits = t.splits;
    subjobs = t.subjobs;
    shard_deaths = t.shard_deaths;
    heartbeats = t.heartbeats;
    respawns = Supervisor.respawns_total t.sup;
    suspects = Supervisor.suspects_total t.sup;
    fenced = t.fenced;
  }

let run_lines cfg ~spawn lines =
  let remaining = ref lines in
  let out = ref [] in
  let olock = Mutex.create () in
  let transport =
    (module struct
      let recv () =
        match !remaining with
        | [] -> None
        | l :: tl ->
            remaining := tl;
            Some l

      let send l =
        Mutex.lock olock;
        out := l :: !out;
        Mutex.unlock olock
    end : Service.TRANSPORT)
  in
  let r = serve cfg ~spawn transport in
  (List.rev !out, r)

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
  Printf.bprintf b "dispatch: %d forwarded, %d split into %d sub-jobs\n"
    r.forwards r.splits r.subjobs;
  Printf.bprintf b "heartbeats: %d" r.heartbeats;
  (if r.suspects > 0 || r.fenced > 0 then
     Printf.bprintf b "\nsupervision: %d suspect transitions, %d fenced replies"
       r.suspects r.fenced);
  (match m.Metrics.latency with
  | None -> ()
  | Some l ->
      Printf.bprintf b
        "\nlatency ms: p50 %.2f  p95 %.2f  max %.2f  (%d responses)"
        l.Metrics.p50_ms l.Metrics.p95_ms l.Metrics.max_ms l.Metrics.count);
  Buffer.contents b
