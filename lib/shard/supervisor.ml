module Fault = Suu_service.Fault

(* Shard lifecycle owner. The paper schedules jobs on machines that
   fail permanently; the serving layer's workers fail the same way —
   but one level up we can do what the paper's scheduler cannot:
   replace the machine. The supervisor owns that loop:

     spawn -> Healthy -> (missed beats) Suspect -> Dead
                 ^                                   |
                 |   (budget + backoff)              v
              Rejoined  <-------------------   Respawning

   Every transition out of the live states bumps the slot's *epoch*.
   The epoch is the fence: work dispatched to epoch e is only accepted
   back while the slot is still at epoch e, so a zombie — a worker
   presumed dead whose late answers still arrive after its work was
   re-dispatched — cannot smuggle a duplicate or stale response past
   the exactly-once ordering layer.

   Locking: the supervisor has one lock, ordered *under* the
   coordinator's lock and *above* client locks. No callback ever runs
   under it — every query returns action lists (who to beat, who to
   fence, who to respawn) for the caller to execute lock-free. The
   only deliberately slow operation, [respawn]'s process spawn, runs
   with no lock held at all. *)

type state = Healthy | Suspect | Dead | Respawning | Rejoined

(* Routable = requests may be dispatched there. Suspicion is a hunch,
   not a verdict: a Suspect shard keeps serving until beats confirm
   death, and a Rejoined shard serves immediately. *)
let routable_state = function
  | Healthy | Suspect | Rejoined -> true
  | Dead | Respawning -> false

type slot = {
  sid : int;
  mutable client : Client.t;
  mutable epoch : int;  (* death count; bumped at fence time *)
  mutable st : state;
  mutable respawns : int;  (* consumed respawn attempts *)
  mutable misses : int;  (* consecutive unanswered heartbeats *)
  mutable hb_outstanding : bool;
  mutable respawn_at : float;  (* wall-clock; meaningful when Dead *)
}

type config = {
  shards : int;
  respawn_budget : int;  (* respawn attempts per shard; 0 = degrade only *)
  respawn_backoff_ms : float;
  suspect_after : int;  (* missed beats before Suspect *)
  dead_after : int;  (* missed beats before Dead *)
  fault : Fault.spec;  (* jitter seeding — keeps chaos runs replayable *)
}

type t = {
  cfg : config;
  spawn : int -> Client.t;
  lock : Mutex.t;
  slots : slot array;
  mutable zombies : Client.t list;
      (* fenced-out clients, kept for reader join at shutdown *)
  mutable respawns_total : int;
  mutable suspects_total : int;
}

let create cfg ~spawn =
  let slots =
    Array.init cfg.shards (fun sid ->
        {
          sid;
          client = spawn sid;
          epoch = 0;
          st = Healthy;
          respawns = 0;
          misses = 0;
          hb_outstanding = false;
          respawn_at = 0.;
        })
  in
  {
    cfg;
    spawn;
    lock = Mutex.create ();
    slots;
    zombies = [];
    respawns_total = 0;
    suspects_total = 0;
  }

let with_lock t f = Mutex.protect t.lock f

let shards t = t.cfg.shards

(* Keyed by (shard, attempt) so a chaos replay schedules the same
   delays. *)
let backoff_s cfg ~sid ~attempt =
  Fault.backoff_s cfg.fault ~base_ms:cfg.respawn_backoff_ms ~cap_ms:500.
    ~key:(0x5A5A + (sid * 131) + attempt)
    ~attempt

(* --- routing queries --------------------------------------------------- *)

let checkout t i =
  with_lock t (fun () ->
      let s = t.slots.(i) in
      if routable_state s.st && Client.alive s.client then
        Some (s.client, s.epoch)
      else None)

let routable t i =
  with_lock t (fun () ->
      let s = t.slots.(i) in
      routable_state s.st && Client.alive s.client)

let routable_indices t =
  with_lock t (fun () ->
      Array.to_list t.slots
      |> List.filter_map (fun s ->
             if routable_state s.st && Client.alive s.client then Some s.sid
             else None))

(* Whether waiting can still help: some shard is serving, or could be
   brought back within its budget. When this turns false the fleet is
   permanently empty and queued work must fail rather than wait. *)
let slot_recoverable cfg s =
  match s.st with
  | Healthy | Suspect | Rejoined -> Client.alive s.client
  | Respawning -> true
  | Dead -> s.respawns < cfg.respawn_budget

let can_recover t =
  with_lock t (fun () ->
      Array.exists (slot_recoverable t.cfg) t.slots)

let healing t =
  with_lock t (fun () ->
      Array.exists
        (fun s ->
          match s.st with
          | Respawning -> true
          | Dead -> s.respawns < t.cfg.respawn_budget
          | Healthy | Suspect | Rejoined -> false)
        t.slots)

(* --- death and fencing ------------------------------------------------- *)

let note_death t i ~epoch ~now =
  with_lock t (fun () ->
      let s = t.slots.(i) in
      if s.epoch <> epoch || not (routable_state s.st) then `Stale
      else begin
        let old = s.client in
        s.st <- Dead;
        s.epoch <- s.epoch + 1;
        s.misses <- 0;
        s.hb_outstanding <- false;
        if s.respawns < t.cfg.respawn_budget then
          s.respawn_at <-
            now +. backoff_s t.cfg ~sid:i ~attempt:s.respawns;
        t.zombies <- old :: t.zombies;
        `Fenced old
      end)

(* --- heartbeats -------------------------------------------------------- *)

(* One beat tick. Returns who to ping now — (index, epoch), the epoch
   riding along so the pong can be fence-checked — and who has missed
   enough consecutive beats to be declared dead; the caller routes the
   latter through its shard-loss path (which calls {!note_death}).
   Suspicion is handled internally: it changes no routing, only the
   state label and a counter. *)
let begin_beats t =
  with_lock t (fun () ->
      let beat = ref [] and expired = ref [] in
      Array.iter
        (fun s ->
          if routable_state s.st && Client.alive s.client then
            if s.hb_outstanding then begin
              s.misses <- s.misses + 1;
              if s.misses >= t.cfg.dead_after then
                expired := (s.sid, s.epoch) :: !expired
              else begin
                (if s.misses >= t.cfg.suspect_after
                    && (s.st = Healthy || s.st = Rejoined) then begin
                   s.st <- Suspect;
                   t.suspects_total <- t.suspects_total + 1
                 end);
                beat := (s.sid, s.epoch) :: !beat
              end
            end
            else begin
              s.hb_outstanding <- true;
              beat := (s.sid, s.epoch) :: !beat
            end)
        t.slots;
      (List.rev !beat, List.rev !expired))

let pong t i ~epoch =
  with_lock t (fun () ->
      let s = t.slots.(i) in
      if s.epoch = epoch && routable_state s.st then begin
        s.hb_outstanding <- false;
        s.misses <- 0;
        if s.st = Suspect || s.st = Rejoined then s.st <- Healthy
      end)

(* --- respawn ----------------------------------------------------------- *)

let due_respawns t ~now =
  with_lock t (fun () ->
      Array.to_list t.slots
      |> List.filter_map (fun s ->
             if
               s.st = Dead
               && s.respawns < t.cfg.respawn_budget
               && now >= s.respawn_at
             then begin
               s.st <- Respawning;
               Some s.sid
             end
             else None))

(* Spawn runs with NO lock held — it forks a process, dials a socket,
   or builds a domain, all slow. The slot is parked in [Respawning]
   meanwhile, which is unroutable and not [due], so nobody races us.
   A failed spawn (I/O-class only; Out_of_memory etc. propagate)
   consumes the attempt and re-arms the backoff clock. *)
let respawn t i ~now =
  match t.spawn i with
  | client ->
      with_lock t (fun () ->
          let s = t.slots.(i) in
          s.client <- client;
          s.st <- Rejoined;
          s.respawns <- s.respawns + 1;
          s.misses <- 0;
          s.hb_outstanding <- false;
          t.respawns_total <- t.respawns_total + 1);
      true
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      with_lock t (fun () ->
          let s = t.slots.(i) in
          s.respawns <- s.respawns + 1;
          s.st <- Dead;
          if s.respawns < t.cfg.respawn_budget then
            s.respawn_at <-
              now +. backoff_s t.cfg ~sid:i ~attempt:s.respawns);
      false

(* --- introspection ----------------------------------------------------- *)

let respawns_total t = with_lock t (fun () -> t.respawns_total)
let suspects_total t = with_lock t (fun () -> t.suspects_total)

let snapshot t =
  with_lock t (fun () ->
      Array.map (fun s -> (s.st, s.epoch, s.respawns)) t.slots)

let live_count t =
  with_lock t (fun () ->
      Array.fold_left
        (fun n s ->
          if routable_state s.st && Client.alive s.client then n + 1 else n)
        0 t.slots)

let clients t = with_lock t (fun () -> Array.to_list (Array.map (fun s -> s.client) t.slots))

let drain_zombies t =
  with_lock t (fun () ->
      let z = t.zombies in
      t.zombies <- [];
      z)
