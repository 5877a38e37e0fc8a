(** Shard lifecycle owner: detection, fencing, respawn.

    The paper's machines fail permanently and its scheduler can only
    route around them; one level up, the serving layer can also
    {e replace} the machine. The supervisor owns that loop:

    {v
      spawn -> Healthy -> (missed beats) Suspect -> Dead
                  ^                                  |
                  |      (budget + backoff)          v
               Rejoined  <-----------------     Respawning
    v}

    {b Epoch fencing.} Every slot carries an epoch (its death count).
    Work is dispatched tagged with the epoch it was checked out under;
    a death bumps the epoch, so late answers from the presumed-dead
    worker — a {e zombie} — fail the epoch check and are discarded,
    keeping responses exactly-once even though its in-flight work was
    re-dispatched to survivors.

    {b Locking.} One internal lock, ordered under the coordinator's
    lock and above client locks. No user code runs under it: queries
    return action lists (who to beat, who to fence, who to respawn)
    that the caller executes lock-free. {!respawn} runs the spawn
    closure with no lock held at all. *)

type state = Healthy | Suspect | Dead | Respawning | Rejoined

val routable_state : state -> bool
(** [Healthy], [Suspect] and [Rejoined] are routable: suspicion is a
    hunch, not a verdict, and a rejoined shard serves immediately. *)

type config = {
  shards : int;
  respawn_budget : int;
      (** respawn attempts per shard; [0] preserves the degrade-only
          behaviour of a fleet that only shrinks *)
  respawn_backoff_ms : float;
      (** base of the capped-exponential respawn delay (cap 500 ms) *)
  suspect_after : int;  (** consecutive missed beats before [Suspect] *)
  dead_after : int;  (** consecutive missed beats before [Dead] *)
  fault : Suu_service.Fault.spec;
      (** jitter seeding — respawn delays are a pure function of
          (seed, shard, attempt), so chaos runs replay identically *)
}

type t

val create : config -> spawn:(int -> Client.t) -> t
(** Spawns all [cfg.shards] initial clients via [spawn] (which is
    retained for respawn). A raise from an initial spawn propagates. *)

val shards : t -> int

(** {2 Routing queries} *)

val checkout : t -> int -> (Client.t * int) option
(** The slot's client and current epoch iff routable — the atomic
    read every dispatch goes through; the epoch tags the work. *)

val routable : t -> int -> bool
val routable_indices : t -> int list

val can_recover : t -> bool
(** Some shard is serving, respawning, or still within its respawn
    budget. While true, queued work may wait for recovery; once false
    the fleet is permanently empty and waiting cannot help. *)

val healing : t -> bool
(** A respawn is in flight or scheduled. Shutdown waits on this so the
    fleet returns to full strength (bounded: finite budgets, capped
    backoff) before the final report. *)

(** {2 Death and fencing} *)

val note_death :
  t -> int -> epoch:int -> now:float -> [ `Fenced of Client.t | `Stale ]
(** Report that the shard observed at [epoch] is dead. If the slot is
    still at that epoch and routable: transition to [Dead], bump the
    epoch, schedule the respawn clock (if budget remains), park the old
    client on the zombie list, and return it — the caller kills it and
    re-dispatches its in-flight work. [`Stale] means someone else
    already fenced this epoch (or the slot is already down): do
    nothing, the work was already rescued. *)

(** {2 Heartbeats} *)

val begin_beats : t -> (int * int) list * (int * int) list
(** One beat tick: [(beat, expired)]. [beat] is the [(index, epoch)]
    list to ping now — the epoch rides along so the pong is
    fence-checked. [expired] lists slots whose consecutive misses
    reached [dead_after]; route them through the shard-loss path
    ({!note_death}). Crossing [suspect_after] flips the label to
    [Suspect] internally (counted, still routable). *)

val pong : t -> int -> epoch:int -> unit
(** A beat answered. Ignored if the epoch no longer matches (zombie
    pong). Clears misses; [Suspect]/[Rejoined] settle to [Healthy]. *)

(** {2 Respawn} *)

val due_respawns : t -> now:float -> int list
(** Dead slots whose backoff clock has expired and whose budget
    remains; each is atomically marked [Respawning] (unroutable, not
    due again) and returned for the caller to {!respawn}. *)

val respawn : t -> int -> now:float -> bool
(** Run the spawn closure for a [Respawning] slot — with no lock held;
    spawning forks processes and dials sockets. On success the slot
    becomes [Rejoined] at its already-bumped epoch and is immediately
    routable. On an I/O-class spawn failure ([Unix_error] / [Sys_error]
    / [Failure]; anything else propagates) the attempt is consumed and
    the slot returns to [Dead] with the backoff re-armed. *)

(** {2 Introspection} *)

val respawns_total : t -> int
val suspects_total : t -> int

val snapshot : t -> (state * int * int) array
(** Per slot: (state, epoch, respawn attempts consumed). *)

val live_count : t -> int

val clients : t -> Client.t list
(** Current clients (one per slot) — for shutdown close/join. *)

val drain_zombies : t -> Client.t list
(** Fenced-out clients accumulated since the last drain. Their reader
    domains still need {!Client.join}; shutdown drains and joins. *)
