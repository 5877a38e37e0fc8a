(** Thread-safe LRU result cache.

    Repeated solves of the same instance dominate real serving workloads
    (the same DAG is re-submitted with the same parameters), so the
    service memoises finished answers keyed by a digest of
    [(instance text, algorithm, trials, seed)] — see {!Request.cache_key}. The
    cache here is generic: string keys, any value type.

    Eviction is least-recently-used: a hit refreshes the entry's
    recency; inserting beyond [capacity] drops the stalest entry. Hits
    and misses are counted for the service's metrics. A [capacity] of 0
    disables caching ({!find} always misses, {!add} is a no-op) without
    callers having to special-case it. All operations are safe across
    OCaml 5 domains. *)

type 'v t

val create : capacity:int -> 'v t
(** @raise Invalid_argument if [capacity < 0]. *)

val find : 'v t -> string -> 'v option
(** Lookup; counts a hit (and refreshes recency) or a miss. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or overwrite; evicts the least-recently-used entry when the
    capacity would be exceeded. *)

val length : 'v t -> int
val capacity : 'v t -> int
val hits : 'v t -> int
val misses : 'v t -> int
