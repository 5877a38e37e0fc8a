(** Maximum flow with integral capacities (Dinic's algorithm).

    Used by the LP-rounding step of Theorem 4.1: the fractional solution of
    (LP1) is converted to an integral machine→job allocation by pushing an
    integral maximum flow through the network of Figure 3 of the paper.
    Integrality of the resulting allocation is exactly the Ford–Fulkerson
    integrality theorem the paper invokes.

    Dinic runs in O(V²E) in general and much faster on the shallow unit-ish
    networks we build; all capacities and flows are [int]s. *)

type t
(** A mutable flow network. *)

type edge
(** Identifier of a directed edge, as returned by [add_edge]. *)

val create : int -> t
(** [create n] is an empty network on vertices [0..n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> edge
(** Adds a directed edge with the given non-negative capacity and returns its
    identifier. Parallel edges and self-loops are permitted (a self-loop
    never carries flow). *)

val max_flow : t -> source:int -> sink:int -> int
(** [max_flow t ~source ~sink] computes a maximum [source]→[sink] flow and
    returns its value. The per-edge flows are readable afterwards with
    [flow]. Calling it again recomputes from the current residual state, so
    to re-run from scratch build a fresh network. *)

val flow : t -> edge -> int
(** Flow currently carried by an edge (after [max_flow]). *)

val capacity : t -> edge -> int
(** The capacity the edge was created with. *)

val min_cut_side : t -> source:int -> bool array
(** After [max_flow], the set of vertices reachable from [source] in the
    residual graph — the source side of a minimum cut. *)
