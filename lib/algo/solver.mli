(** One-stop solver: classify the precedence DAG and dispatch to the
    matching algorithm from the paper.

    | DAG class            | adaptive                      | oblivious                    |
    |----------------------|-------------------------------|------------------------------|
    | independent          | SUU-I-ALG (Thm 3.3)           | LP-based (Thm 4.5)           |
    | disjoint chains      | SUU-I-ALG policy (heuristic)  | chain pipeline (Thm 4.4)     |
    | out-/in-trees        | SUU-I-ALG policy (heuristic)  | tree pipeline (Thm 4.8)      |
    | directed forest      | SUU-I-ALG policy (heuristic)  | forest pipeline (Thm 4.7)    |
    | general              | SUU-I-ALG policy (heuristic)  | unsupported, or {!Layered}   |

    The paper gives guarantees only for the oblivious column (plus the
    independent adaptive case); the adaptive column generalises MSM greedy
    assignment to eligible jobs and is exposed as the practical default.

    [`Improved] dispatches to the follow-up paper's family
    (arXiv:0802.2418, {!Improved}/{!Phased}): one oblivious scheme for
    {e every} DAG class — level decomposition with the phase-ladder
    independent subroutine per level — so it never raises
    {!Unsupported}.

    [`Fixed] is the dynamic-environment index policy
    ({!Fixed_assignment}): a cheap regimen that pins each job to one
    machine, for online settings with release dates and machine churn.
    It supports every DAG class and never raises {!Unsupported}. *)

type kind = [ `Adaptive | `Oblivious | `Improved | `Fixed ]

exception Unsupported of string
(** Raised for [`Oblivious] on a general DAG unless [allow_heuristic] —
    the paper leaves this case open; {!Layered} only has a depth-dependent
    guarantee. *)

val solve :
  ?kind:kind ->
  ?allow_heuristic:bool ->
  ?params:Pipeline.params ->
  Suu_core.Instance.t ->
  Suu_core.Policy.t
(** Dispatch ([kind] defaults to [`Oblivious], the guaranteed column).
    With [allow_heuristic] (default [false]), general DAGs fall back to
    the {!Layered} level-decomposition schedule instead of raising. *)

val algorithm_name :
  ?kind:kind -> ?allow_heuristic:bool -> Suu_core.Instance.t -> string
(** Which algorithm [solve] would pick, for reporting. *)
