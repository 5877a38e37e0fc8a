module Classify = Suu_dag.Classify

type kind = [ `Adaptive | `Oblivious | `Improved | `Fixed ]

exception Unsupported of string

let shape inst = Classify.classify (Suu_core.Instance.dag inst)

let algorithm_name ?(kind = `Oblivious) ?(allow_heuristic = false) inst =
  match kind with
  | `Adaptive -> "suu-i-alg"
  | `Improved -> "suu-imp"
  | `Fixed -> "suu-fixed"
  | `Oblivious -> (
      match shape inst with
      | Classify.Independent -> "lp-indep"
      | Classify.Chains -> "suu-c"
      | Classify.Out_trees | Classify.In_trees -> "suu-trees"
      | Classify.Forest -> "suu-forest"
      | Classify.General ->
          if allow_heuristic then "suu-layered" else "unsupported")

let solve ?(kind = `Oblivious) ?(allow_heuristic = false) ?params inst =
  match kind with
  | `Adaptive -> Suu_i.policy inst
  | `Improved ->
      (* The improved family ignores the Pipeline constants knob: its
         only tunables live in Phased.params. Supports every DAG. *)
      Improved.policy inst
  | `Fixed -> Fixed_assignment.policy inst
  | `Oblivious -> (
      match shape inst with
      | Classify.Independent ->
          let constants =
            Option.map (fun p -> p.Pipeline.constants) params
          in
          Lp_indep.policy ?constants inst
      | Classify.Chains -> Chains.policy ?params inst
      | Classify.Out_trees | Classify.In_trees -> Trees.policy ?params inst
      | Classify.Forest -> Forest.policy ?params inst
      | Classify.General ->
          if allow_heuristic then Layered.policy ?params inst
          else
            raise
              (Unsupported
                 "oblivious schedules for general DAGs are an open problem \
                  (paper §5); use ~kind:`Adaptive or ~allow_heuristic:true"))
