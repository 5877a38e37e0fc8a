module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Dag = Suu_dag.Dag
module Policy = Suu_core.Policy

type weighting = Uniform | Descendants | Critical_path

let weights inst = function
  | Uniform -> Array.make (Instance.n inst) 1.
  | Descendants ->
      (* Count true descendants via reachability (descendant_counts is only
         exact on forests). *)
      let dag = Instance.dag inst in
      let r = Dag.reachable dag in
      Array.init (Instance.n inst) (fun j ->
          let count = ref 0 in
          Array.iter (fun reachable -> if reachable then incr count) r.(j);
          Float.of_int (1 + !count))
  | Critical_path ->
      let dag = Instance.dag inst in
      let n = Instance.n inst in
      let depth = Array.make n 1 in
      let topo = Dag.topo_order dag in
      for k = n - 1 downto 0 do
        let u = topo.(k) in
        List.iter
          (fun v -> if depth.(v) + 1 > depth.(u) then depth.(u) <- depth.(v) + 1)
          (Dag.succs dag u)
      done;
      Array.map Float.of_int depth

(* The instance's cached pair order re-ranked by p_ij · w_j (descending;
   ties by machine then job), materialised as permuted pair arrays.
   Computed once per weight vector — per policy, not per step. *)
let ranked_pairs inst ~weights =
  let ps, ms, js = Instance.sorted_pairs inst in
  let order = Array.init (Array.length ps) (fun q -> q) in
  let score q = ps.(q) *. weights.(js.(q)) in
  Array.sort
    (fun a b ->
      match Float.compare (score b) (score a) with
      | 0 -> compare (ms.(a), js.(a)) (ms.(b), js.(b))
      | c -> c)
    order;
  let permute xs = Array.map (fun q -> xs.(q)) order in
  (permute ps, permute ms, permute js)

let assign inst ~weights ~jobs =
  let n = Instance.n inst and m = Instance.m inst in
  if Array.length weights <> n then
    invalid_arg "Weighted_msm.assign: weights length mismatch";
  if Array.length jobs <> n then
    invalid_arg "Weighted_msm.assign: jobs length mismatch";
  let g_probs, g_machines, g_jobs = ranked_pairs inst ~weights in
  let a = Assignment.idle m in
  Policy.greedy_assign_into
    { Policy.g_probs; g_machines; g_jobs; g_n = n; g_m = m }
    ~eligible:jobs ~mass:(Array.make n 0.) a;
  a

let name_of = function
  | Uniform -> "msm-uniform"
  | Descendants -> "msm-descendants"
  | Critical_path -> "msm-critical-path"

let policy ?(weighting = Critical_path) inst =
  let probs, machines, jobs =
    ranked_pairs inst ~weights:(weights inst weighting)
  in
  Policy.of_greedy_pairs (name_of weighting) ~n:(Instance.n inst)
    ~m:(Instance.m inst) ~probs ~machines ~jobs
