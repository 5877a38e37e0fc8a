module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Policy = Suu_core.Policy

(* One pass of the shared greedy scan over the cached sorted pairs. *)
let assign inst ~jobs =
  let n = Instance.n inst and m = Instance.m inst in
  if Array.length jobs <> n then
    invalid_arg "Msm.assign: jobs length mismatch";
  let g_probs, g_machines, g_jobs = Instance.sorted_pairs inst in
  let a = Assignment.idle m in
  Policy.greedy_assign_into
    { Policy.g_probs; g_machines; g_jobs; g_n = n; g_m = m }
    ~eligible:jobs ~mass:(Array.make n 0.) a;
  a

let total_mass inst a =
  let mass = Assignment.mass_added inst a in
  Array.fold_left (fun acc mj -> acc +. Float.min mj 1.) 0. mass

let optimal_mass_brute_force inst ~jobs =
  let m = Instance.m inst and n = Instance.n inst in
  let targets =
    Array.of_list
      (List.filter (fun j -> jobs.(j)) (List.init n (fun j -> j)))
  in
  let k = Array.length targets in
  let space = Float.of_int (k + 1) ** Float.of_int m in
  if space > 1e7 then
    invalid_arg "Msm.optimal_mass_brute_force: search space too large";
  let a = Assignment.idle m in
  let best = ref 0. in
  let rec search i =
    if i = m then best := Float.max !best (total_mass inst a)
    else begin
      a.(i) <- Assignment.idle_job;
      search (i + 1);
      Array.iter
        (fun j ->
          a.(i) <- j;
          search (i + 1))
        targets;
      a.(i) <- Assignment.idle_job
    end
  in
  search 0;
  !best
