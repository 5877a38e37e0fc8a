module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment

(* Core greedy scan, writing into caller-provided scratch: [a] receives
   the assignment, [mass] the accumulated per-job mass. O(nm) per call —
   one pass over the cached sorted pairs, no allocation. *)
let assign_into inst ~jobs ~mass a =
  if Array.length jobs <> Instance.n inst then
    invalid_arg "Msm.assign: jobs length mismatch";
  Array.fill a 0 (Array.length a) Assignment.idle_job;
  Array.fill mass 0 (Array.length mass) 0.;
  let ps, ms, js = Instance.sorted_pairs inst in
  for k = 0 to Array.length ps - 1 do
    let j = js.(k) in
    if jobs.(j) then begin
      let i = ms.(k) in
      let p = ps.(k) in
      if a.(i) = Assignment.idle_job && mass.(j) +. p <= 1. +. 1e-12 then begin
        a.(i) <- j;
        mass.(j) <- mass.(j) +. p
      end
    end
  done

let assign inst ~jobs =
  let a = Assignment.idle (Instance.m inst) in
  let mass = Array.make (Instance.n inst) 0. in
  assign_into inst ~jobs ~mass a;
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
