module Instance = Suu_core.Instance
module Lp = Suu_lp.Lp
module Simplex = Suu_lp.Simplex

type fractional = {
  x : float array array;
  d : float array;
  t_star : float;
  jobs : int list;
  chains : int list list;
}

exception Lp_failure of string

let mass_target = 0.5

let check_chains inst chains =
  let n = Instance.n inst in
  let seen = Array.make n false in
  List.iter
    (List.iter (fun j ->
         if j < 0 || j >= n then invalid_arg "Lp_relax: job out of range";
         if seen.(j) then invalid_arg "Lp_relax: job in two chains";
         seen.(j) <- true))
    chains

(* Build the relaxation: [with_windows] selects (LP1) (window variables
   and chain constraints) versus (LP2). Returns the problem with its job
   subset and the x_ij and d_j variable indices. *)
let build inst ~chains ~with_windows =
  check_chains inst chains;
  let m = Instance.m inst in
  let jobs = List.concat chains |> List.sort compare in
  let b = Lp.builder () in
  let t_var = Lp.add_var b ~obj:1. "t" in
  (* x variables only where p_ij > 0. *)
  let x_vars = Hashtbl.create 256 in
  List.iter
    (fun j ->
      for i = 0 to m - 1 do
        if Instance.prob inst ~machine:i ~job:j > 0. then
          Hashtbl.add x_vars (i, j)
            (Lp.add_var b (Printf.sprintf "x_%d_%d" i j))
      done)
    jobs;
  let d_vars = Hashtbl.create 64 in
  if with_windows then
    List.iter
      (fun j -> Hashtbl.add d_vars j (Lp.add_var b (Printf.sprintf "d_%d" j)))
      jobs;
  (* (1) mass: Σ_i p_ij x_ij >= 1/2. *)
  List.iter
    (fun j ->
      let terms = ref [] in
      for i = 0 to m - 1 do
        match Hashtbl.find_opt x_vars (i, j) with
        | Some v ->
            terms := (v, Instance.prob inst ~machine:i ~job:j) :: !terms
        | None -> ()
      done;
      Lp.add_ge b !terms mass_target)
    jobs;
  (* (2) machine load: Σ_j x_ij <= t. *)
  for i = 0 to m - 1 do
    let terms = ref [ (t_var, -1.) ] in
    List.iter
      (fun j ->
        match Hashtbl.find_opt x_vars (i, j) with
        | Some v -> terms := (v, 1.) :: !terms
        | None -> ())
      jobs;
    if List.length !terms > 1 then Lp.add_le b !terms 0.
  done;
  if with_windows then begin
    (* (3) chain length: Σ_{j ∈ C_k} d_j <= t. *)
    List.iter
      (fun chain ->
        let terms =
          (t_var, -1.) :: List.map (fun j -> (Hashtbl.find d_vars j, 1.)) chain
        in
        Lp.add_le b terms 0.)
      chains;
    (* (4) x_ij <= d_j and (5) d_j >= 1. *)
    Hashtbl.iter
      (fun (_, j) xv -> Lp.add_le b [ (xv, 1.); (Hashtbl.find d_vars j, -1.) ] 0.)
      x_vars;
    List.iter (fun j -> Lp.add_ge b [ (Hashtbl.find d_vars j, 1.) ] 1.) jobs
  end;
  (Lp.build b `Minimize, jobs, x_vars, d_vars)

let relaxation inst ~chains ~windows =
  let problem, _, _, _ = build inst ~chains ~with_windows:windows in
  problem

let solve inst ~chains ~with_windows =
  let m = Instance.m inst and n = Instance.n inst in
  let problem, jobs, x_vars, d_vars = build inst ~chains ~with_windows in
  let name = if with_windows then "(LP1)" else "(LP2)" in
  (* (LP1)/(LP2) are feasible and bounded for every valid instance, so
     any other outcome is numerical: e.g. every p_ij below the pivot
     tolerance leaves no usable pivot in a mass row. *)
  match Simplex.solve problem with
  | Simplex.Infeasible ->
      raise
        (Lp_failure
           (name ^ " is numerically infeasible at the simplex pivot tolerance"))
  | Simplex.Unbounded -> raise (Lp_failure (name ^ " is numerically unbounded"))
  | exception Simplex.Iteration_limit ->
      raise (Lp_failure (name ^ " hit the simplex iteration limit"))
  | Simplex.Optimal { objective; solution } ->
      let x = Array.make_matrix m n 0. in
      Hashtbl.iter
        (fun (i, j) v -> x.(i).(j) <- Float.max 0. solution.(v))
        x_vars;
      let d = Array.make n 0. in
      if with_windows then
        Hashtbl.iter (fun j v -> d.(j) <- Float.max 0. solution.(v)) d_vars
      else
        (* For (LP2) report the implied window: the max steps any machine
           spends on the job. *)
        List.iter
          (fun j ->
            for i = 0 to m - 1 do
              if x.(i).(j) > d.(j) then d.(j) <- x.(i).(j)
            done)
          jobs;
      { x; d; t_star = objective; jobs; chains = (if with_windows then chains else []) }

let solve_chains inst ~chains = solve inst ~chains ~with_windows:true

let solve_independent inst ~jobs =
  solve inst ~chains:(List.map (fun j -> [ j ]) jobs) ~with_windows:false

let verify inst frac =
  let m = Instance.m inst in
  let eps = 1e-6 in
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun j ->
      let mass = ref 0. in
      for i = 0 to m - 1 do
        if frac.x.(i).(j) < -.eps then note "x_%d_%d negative" i j;
        mass := !mass +. (Instance.prob inst ~machine:i ~job:j *. frac.x.(i).(j))
      done;
      if !mass < mass_target -. eps then note "job %d mass %g < 1/2" j !mass)
    frac.jobs;
  for i = 0 to m - 1 do
    let load = ref 0. in
    List.iter (fun j -> load := !load +. frac.x.(i).(j)) frac.jobs;
    if !load > frac.t_star +. eps then
      note "machine %d load %g > t*=%g" i !load frac.t_star
  done;
  List.iter
    (fun chain ->
      let total = List.fold_left (fun acc j -> acc +. frac.d.(j)) 0. chain in
      if total > frac.t_star +. eps then
        note "chain length %g > t*=%g" total frac.t_star;
      List.iter
        (fun j ->
          if frac.d.(j) < 1. -. eps then note "d_%d = %g < 1" j frac.d.(j);
          for i = 0 to m - 1 do
            if frac.x.(i).(j) > frac.d.(j) +. eps then
              note "x_%d_%d = %g > d_%d = %g" i j frac.x.(i).(j) j frac.d.(j)
          done)
        chain)
    frac.chains;
  match !problems with [] -> Ok () | p :: _ -> Error p
