type state = {
  step : int;
  unfinished : bool array;
  eligible : bool array;
}

type greedy = {
  g_probs : float array;
  g_machines : int array;
  g_jobs : int array;
  g_n : int;
  g_m : int;
}

type structure =
  | Oblivious_schedule of Oblivious.t
  | Greedy_pairs of greedy
  | General

type t = {
  name : string;
  structure : structure;
  fresh : unit -> state -> Assignment.t;
}

let make name fresh = { name; structure = General; fresh }

let of_oblivious name sched =
  {
    name;
    structure = Oblivious_schedule sched;
    fresh = (fun () state -> Oblivious.step sched state.step);
  }

(* The mass cap of the greedy scan, shared with the engine's vectorized
   kernel so both execute the identical policy: a machine joins a job
   only while the job's accumulated mass stays within 1 (+ float
   slack). *)
let greedy_mass_cap = 1. +. 1e-12

let greedy_assign_into g ~eligible ~mass a =
  Array.fill a 0 g.g_m Assignment.idle_job;
  Array.fill mass 0 g.g_n 0.;
  for k = 0 to Array.length g.g_probs - 1 do
    let j = g.g_jobs.(k) in
    if eligible.(j) then begin
      let i = g.g_machines.(k) in
      let p = g.g_probs.(k) in
      if a.(i) = Assignment.idle_job && mass.(j) +. p <= greedy_mass_cap
      then begin
        a.(i) <- j;
        mass.(j) <- mass.(j) +. p
      end
    end
  done

let of_greedy_pairs name ~n ~m ~probs ~machines ~jobs =
  let k = Array.length probs in
  if Array.length machines <> k || Array.length jobs <> k then
    invalid_arg "Policy.of_greedy_pairs: parallel arrays disagree";
  Array.iter
    (fun j -> if j < 0 || j >= n then invalid_arg "Policy.of_greedy_pairs: job out of range")
    jobs;
  Array.iter
    (fun i -> if i < 0 || i >= m then invalid_arg "Policy.of_greedy_pairs: machine out of range")
    machines;
  let g = { g_probs = probs; g_machines = machines; g_jobs = jobs; g_n = n; g_m = m } in
  {
    name;
    structure = Greedy_pairs g;
    fresh =
      (fun () ->
        (* Scratch per execution, so the per-step scan allocates nothing. *)
        let a = Assignment.idle m in
        let mass = Array.make n 0. in
        fun state ->
          greedy_assign_into g ~eligible:state.eligible ~mass a;
          a);
  }

let of_regimen name f =
  { name; structure = General; fresh = (fun () state -> f state.unfinished) }

let stateless name f = { name; structure = General; fresh = (fun () -> f) }

let oblivious t =
  match t.structure with Oblivious_schedule s -> Some s | _ -> None

let greedy t = match t.structure with Greedy_pairs g -> Some g | _ -> None
