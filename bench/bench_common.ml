(* Shared plumbing for the experiment suite. Every experiment prints an
   aligned table; EXPERIMENTS.md records the paper-vs-measured reading of
   each one. Trials can be scaled with SUU_BENCH_TRIALS (default 100). *)

module Instance = Suu_core.Instance
module Engine = Suu_sim.Engine
module Rng = Suu_prob.Rng

let trials =
  match Sys.getenv_opt "SUU_BENCH_TRIALS" with
  | Some s -> (try max 10 (int_of_string s) with Failure _ -> 100)
  | None -> 100

let master_seed = 20260705

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Print a table, and mirror it as CSV when SUU_BENCH_CSV names a
   directory (created on demand) — machine-readable artifacts of every
   experiment. *)
let table ~title ~header rows =
  Suu_harness.Table.print ~title ~header rows;
  match Sys.getenv_opt "SUU_BENCH_CSV" with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let slug =
        String.map
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
            | _ -> '-')
          (String.lowercase_ascii title)
      in
      Suu_harness.Csv.write
        ~path:(Filename.concat dir (slug ^ ".csv"))
        ~header rows

let note fmt = Printf.printf (fmt ^^ "\n")

let lower_bound ?(with_lp = true) inst =
  Suu_algo.Bounds.best (Suu_algo.Bounds.compute ~with_lp inst)

let mean_makespan ?max_steps ?(seed = master_seed) inst policy =
  let e =
    Engine.estimate_makespan ?max_steps ~trials
      (Rng.create (seed lxor Hashtbl.hash policy.Suu_core.Policy.name))
      inst policy
  in
  (e.Engine.stats.Suu_prob.Stats.mean, e.Engine.stats.Suu_prob.Stats.ci95)

let ratio_row ?seed inst ~lb policy =
  let mean, ci = mean_makespan ?seed inst policy in
  [
    policy.Suu_core.Policy.name;
    Printf.sprintf "%.2f ±%.2f" mean ci;
    Printf.sprintf "%.2f" (mean /. lb);
  ]

let uniform_instance seed ~n ~m ~lo ~hi dag =
  let rng = Rng.create seed in
  Instance.create
    ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng lo hi)))
    ~dag

let log2 x = Float.log x /. Float.log 2.

(* Job [j] of a job shop as a chain pseudo-schedule: its [(machine,
   duration)] operations become [(machine, j, start, duration)] windows,
   each starting where the previous one ended. *)
let shop_chain ~m j ops =
  let windows, length =
    List.fold_left
      (fun (acc, start) (machine, duration) ->
        ((machine, j, start, duration) :: acc, start + duration))
      ([], 0) ops
  in
  Suu_core.Pseudo.of_windows ~m ~length windows
