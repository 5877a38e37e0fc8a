module Instance = Suu_core.Instance
module Oblivious = Suu_core.Oblivious

type params = {
  mass_target : float;
  rounds_per_guess : int -> int;
  boost : bool;
  t0 : int;
}

let log2 x = Float.log x /. Float.log 2.

let tuned_params =
  {
    mass_target = 0.25;
    rounds_per_guess =
      (fun n -> max 1 (Float.to_int (Float.ceil (8. *. log2 (Float.of_int (max 2 n))))));
    boost = true;
    t0 = 1;
  }

(* The squaring ladder u_1 > u_2 > … of boost-phase sizes: u_{k+1} =
   ⌈√u_k⌉ until the sizes stop shrinking, then a final singleton phase.
   Squaring the survivor count each phase is what caps the ladder at
   O(log log u) phases — the shape of the follow-up paper's improvement
   (arXiv:0802.2418) over Algorithm 2's uniform O(log n) rounds. *)
let boost_ladder u0 =
  let rec grow acc u =
    let next = Float.to_int (Float.ceil (Float.sqrt (Float.of_int u))) in
    if next >= u || next <= 1 then
      if u > 1 then List.rev (1 :: acc) else List.rev acc
    else grow (u :: acc) next
  in
  if u0 <= 1 then [] else grow [] (Float.to_int (Float.ceil (Float.sqrt (Float.of_int u0))))

(* Hardest-first job order: ascending total rate Σ_i p_ij (ties by
   index), i.e. the jobs that accumulate mass slowest — the ones most
   likely to be the unfinished stragglers every later phase is for. The
   order is a function of the instance alone, so the schedule stays
   oblivious (Definition 2.3). *)
let hardness_order inst ~jobs =
  let flagged = ref [] in
  Array.iteri (fun j on -> if on then flagged := j :: !flagged) jobs;
  List.sort
    (fun a b ->
      let ra = Instance.total_rate inst a and rb = Instance.total_rate inst b in
      if ra < rb then -1 else if ra > rb then 1 else compare a b)
    (List.rev !flagged)

(* The ladder concentrates machines on the predicted stragglers — which
   only exist when the rate profile actually spreads. On a near-uniform
   profile every job is equally likely to linger, the "hardest" set is
   arbitrary, and each ladder step just delays the tail for whichever
   jobs actually survived; so the boost is gated on a 2x spread between
   the slowest and fastest flagged job. *)
let boost_pays inst ~jobs =
  let lo = ref infinity and hi = ref 0. in
  Array.iteri
    (fun j on ->
      if on then begin
        let r = Instance.total_rate inst j in
        if r < !lo then lo := r;
        if r > !hi then hi := r
      end)
    jobs;
  !hi >= 2. *. !lo

type build = {
  core : Oblivious.t;  (** base phase + boost phases appended *)
  base : Oblivious.t;  (** the base phase alone (the repeatable part) *)
  final_t : int;
  phases : int;  (** base phase + boost phases appended *)
}

(* An improved core for the flagged jobs. Base phase: Algorithm 2's
   round loop (shared {!Accum} substrate) brings every flagged job to
   the target mass. Boost phases: for each ladder size u, re-run the
   loop over just the u hardest jobs — MSM-E-ALG then concentrates all
   m machines' steps on them, so stragglers collect a full extra target
   of mass per phase at a fraction of the base phase's length. Each
   phase keeps the guess length that already proved feasible and only
   grows it (doubling) if the subset somehow needs more. *)
let core_for ?(params = tuned_params) inst ~jobs =
  let m = Instance.m inst in
  let count = Array.fold_left (fun acc j -> if j then acc + 1 else acc) 0 jobs in
  if count = 0 then
    let empty = Oblivious.finite ~m [||] in
    { core = empty; base = empty; final_t = 0; phases = 0 }
  else begin
    let max_rounds = params.rounds_per_guess count in
    let phase ~jobs ~t0 =
      let attempt t =
        let o =
          Accum.accumulate inst ~jobs ~t ~mass_target:params.mass_target
            ~max_rounds ~early_exit:true
        in
        if o.Accum.deficient_count > 0 then None else Some o
      in
      let o, final_t, _ =
        Accum.doubling_guess inst ~jobs ~mass_target:params.mass_target ~t0
          ~attempt
      in
      (o.Accum.core, final_t)
    in
    let base_core, base_t = phase ~jobs ~t0:params.t0 in
    if not (params.boost && boost_pays inst ~jobs) then
      { core = base_core; base = base_core; final_t = base_t; phases = 1 }
    else begin
      let order = hardness_order inst ~jobs in
      let phase_for u =
        let mask = Array.make (Instance.n inst) false in
        List.iteri (fun k j -> if k < u then mask.(j) <- true) order;
        phase ~jobs:mask ~t0:base_t
      in
      let ladder = boost_ladder count in
      let core, phases =
        List.fold_left
          (fun (acc, k) u ->
            let piece, _ = phase_for u in
            (Oblivious.append acc piece, k + 1))
          (base_core, 1) ladder
      in
      { core; base = base_core; final_t = base_t; phases }
    end
  end

let build ?params inst = core_for ?params inst ~jobs:(Accum.all_jobs inst)

(* Which infinite tail kills the slowest job fastest? Two oblivious
   candidates:

   - repeating the base phase: every job collects >= mass_target per
     [base_len] steps (that is the phase's invariant), so the worst
     per-step hazard rate is [mass_target / base_len];
   - the paper's concentration tail ({!Oblivious.cycle_all_jobs}, all
     [m] machines on one job, cycling in topological order): job [j]
     collects min(1, sum_i p_ij) per [n] steps, so the worst rate is
     [min_j min(1, total_rate j) / n].

   Concentration wins on dense uniform instances (the capped mass 1 per
   visit dwarfs the shared-phase target) and loses whenever one job's
   total rate is so small that even every machine at once barely moves
   it. Both rates are functions of the instance alone — never of trial
   outcomes — so choosing between them keeps the schedule oblivious
   (Definition 2.3). *)
let concentration_tail_wins inst ~base_len =
  let n = Instance.n inst in
  if n = 0 || base_len = 0 then false
  else begin
    let min_rate = ref infinity in
    for j = 0 to n - 1 do
      let r = Float.min 1. (Instance.total_rate inst j) in
      if r < !min_rate then min_rate := r
    done;
    !min_rate /. Float.of_int n
    >= tuned_params.mass_target /. Float.of_int base_len
  end

(* The schedule: run the boosted core once (the ladder's concentrated
   help for likely stragglers pays once, up front — repeating it would
   stretch every later cycle for jobs that are long dead), then settle
   into the better of the two infinite tails. *)
let schedule ?params inst =
  let r = build ?params inst in
  let m = Instance.m inst in
  let base_len = Oblivious.prefix_length r.base in
  if Array.length r.core.Oblivious.prefix = 0 then r.core
  else if concentration_tail_wins inst ~base_len then
    Oblivious.with_fallback inst (Oblivious.finite ~m r.core.Oblivious.prefix)
  else
    Oblivious.create ~m ~cycle:r.base.Oblivious.prefix r.core.Oblivious.prefix

let policy ?params inst =
  Suu_core.Policy.of_oblivious "suu-imp" (schedule ?params inst)
