module Instance = Suu_core.Instance
module Policy = Suu_core.Policy

(* Expected duration of job [j] on machine [i] in steps: 1/p_ij. *)
let duration inst ~machine ~job =
  let p = Instance.prob inst ~machine ~job in
  if p > 0. then 1. /. p else infinity

exception Too_expensive of string

let assignment inst =
  let n = Instance.n inst and m = Instance.m inst in
  let best =
    Array.init n (fun j ->
        let d = ref infinity in
        for i = 0 to m - 1 do
          let di = duration inst ~machine:i ~job:j in
          if di < !d then d := di
        done;
        !d)
  in
  (* LPT over best-case durations: placing the expensive jobs first keeps
     the greedy balance honest; ties break on job index. *)
  let order = Array.init n (fun j -> j) in
  Array.sort
    (fun j1 j2 ->
      let c = compare best.(j2) best.(j1) in
      if c <> 0 then c else compare j1 j2)
    order;
  let load = Array.make m 0. in
  let pinned = Array.make n (-1) in
  Array.iter
    (fun j ->
      let bi = ref (-1) and bc = ref infinity in
      for i = 0 to m - 1 do
        let d = duration inst ~machine:i ~job:j in
        if d < infinity then begin
          let c = load.(i) +. d in
          if c < !bc then begin
            bc := c;
            bi := i
          end
        end
      done;
      (* Every job has a machine with p > 0, but 1/p or the load sum can
         overflow: then no machine has a finite load to compare. *)
      if !bi < 0 then
        raise
          (Too_expensive
             (Printf.sprintf
                "job %d has no machine with a finite expected load (best p \
                 %g)"
                j (Instance.best_prob inst j)));
      pinned.(j) <- !bi;
      load.(!bi) <- !bc)
    order;
  pinned

let policy inst =
  let n = Instance.n inst and m = Instance.m inst in
  let pinned = assignment inst in
  (* One pair per job, ordered SEPT so each machine's scan hits its
     shortest eligible pinned job first; ties break on job index. *)
  let order = Array.init n (fun j -> j) in
  Array.sort
    (fun j1 j2 ->
      let d1 = duration inst ~machine:pinned.(j1) ~job:j1
      and d2 = duration inst ~machine:pinned.(j2) ~job:j2 in
      let c = compare d1 d2 in
      if c <> 0 then c else compare j1 j2)
    order;
  Policy.of_greedy_pairs "suu-fixed" ~n ~m
    ~probs:
      (Array.map (fun j -> Instance.prob inst ~machine:pinned.(j) ~job:j) order)
    ~machines:(Array.map (fun j -> pinned.(j)) order)
    ~jobs:order
