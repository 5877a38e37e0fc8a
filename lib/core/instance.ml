type t = {
  nm : int;
  nj : int;
  p : float array array;
  (* Row-major copy of [p]: [pflat.(i * nj + j)] = [p.(i).(j)]. The hot
     paths (simulation stepping, MSM scans) read success probabilities
     through this single unboxed float array instead of chasing the row
     pointer of [p]. *)
  pflat : float array;
  (* The positive-probability pairs by non-increasing [p_ij], ties
     broken by (machine, job) — the greedy processing order shared by
     the whole MSM algorithm family — as parallel (probability,
     machine, job) arrays, so a scan touches flat unboxed memory.
     Sorted on first use rather than in [create]: cache hits, [info]
     requests and non-greedy algorithms never read it. The sort is a
     pure function of [pflat], so when domains race, whichever
     publishes first wins and all see equal arrays. *)
  sorted : (float array * int array * int array) option Atomic.t;
  dag : Suu_dag.Dag.t;
}

(* Pair [a] precedes pair [b] (flat indices [i * n + j]): p descending,
   then index ascending — exactly the (machine, job) lexicographic
   tie-break. The (p, index) keys are distinct, so the order is total.
   Probabilities here are finite and positive, so [>] and [=] agree with
   [Float.compare]. *)
let[@inline] before (pflat : float array) (a : int) (b : int) =
  let pa = pflat.(a) and pb = pflat.(b) in
  pa > pb || (pa = pb && a < b)

(* Bottom-up merge sort of [src] by [before], with [buf] (same length)
   as the other half of the ping-pong: insertion-sorted runs of 8, then
   doubling merges. Returns whichever of the two arrays holds the
   result. The comparison is inlined: no closure, no allocation. *)
let sort_pairs pflat src buf =
  let k = Array.length src in
  let run = 8 in
  let lo = ref 0 in
  while !lo < k do
    let hi = min k (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = src.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && before pflat x src.(!j) do
        src.(!j + 1) <- src.(!j);
        decr j
      done;
      src.(!j + 1) <- x
    done;
    lo := hi
  done;
  let from = ref src and into = ref buf and width = ref run in
  while !width < k do
    let a = !from and d = !into in
    let lo = ref 0 in
    while !lo < k do
      let mid = min k (!lo + !width) in
      let hi = min k (mid + !width) in
      let i = ref !lo and j = ref mid in
      for o = !lo to hi - 1 do
        if !j >= hi || (!i < mid && before pflat a.(!i) a.(!j)) then begin
          d.(o) <- a.(!i);
          incr i
        end
        else begin
          d.(o) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    from := d;
    into := a;
    width := 2 * !width
  done;
  !from

let build_sorted_pairs ~m ~n pflat =
  let count = ref 0 in
  Array.iter (fun pij -> if pij > 0. then incr count) pflat;
  let k = !count in
  let sorted_p = Array.make k 0. in
  let sorted_machine = Array.make k 0 in
  let sorted_job = Array.make k 0 in
  (* The pair indices are sorted in [sorted_job], with [sorted_machine]
     as the merge buffer; the final pass reads slot q of the result
     before it overwrites slot q of either array. *)
  let w = ref 0 in
  for flat = 0 to (m * n) - 1 do
    if pflat.(flat) > 0. then begin
      sorted_job.(!w) <- flat;
      incr w
    end
  done;
  let idx = sort_pairs pflat sorted_job sorted_machine in
  for q = 0 to k - 1 do
    let flat = idx.(q) in
    sorted_p.(q) <- pflat.(flat);
    sorted_machine.(q) <- flat / n;
    sorted_job.(q) <- flat mod n
  done;
  (sorted_p, sorted_machine, sorted_job)

type error =
  | No_machines
  | Row_length_mismatch of { machine : int; expected : int; got : int }
  | Bad_probability of { machine : int; job : int; value : float }
  | Incapable_job of { job : int }

exception Invalid of error

let error_to_string = function
  | No_machines -> "Instance.create: no machines"
  | Row_length_mismatch { machine; expected; got } ->
      Printf.sprintf
        "Instance.create: machine %d has %d probabilities, expected %d"
        machine got expected
  | Bad_probability { machine; job; value } ->
      Printf.sprintf
        "Instance.create: probability p[%d][%d] = %g outside [0,1]" machine
        job value
  | Incapable_job { job } ->
      Printf.sprintf "Instance.create: job %d has no capable machine" job

let () =
  Printexc.register_printer (function
    | Invalid e -> Some (error_to_string e)
    | _ -> None)

(* First error in machine-major scan order, or [None] when [p] is a valid
   probability matrix for [n] jobs. NaN fails the [0 <= pij <= 1] test on
   its own, but the explicit finiteness check documents that infinities
   and NaN are hostile inputs, not merely out-of-range ones. *)
let validate ~n p =
  let m = Array.length p in
  if m = 0 then Some No_machines
  else begin
    let err = ref None in
    (try
       Array.iteri
         (fun i row ->
           if Array.length row <> n then begin
             err :=
               Some
                 (Row_length_mismatch
                    { machine = i; expected = n; got = Array.length row });
             raise Exit
           end;
           Array.iteri
             (fun j pij ->
               if not (Float.is_finite pij) || pij < 0. || pij > 1. then begin
                 err := Some (Bad_probability { machine = i; job = j; value = pij });
                 raise Exit
               end)
             row)
         p;
       for j = 0 to n - 1 do
         let capable = ref false in
         for i = 0 to m - 1 do
           if p.(i).(j) > 0. then capable := true
         done;
         if not !capable then begin
           err := Some (Incapable_job { job = j });
           raise Exit
         end
       done
     with Exit -> ());
    !err
  end

let create ~p ~dag =
  let n = Suu_dag.Dag.n dag in
  let m = Array.length p in
  (match validate ~n p with Some e -> raise (Invalid e) | None -> ());
  let pflat = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      pflat.((i * n) + j) <- p.(i).(j)
    done
  done;
  {
    nm = m;
    nj = n;
    p = Array.map Array.copy p;
    pflat;
    sorted = Atomic.make None;
    dag;
  }

let create_checked ~p ~dag =
  match validate ~n:(Suu_dag.Dag.n dag) p with
  | Some e -> Error e
  | None -> Ok (create ~p ~dag)

let independent ~p =
  let n = if Array.length p = 0 then 0 else Array.length p.(0) in
  create ~p ~dag:(Suu_dag.Dag.empty n)

let n t = t.nj
let m t = t.nm
let dag t = t.dag
let prob t ~machine ~job = t.pflat.((machine * t.nj) + job)
let sorted_pairs t =
  match Atomic.get t.sorted with
  | Some pairs -> pairs
  | None ->
      let pairs = build_sorted_pairs ~m:t.nm ~n:t.nj t.pflat in
      if Atomic.compare_and_set t.sorted None (Some pairs) then pairs
      else Option.get (Atomic.get t.sorted)

let probs_for_job t j = Array.init t.nm (fun i -> t.p.(i).(j))

let capable_machines t j =
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if t.p.(i).(j) > 0. then i :: acc else acc)
  in
  collect (t.nm - 1) []

let total_rate t j =
  let acc = ref 0. in
  for i = 0 to t.nm - 1 do
    acc := !acc +. t.p.(i).(j)
  done;
  !acc

let best_prob t j =
  let acc = ref 0. in
  for i = 0 to t.nm - 1 do
    if t.p.(i).(j) > !acc then acc := t.p.(i).(j)
  done;
  !acc

let best_machine t j =
  let best = ref 0 in
  for i = 1 to t.nm - 1 do
    if t.p.(i).(j) > t.p.(!best).(j) then best := i
  done;
  !best

let p_min t =
  let acc = ref 1. in
  Array.iter
    (Array.iter (fun pij -> if pij > 0. && pij < !acc then acc := pij))
    t.p;
  !acc

let machine_max_prob t i = Array.fold_left Float.max 0. t.p.(i)

let pp fmt t =
  Format.fprintf fmt "@[<v>instance n=%d m=%d dag=%a" (n t) t.nm
    Suu_dag.Classify.pp
    (Suu_dag.Classify.classify t.dag);
  for i = 0 to t.nm - 1 do
    Format.fprintf fmt "@,machine %d:" i;
    Array.iter (fun pij -> Format.fprintf fmt " %.3f" pij) t.p.(i)
  done;
  Format.fprintf fmt "@]"

let transpose_probs q =
  let nj = Array.length q in
  if nj = 0 then [||]
  else
    let nm = Array.length q.(0) in
    Array.init nm (fun i -> Array.init nj (fun j -> q.(j).(i)))
