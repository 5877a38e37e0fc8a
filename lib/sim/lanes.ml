module Instance = Suu_core.Instance
module Assignment = Suu_core.Assignment
module Policy = Suu_core.Policy
module Oblivious = Suu_core.Oblivious
module Dag = Suu_dag.Dag
module Rng = Suu_prob.Rng
module Churn = Suu_dyn.Churn

(* Trial-batched Monte-Carlo kernel: one native int carries one
   completion bit per trial lane for a job, so the per-step inner loop
   becomes word-wide AND/OR/popcount instead of per-trial branching.

   OCaml native ints are 63-bit and unboxed, which is what keeps the hot
   loop allocation-free without flambda — so a word carries 63 lanes,
   not 64. All bit twiddling below works on the full 63-bit two's
   complement representation (the sign bit is lane 62).

   Two policy shapes are vectorizable:

   - [Cols]: oblivious schedules. Jobs are processed job-major in
     topological order, walking each job's schedule occurrences with
     word-wide Bernoulli masks while many lanes are undecided and
     switching to per-lane geometric skips (the leapfrog sampler,
     generalised) for the stragglers.
   - [Greedy]: greedy pair-scan regimens (MSM-ALG). The scan runs once
     per step across all lanes with word masks for machine-free /
     job-eligible state and a mass check over each job's per-step
     contribution slots, fusing the Bernoulli draw of each taken pair
     into the scan.

   The kernel is distribution-equivalent to the naive stepper, not
   stream-equivalent: masks draw from a private splitmix stream in a
   different order than the stepper. [run_word_ref] (greedy only)
   replays the stepper's draw order per lane and is bit-identical to
   [Engine.run] trials on the same generators — the test suite pins
   both faces. *)

let lanes_per_word = 63
let never = max_int
let two53 = 1 lsl 53

(* Bernoulli(p) success threshold over 53-bit uniforms: success iff
   U < thr, which has probability exactly ceil(p * 2^53) / 2^53 — the
   same acceptance set as [Rng.float rng < p] in the scalar path. *)
let[@inline] thr_of_prob p =
  if p <= 0. then 0
  else if p >= 1. then two53
  else begin
    (* [p * 2^53] is exact (a power-of-two scale) and below 2^53, where
       truncation plus a round-up step is the exact ceiling; kept free
       of C calls because [create] runs it once per greedy pair *)
    let x = p *. 0x1p53 in
    let t = Float.to_int x in
    let t = if Float.of_int t < x then t + 1 else t in
    if t > two53 then two53 else if t < 1 then 1 else t
  end

let inv_log1m p = if p >= 1. then 0. else 1. /. Float.log1p (-.p)

(* --- private native-int splitmix stream ----------------------------- *)

type stream = { mutable s : int }

let[@inline] sm_next st =
  st.s <- st.s + 0x1E3779B97F4A7C15;
  let z = st.s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14B46D4EFB95A1E3 in
  z lxor (z lsr 31)

let[@inline] sm_float st = Float.of_int (sm_next st lsr 10) *. 0x1p-53

(* Geometric(p) by inversion with cached 1/log(1-p); support 1, 2, ... *)
let[@inline] sm_geom st ilq =
  let u = sm_float st in
  let k = Float.to_int (Float.ceil (Float.log1p (-.u) *. ilq)) in
  if k < 1 then 1 else k

(* --- word utilities -------------------------------------------------- *)

let popcount x =
  let s = x lsr 62 in
  let x = x land max_int in
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  ((x * 0x0101010101010101) lsr 56) + s

(* Index of the single set bit of [b] (a power of two; bit 62 is the
   sign). Branchy binary search — no ctz intrinsic without C stubs. *)
let[@inline] bit_index b =
  if b < 0 then 62
  else begin
    let i = ref 0 and b = ref b in
    if !b land 0xFFFFFFFF = 0 then begin
      i := !i + 32;
      b := !b lsr 32
    end;
    if !b land 0xFFFF = 0 then begin
      i := !i + 16;
      b := !b lsr 16
    end;
    if !b land 0xFF = 0 then begin
      i := !i + 8;
      b := !b lsr 8
    end;
    if !b land 0xF = 0 then begin
      i := !i + 4;
      b := !b lsr 4
    end;
    if !b land 0x3 = 0 then begin
      i := !i + 2;
      b := !b lsr 2
    end;
    if !b land 0x1 = 0 then incr i;
    !i
  end

let lanes_mask lanes =
  if lanes >= lanes_per_word then -1 else (1 lsl lanes) - 1

(* Bernoulli(thr / 2^53) mask over the lanes of [cand]: per lane an
   implicit 53-bit uniform is compared bit-serially (MSB first) against
   [thr], consuming one random word per bit position and early-exiting
   once every lane is decided — ~log2(popcount cand) + 2 draws instead
   of one uniform per lane. *)
let mask_bernoulli st thr cand =
  if thr >= two53 then cand
  else if thr <= 0 then 0
  else begin
    let result = ref 0 and undec = ref cand in
    let t = ref thr and b = ref 52 in
    while !undec <> 0 && !t <> 0 do
      let w = sm_next st in
      let bit = 1 lsl !b in
      if !t land bit <> 0 then begin
        (* thr bit 1: lanes whose uniform bit is 0 are < thr — success. *)
        result := !result lor (!undec land lnot w);
        undec := !undec land w;
        t := !t lxor bit
      end
      else
        (* thr bit 0: lanes whose uniform bit is 1 are > thr — failure. *)
        undec := !undec land lnot w;
      decr b
    done;
    !result
  end

(* --- compiled plans -------------------------------------------------- *)

(* Oblivious schedules, job-major. Per job, the schedule reduces to a
   sequence of completion opportunities: per step the job is worked by a
   set of machines and completes with probability 1 - prod (1 - p_i)
   (machine draws are independent, which is also how the exact oracle
   computes the CDF). Occurrences are split into the prefix part
   (absolute steps) and one cycle period (offsets). *)
type jobplan = {
  pre_step : int array;  (** ascending absolute steps in the prefix *)
  pre_q : float array;
  pre_thr : int array;
  cyc_off : int array;  (** ascending offsets within one period *)
  cyc_q : float array;
  cyc_thr : int array;
  cyc_pick : float array;
      (** pick.(k) = P(first success within a period is at occurrence <= k) *)
  cyc_qtot : float;  (** success probability of one full period *)
  cyc_ilq : float;  (** cached 1/log(1 - qtot) *)
}

type cols = { plen : int; clen : int; jp : jobplan array }

type greedy_k = {
  g : Policy.greedy;
  pair_thr : int array;  (** per pair, Bernoulli threshold *)
}

type mode = Cols of cols | Greedy of greedy_k

(* Completion steps below [dcap] are folded into lane makespans through a
   per-step histogram of completion masks — O(1) per mask instead of one
   bit extraction per (job, lane) — with a single descending sweep at the
   end of the word. Later steps (rare) fall back to per-bit maxing. *)
let dcap = 4096

type t = {
  inst : Instance.t;
  n : int;
  m : int;
  mode : mode;
  order : int array;  (** topological order *)
  preds : int array array;
  succs : int array array;
  releases : int array option;
  churn : Churn.t option;
  stream : stream;
  (* cols arenas *)
  comp : int array;  (** (job, lane) completion step; n * 63 on DAGs *)
  start : int array;  (** per-lane eligibility start of the current job *)
  done_at : int array;  (** step histogram of completion masks; dcap *)
  mutable smax : int;  (** highest step recorded in [done_at] *)
  (* greedy arenas *)
  done_ : int array;  (** per job, lanes where the job is finished *)
  pred_ok : int array;  (** per job, AND over preds of done *)
  free : int array;  (** per machine, lanes where it is unassigned *)
  marked : int array;  (** per job, lanes completed during this step *)
  marked_list : int array;
  mutable marked_cnt : int;
  mass_pos : int array;  (** per job, lanes with positive mass this step *)
  mass_dirty : int array;
  mutable mass_cnt : int;
  contrib_p : float array;  (** per (job, slot) mass contribution; n * m *)
  contrib_w : int array;  (** per (job, slot) lanes of the contribution *)
  contrib_cnt : int array;  (** per job, live contribution slots *)
  grp_w : int array;  (** mass-check lane groups: disjoint lane sets *)
  grp_s : float array;  (** per group, its lanes' common mass sum *)
  pairs_idx : int array;  (** compacted surviving pair indices *)
  mutable pairs_len : int;
  remaining : int array;  (** per lane, ref-mode unfinished job count *)
  rel_ok : bool array;  (** per job, release date has arrived *)
  mup : bool array;  (** per machine, up at the current step (churn) *)
}

(* Per-step combined completion probabilities of one schedule block
   ([assignments] is steps x machines): per job the ascending list of
   (position, q) with q > 0. *)
let combined_occurrences inst n assignments =
  let m = Instance.m inst in
  let steps = Array.length assignments in
  let acc = Array.make n [] in
  let fail = Array.make n 1. in
  for t = 0 to steps - 1 do
    let a = assignments.(t) in
    (* multiply the per-machine failure probabilities of this step *)
    let touched = ref [] in
    for i = 0 to m - 1 do
      let j = a.(i) in
      if j >= 0 && j < n then begin
        let p = Instance.prob inst ~machine:i ~job:j in
        if p > 0. then begin
          if fail.(j) = 1. then touched := j :: !touched;
          fail.(j) <- fail.(j) *. (1. -. p)
        end
      end
    done;
    List.iter
      (fun j ->
        let q = 1. -. fail.(j) in
        if q > 0. then acc.(j) <- (t, q) :: acc.(j);
        fail.(j) <- 1.)
      !touched
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) acc

let compile_cols inst n sched =
  let pre = combined_occurrences inst n Oblivious.(sched.prefix) in
  let cyc = combined_occurrences inst n Oblivious.(sched.cycle) in
  let jp =
    Array.init n (fun j ->
        let pre = pre.(j) and cyc = cyc.(j) in
        let k = Array.length cyc in
        let cyc_pick = Array.make k 0. in
        let failed = ref 1. in
        for i = 0 to k - 1 do
          let _, q = cyc.(i) in
          failed := !failed *. (1. -. q);
          cyc_pick.(i) <- 1. -. !failed
        done;
        let qtot = if k = 0 then 0. else cyc_pick.(k - 1) in
        {
          pre_step = Array.map fst pre;
          pre_q = Array.map snd pre;
          pre_thr = Array.map (fun (_, q) -> thr_of_prob q) pre;
          cyc_off = Array.map fst cyc;
          cyc_q = Array.map snd cyc;
          cyc_thr = Array.map (fun (_, q) -> thr_of_prob q) cyc;
          cyc_pick;
          cyc_qtot = qtot;
          cyc_ilq = (if qtot > 0. then inv_log1m qtot else 0.);
        })
  in
  {
    plen = Oblivious.prefix_length sched;
    clen = Oblivious.cycle_length sched;
    jp;
  }

let create ?releases ?availability inst policy =
  let n = Instance.n inst and m = Instance.m inst in
  Releases.check ~n releases;
  let churn =
    match availability with
    | None -> None
    | Some c ->
        if Churn.m c <> m then
          invalid_arg "Engine: availability machine count mismatch";
        if Churn.is_none c then None else Some c
  in
  let mode =
    match Policy.oblivious policy with
    | Some sched when Oblivious.(sched.m) = m ->
        (* Churn folds into the schedule: the masked schedule idles down
           machines, so the unchurned column kernel over it samples
           exactly the surviving (machine, step) attempts. *)
        let sched =
          match churn with None -> sched | Some c -> Churn.mask c sched
        in
        Some (Cols (compile_cols inst n sched))
    | Some _ -> None
    | None -> (
        match Policy.greedy policy with
        | Some g when g.Policy.g_n = n && g.Policy.g_m = m ->
            let probs = g.Policy.g_probs in
            let pair_thr = Array.make (Array.length probs) 0 in
            (* a loop, not [Array.map]: no float boxing per pair *)
            for k = 0 to Array.length probs - 1 do
              pair_thr.(k) <- thr_of_prob probs.(k)
            done;
            Some (Greedy { g; pair_thr })
        | _ -> None)
  in
  match mode with
  | None -> None
  | Some mode ->
      let dag = Instance.dag inst in
      let is_cols = match mode with Cols _ -> true | Greedy _ -> false in
      let npairs =
        match mode with
        | Greedy gk -> Array.length gk.g.Policy.g_probs
        | Cols _ -> 0
      in
      Some
        {
          inst;
          n;
          m;
          mode;
          order = Dag.topo_order dag;
          preds = Array.init n (fun j -> Array.of_list (Dag.preds dag j));
          succs = Array.init n (fun j -> Array.of_list (Dag.succs dag j));
          releases;
          churn = (match mode with Cols _ -> None | Greedy _ -> churn);
          stream = { s = 0 };
          comp =
            (* only column kernels on DAG instances ever touch [comp]:
               the writes are has_succs-gated, the reads preds-gated *)
            Array.make
              (if is_cols && Dag.edge_count dag > 0 then n * lanes_per_word
               else 1)
              never;
          start = Array.make lanes_per_word 0;
          done_at = Array.make (if is_cols then dcap else 1) 0;
          smax = -1;
          done_ = Array.make (max n 1) 0;
          pred_ok = Array.make (max n 1) 0;
          free = Array.make (max m 1) 0;
          marked = Array.make (max n 1) 0;
          marked_list = Array.make (max n 1) 0;
          marked_cnt = 0;
          mass_pos = Array.make (max n 1) 0;
          mass_dirty = Array.make (max n 1) 0;
          mass_cnt = 0;
          contrib_p = Array.make (if is_cols then 1 else max 1 (n * m)) 0.;
          contrib_w = Array.make (if is_cols then 1 else max 1 (n * m)) 0;
          contrib_cnt = Array.make (max n 1) 0;
          grp_w = Array.make (if is_cols then 1 else lanes_per_word) 0;
          grp_s = Array.make (if is_cols then 1 else lanes_per_word) 0.;
          pairs_idx = Array.make (max npairs 1) 0;
          pairs_len = 0;
          remaining = Array.make lanes_per_word 0;
          rel_ok = Array.make (max n 1) true;
          mup = Array.make (max m 1) true;
        }

(* --- oblivious (Cols) runtime ---------------------------------------- *)

(* Per-lane completion sampler, the leapfrog generalisation: first
   success of the job's occurrence sequence at steps >= [from]. Prefix
   occurrences and the first partial period are walked with one uniform
   each; full periods collapse into one geometric (periods until a
   successful period) plus one inversion draw for the offset within it.
   Returns [never] when the job can no longer complete. *)
let sample_one st cols jp ~from =
  let res = ref (-1) in
  let npre = Array.length jp.pre_step in
  let i = ref 0 in
  while !i < npre && jp.pre_step.(!i) < from do incr i done;
  while !res < 0 && !i < npre do
    if sm_float st < jp.pre_q.(!i) then res := jp.pre_step.(!i);
    incr i
  done;
  if !res >= 0 then !res
  else begin
    let k = Array.length jp.cyc_off in
    if k = 0 || jp.cyc_qtot <= 0. then never
    else begin
      let clen = cols.clen and plen = cols.plen in
      let e = if from > plen then from - plen else 0 in
      let period = ref (e / clen) in
      let off = e - (!period * clen) in
      if off > 0 then begin
        (* partial first period: walk its remaining occurrences *)
        let i = ref 0 in
        while !i < k && jp.cyc_off.(!i) < off do incr i done;
        while !res < 0 && !i < k do
          if sm_float st < jp.cyc_q.(!i) then
            res := plen + (!period * clen) + jp.cyc_off.(!i);
          incr i
        done;
        incr period
      end;
      if !res >= 0 then !res
      else begin
        let g = sm_geom st jp.cyc_ilq in
        if g > 1_000_000_000 then never
        else begin
          let p = !period + g - 1 in
          let u = sm_float st *. jp.cyc_qtot in
          let i = ref 0 in
          while !i < k - 1 && u >= jp.cyc_pick.(!i) do incr i done;
          plen + (p * clen) + jp.cyc_off.(!i)
        end
      end
    end
  end

(* How few undecided lanes make per-lane geometric skipping cheaper than
   word-wide masks (a mask costs ~log2(lanes)+2 draws per occurrence;
   a geometric decides a lane's whole future in ~2 draws). *)
let geo_cutoff = 8

(* Record a completion mask at [step]: O(1) into the step histogram for
   the end-of-word makespan fold; per-bit work only for the (rare) steps
   beyond [dcap] and for jobs whose successors need per-lane completion
   steps in [comp]. *)
let[@inline] record_mask t ~base ~has_succs ~makespans w step =
  if step < dcap then begin
    t.done_at.(step) <- t.done_at.(step) lor w;
    if step > t.smax then t.smax <- step
  end
  else begin
    let a = ref w in
    while !a <> 0 do
      let b = !a land (- !a) in
      a := !a lxor b;
      let l = bit_index b in
      if step + 1 > makespans.(l) then makespans.(l) <- step + 1
    done
  end;
  if has_succs then begin
    let a = ref w in
    while !a <> 0 do
      let b = !a land (- !a) in
      a := !a lxor b;
      t.comp.(base + bit_index b) <- step
    done
  end

(* Word-wide walk of job [jp]'s occurrences for the lanes of [cand0],
   all eligible from the same step [s0]. Completions are recorded via
   {!record_mask}; the returned word holds the lanes that did not
   complete by [horizon] (to be truncated). *)
let mask_walk t cols jp ~base ~cand0 ~s0 ~horizon ~has_succs ~makespans =
  let st = t.stream in
  let cand = ref cand0 and leftover = ref 0 in
  let finish_from step =
    let a = ref !cand in
    cand := 0;
    while !a <> 0 do
      let b = !a land (- !a) in
      a := !a lxor b;
      let c = sample_one st cols jp ~from:step in
      if c > horizon then leftover := !leftover lor b
      else record_mask t ~base ~has_succs ~makespans b c
    done
  in
  if popcount !cand <= geo_cutoff then finish_from s0
  else begin
    (* prefix occurrences at steps >= s0 *)
    let npre = Array.length jp.pre_step in
    let i = ref 0 in
    while !i < npre && jp.pre_step.(!i) < s0 do incr i done;
    let since_check = ref 0 in
    while !cand <> 0 && !i < npre do
      let step = jp.pre_step.(!i) in
      if step > horizon then begin
        leftover := !leftover lor !cand;
        cand := 0
      end
      else begin
        if !since_check >= 16 then begin
          since_check := 0;
          if popcount !cand <= geo_cutoff then finish_from step
        end;
        if !cand <> 0 then begin
          let w = mask_bernoulli st jp.pre_thr.(!i) !cand in
          record_mask t ~base ~has_succs ~makespans w step;
          cand := !cand land lnot w;
          incr since_check;
          incr i
        end
      end
    done;
    (* cycling regime *)
    if !cand <> 0 then begin
      let k = Array.length jp.cyc_off in
      if k = 0 || jp.cyc_qtot <= 0. then begin
        leftover := !leftover lor !cand;
        cand := 0
      end
      else begin
        let clen = cols.clen and plen = cols.plen in
        let e = if s0 > plen then s0 - plen else 0 in
        let period = ref (e / clen) in
        let off0 = ref (e - (!period * clen)) in
        while !cand <> 0 do
          (* per-period strategy check: expected successes this period
             must justify per-occurrence masks *)
          if Float.of_int (popcount !cand) *. jp.cyc_qtot < 3. then
            finish_from (plen + (!period * clen) + !off0)
          else begin
            let i = ref 0 in
            while !i < k && jp.cyc_off.(!i) < !off0 do incr i done;
            while !cand <> 0 && !i < k do
              let step = plen + (!period * clen) + jp.cyc_off.(!i) in
              if step > horizon then begin
                leftover := !leftover lor !cand;
                cand := 0;
                i := k
              end
              else begin
                let w = mask_bernoulli st jp.cyc_thr.(!i) !cand in
                record_mask t ~base ~has_succs ~makespans w step;
                cand := !cand land lnot w;
                incr i
              end
            done;
            incr period;
            off0 := 0
          end
        done
      end
    end
  end;
  !leftover

let run_word_cols t cols ~lanes ~max_steps ~makespans =
  let horizon = max_steps - 1 in
  let lmask = lanes_mask lanes in
  let st = t.stream in
  let trunc = ref 0 in
  t.smax <- -1;
  Array.fill makespans 0 lanes 0;
  for q = 0 to t.n - 1 do
    let j = t.order.(q) in
    let jp = cols.jp.(j) in
    let base = j * lanes_per_word in
    let has_succs = Array.length t.succs.(j) > 0 in
    if has_succs then Array.fill t.comp base lanes_per_word never;
    let active = lmask land lnot !trunc in
    if active <> 0 then begin
      let rel = match t.releases with None -> 0 | Some r -> r.(j) in
      let preds = t.preds.(j) in
      let npr = Array.length preds in
      let eq = ref true and s0 = ref rel in
      if npr > 0 then begin
        (* per-lane eligibility start: the step after the last
           predecessor completion (end-of-step semantics), no earlier
           than the release date *)
        let first = ref true in
        let a = ref active in
        while !a <> 0 do
          let b = !a land (- !a) in
          a := !a lxor b;
          let l = bit_index b in
          let s = ref rel in
          for pk = 0 to npr - 1 do
            let c = t.comp.((preds.(pk) * lanes_per_word) + l) in
            if c + 1 > !s then s := c + 1
          done;
          t.start.(l) <- !s;
          if !first then begin
            s0 := !s;
            first := false
          end
          else if !s <> !s0 then eq := false
        done
      end;
      if !eq then begin
        if !s0 <= horizon then
          trunc :=
            !trunc
            lor mask_walk t cols jp ~base ~cand0:active ~s0:!s0 ~horizon
                  ~has_succs ~makespans
        else trunc := !trunc lor active
      end
      else begin
        (* lanes diverged: per-lane geometric skipping *)
        let a = ref active in
        while !a <> 0 do
          let b = !a land (- !a) in
          a := !a lxor b;
          let l = bit_index b in
          let s = t.start.(l) in
          if s > horizon then trunc := !trunc lor b
          else begin
            let c = sample_one st cols jp ~from:s in
            if c > horizon then trunc := !trunc lor b
            else record_mask t ~base ~has_succs ~makespans b c
          end
        done
      end
    end
  done;
  (* descending histogram sweep: a lane's first (highest) appearance is
     its last job completion, hence its makespan *)
  let seen = ref !trunc in
  let s = ref t.smax in
  while !s >= 0 && !seen land lmask <> lmask do
    let w = t.done_at.(!s) in
    if w <> 0 then begin
      t.done_at.(!s) <- 0;
      let nw = w land lnot !seen land lmask in
      if nw <> 0 then begin
        seen := !seen lor nw;
        let a = ref nw in
        while !a <> 0 do
          let b = !a land (- !a) in
          a := !a lxor b;
          let l = bit_index b in
          if !s + 1 > makespans.(l) then makespans.(l) <- !s + 1
        done
      end
    end;
    decr s
  done;
  (* zero the histogram tail left by the early exit *)
  while !s >= 0 do
    if t.done_at.(!s) <> 0 then t.done_at.(!s) <- 0;
    decr s
  done;
  t.smax <- -1;
  let a = ref !trunc in
  while !a <> 0 do
    let b = !a land (- !a) in
    a := !a lxor b;
    makespans.(bit_index b) <- -1
  done

(* --- greedy (fused pair-scan) runtime -------------------------------- *)

let greedy_reset t ~lanes =
  let n = t.n in
  Array.fill t.done_ 0 n 0;
  for j = 0 to n - 1 do
    t.pred_ok.(j) <- (if Array.length t.preds.(j) = 0 then -1 else 0)
  done;
  (* the ref mode's mass ledger is cleared by the per-step cleanup, so
     only the counters need resetting *)
  t.mass_cnt <- 0;
  t.marked_cnt <- 0;
  for l = 0 to lanes_per_word - 1 do
    t.remaining.(l) <- n
  done;
  (match t.releases with
  | None -> Array.fill t.rel_ok 0 n true
  | Some r ->
      for j = 0 to n - 1 do
        t.rel_ok.(j) <- r.(j) <= 0
      done);
  ignore lanes

let greedy_release_due t step =
  match t.releases with
  | None -> ()
  | Some r ->
      for j = 0 to t.n - 1 do
        if (not t.rel_ok.(j)) && r.(j) <= step then t.rel_ok.(j) <- true
      done

(* Refresh the per-machine up mask for this step. Availability is
   trial-independent, so the gate is uniform across lanes: a down
   machine's pair is still {e taken} by the scan (the policy is
   churn-oblivious — mass and free-machine bookkeeping proceed) but its
   Bernoulli draw is suppressed, matching the scalar stepper's gate. *)
let greedy_machines_up t step =
  match t.churn with
  | None -> ()
  | Some c ->
      for i = 0 to t.m - 1 do
        t.mup.(i) <- Churn.available c ~machine:i ~step
      done

(* End-of-step completion: fold the marked words into done/remaining,
   record lane makespans, refresh successors' pred words. Returns the
   updated alive word. *)
let greedy_apply_completions t ~mass ~step ~alive ~makespans =
  let alive = ref alive in
  for idx = 0 to t.marked_cnt - 1 do
    let j = t.marked_list.(idx) in
    let bits = t.marked.(j) in
    t.marked.(j) <- 0;
    t.done_.(j) <- t.done_.(j) lor bits;
    let w = ref bits in
    while !w <> 0 do
      let b = !w land (- !w) in
      w := !w lxor b;
      let l = bit_index b in
      t.remaining.(l) <- t.remaining.(l) - 1;
      if t.remaining.(l) = 0 then begin
        makespans.(l) <- step + 1;
        alive := !alive land lnot b
      end
    done;
    let ss = t.succs.(j) in
    for si = 0 to Array.length ss - 1 do
      let v = ss.(si) in
      let ps = t.preds.(v) in
      let acc = ref (-1) in
      for pi = 0 to Array.length ps - 1 do
        acc := !acc land t.done_.(ps.(pi))
      done;
      t.pred_ok.(v) <- !acc
    done
  done;
  t.marked_cnt <- 0;
  for idx = 0 to t.mass_cnt - 1 do
    let j = t.mass_dirty.(idx) in
    Array.fill mass (j * lanes_per_word) lanes_per_word 0.;
    t.mass_pos.(j) <- 0
  done;
  t.mass_cnt <- 0;
  !alive

let run_word_greedy t gk ~lanes ~max_steps ~makespans =
  let g = gk.g in
  let m = t.m and n = t.n in
  let st = t.stream in
  greedy_reset t ~lanes;
  Array.fill makespans 0 lanes 0;
  let probs = g.Policy.g_probs
  and machines = g.Policy.g_machines
  and jobs = g.Policy.g_jobs
  and thrs = gk.pair_thr in
  let npairs = Array.length probs in
  let cap = Policy.greedy_mass_cap in
  let done_ = t.done_
  and pred_ok = t.pred_ok
  and free = t.free
  and marked = t.marked
  and marked_list = t.marked_list
  and mass_pos = t.mass_pos
  and mass_dirty = t.mass_dirty
  and contrib_p = t.contrib_p
  and contrib_w = t.contrib_w
  and contrib_cnt = t.contrib_cnt
  and grp_w = t.grp_w
  and grp_s = t.grp_s
  and pairs = t.pairs_idx
  and rel_ok = t.rel_ok
  and mup = t.mup in
  for k = 0 to npairs - 1 do
    pairs.(k) <- k
  done;
  t.pairs_len <- npairs;
  let alive = ref (lanes_mask lanes) in
  let step = ref 0 in
  while !alive <> 0 && !step < max_steps do
    greedy_release_due t !step;
    greedy_machines_up t !step;
    let alive0 = !alive in
    Array.fill free 0 m alive0;
    let free_left = ref m in
    (* one pass: scan surviving pairs in priority order, compacting out
       pairs whose job is finished in every still-alive lane (done words
       only grow and alive only shrinks, so dead pairs stay dead) *)
    let plen = t.pairs_len in
    let out = ref 0 in
    for idx = 0 to plen - 1 do
      let k = pairs.(idx) in
      let j = jobs.(k) in
      let live = alive0 land lnot done_.(j) in
      if live <> 0 || not rel_ok.(j) then begin
        pairs.(!out) <- k;
        incr out;
        if rel_ok.(j) && !free_left > 0 then begin
          let i = machines.(k) in
          let fi = free.(i) in
          if fi <> 0 then begin
            let cand = fi land pred_ok.(j) land live in
            if cand <> 0 then begin
              let p = probs.(k) in
              let mp = mass_pos.(j) in
              let hard = cand land mp in
              let take = ref (cand land lnot hard) in
              if hard <> 0 then begin
                (* lanes where the job already has mass need the float
                   check; fresh lanes pass because p <= 1 <= cap. The
                   check runs once per group of lanes that share their
                   contribution slots: one group (hard, p) splits on each
                   slot's lane word, its covered part adding the slot's
                   p. A lane's sum is p, then its slots in slot order —
                   the same float additions a per-lane sum makes *)
                let cbase = j * m in
                grp_w.(0) <- hard;
                grp_s.(0) <- p;
                let ng = ref 1 in
                for c = cbase to cbase + contrib_cnt.(j) - 1 do
                  let cw = contrib_w.(c) and cp = contrib_p.(c) in
                  for g = 0 to !ng - 1 do
                    let w = grp_w.(g) in
                    let inw = w land cw in
                    if inw <> 0 then
                      if inw = w then grp_s.(g) <- grp_s.(g) +. cp
                      else begin
                        (* groups stay disjoint and non-empty, so there
                           are never more than 63 *)
                        grp_w.(g) <- w lxor inw;
                        grp_w.(!ng) <- inw;
                        grp_s.(!ng) <- grp_s.(g) +. cp;
                        incr ng
                      end
                  done
                done;
                for g = 0 to !ng - 1 do
                  if grp_s.(g) <= cap then take := !take lor grp_w.(g)
                done
              end;
              let tk = !take in
              if tk <> 0 then begin
                free.(i) <- fi land lnot tk;
                if free.(i) = 0 then decr free_left;
                let cc = contrib_cnt.(j) in
                if cc = 0 then begin
                  mass_dirty.(t.mass_cnt) <- j;
                  t.mass_cnt <- t.mass_cnt + 1
                end;
                contrib_w.((j * m) + cc) <- tk;
                contrib_p.((j * m) + cc) <- p;
                contrib_cnt.(j) <- cc + 1;
                mass_pos.(j) <- mp lor tk;
                (* fused draw: lanes already completed this step by an
                   earlier machine draw nothing, like the scalar stepper;
                   a churned-down machine draws nothing at all *)
                let dr =
                  if mup.(i) then tk land lnot marked.(j) else 0
                in
                if dr <> 0 then begin
                  let succ = mask_bernoulli st thrs.(k) dr in
                  if succ <> 0 then begin
                    if marked.(j) = 0 then begin
                      marked_list.(t.marked_cnt) <- j;
                      t.marked_cnt <- t.marked_cnt + 1
                    end;
                    marked.(j) <- marked.(j) lor succ
                  end
                end
              end
            end
          end
        end
      end
    done;
    t.pairs_len <- !out;
    (* end of step: fold completions into done, refresh successor pred
       words, clear this step's mass ledger *)
    let had = t.marked_cnt > 0 in
    for mi = 0 to t.marked_cnt - 1 do
      let j = marked_list.(mi) in
      let bits = marked.(j) in
      marked.(j) <- 0;
      done_.(j) <- done_.(j) lor bits;
      let ss = t.succs.(j) in
      for si = 0 to Array.length ss - 1 do
        let v = ss.(si) in
        let ps = t.preds.(v) in
        let acc = ref (-1) in
        for pi = 0 to Array.length ps - 1 do
          acc := !acc land done_.(ps.(pi))
        done;
        pred_ok.(v) <- !acc
      done
    done;
    t.marked_cnt <- 0;
    for mi = 0 to t.mass_cnt - 1 do
      let j = mass_dirty.(mi) in
      contrib_cnt.(j) <- 0;
      mass_pos.(j) <- 0
    done;
    t.mass_cnt <- 0;
    (* a lane finishes when it sits in the AND of every done word; the
       fold early-exits on the first job the lane set hasn't finished *)
    if had then begin
      let acc = ref !alive in
      let j = ref 0 in
      while !acc <> 0 && !j < n do
        acc := !acc land done_.(!j);
        incr j
      done;
      let fin = !acc in
      if fin <> 0 then begin
        alive := !alive land lnot fin;
        let a = ref fin in
        while !a <> 0 do
          let b = !a land (- !a) in
          a := !a lxor b;
          makespans.(bit_index b) <- !step + 1
        done
      end
    end;
    incr step
  done;
  let a = ref !alive in
  while !a <> 0 do
    let b = !a land (- !a) in
    a := !a lxor b;
    makespans.(bit_index b) <- -1
  done

(* --- entry points ----------------------------------------------------- *)

let run_word t ~seed ~max_steps ~lanes ~makespans =
  if lanes < 1 || lanes > lanes_per_word then
    invalid_arg "Lanes.run_word: lanes out of range";
  if max_steps < 1 then invalid_arg "Lanes.run_word: max_steps < 1";
  if Array.length makespans < lanes then
    invalid_arg "Lanes.run_word: makespans buffer too short";
  t.stream.s <- seed;
  (* one scramble so counter-like word seeds decorrelate *)
  ignore (sm_next t.stream : int);
  if t.n = 0 then Array.fill makespans 0 lanes 0
  else
    match t.mode with
    | Cols c -> run_word_cols t c ~lanes ~max_steps ~makespans
    | Greedy g -> run_word_greedy t g ~lanes ~max_steps ~makespans

(* Scalar-order reference mode (greedy kernels only): the pair scan runs
   word-wide exactly as in [run_word], but draws are replayed per lane
   from that lane's own generator in the scalar stepper's order — the
   full assignment is built first, then machines draw in index order.
   Lane [l]'s outcome is bit-identical to [Engine.run] with
   [rngs.(l)]. *)
let run_word_ref t ~rngs ~max_steps ~makespans =
  let lanes = Array.length rngs in
  if lanes < 1 || lanes > lanes_per_word then
    invalid_arg "Lanes.run_word_ref: lanes out of range";
  if max_steps < 1 then invalid_arg "Lanes.run_word_ref: max_steps < 1";
  if Array.length makespans < lanes then
    invalid_arg "Lanes.run_word_ref: makespans buffer too short";
  match t.mode with
  | Cols _ ->
      invalid_arg "Lanes.run_word_ref: only greedy kernels have a ref mode"
  | Greedy gk ->
      let g = gk.g in
      let m = t.m in
      (* the ref mode's per-(job, lane) mass ledger and per-(machine,
         lane) assignment live only for this call: the fast path needs
         neither, so served kernels never allocate them *)
      let mass = Array.make (max 1 (t.n * lanes_per_word)) 0. in
      let assign =
        Array.make (max 1 (m * lanes_per_word)) Assignment.idle_job
      in
      greedy_reset t ~lanes;
      Array.fill makespans 0 lanes 0;
      if t.n = 0 then ()
      else begin
        let probs = g.Policy.g_probs
        and machines = g.Policy.g_machines
        and jobs = g.Policy.g_jobs in
        let npairs = Array.length probs in
        let cap = Policy.greedy_mass_cap in
        let alive = ref (lanes_mask lanes) in
        let step = ref 0 in
        while !alive <> 0 && !step < max_steps do
          greedy_release_due t !step;
          greedy_machines_up t !step;
          Array.fill t.free 0 m !alive;
          Array.fill assign 0 (m * lanes_per_word) Assignment.idle_job;
          let free_left = ref m in
          let k = ref 0 in
          while !free_left > 0 && !k < npairs do
            let j = jobs.(!k) in
            if t.rel_ok.(j) then begin
              let i = machines.(!k) in
              let fi = t.free.(i) in
              if fi <> 0 then begin
                let cand = fi land t.pred_ok.(j) land lnot t.done_.(j) in
                if cand <> 0 then begin
                  let p = probs.(!k) in
                  let mp = t.mass_pos.(j) in
                  let hard = cand land mp in
                  let take = ref (cand land lnot hard) in
                  if hard <> 0 then begin
                    let base = j * lanes_per_word in
                    let h = ref hard in
                    while !h <> 0 do
                      let b = !h land (- !h) in
                      h := !h lxor b;
                      if mass.(base + bit_index b) +. p <= cap then
                        take := !take lor b
                    done
                  end;
                  let tk = !take in
                  if tk <> 0 then begin
                    t.free.(i) <- fi land lnot tk;
                    if t.free.(i) = 0 then decr free_left;
                    if mp = 0 then begin
                      t.mass_dirty.(t.mass_cnt) <- j;
                      t.mass_cnt <- t.mass_cnt + 1
                    end;
                    t.mass_pos.(j) <- mp lor tk;
                    let base = j * lanes_per_word in
                    let abase = i * lanes_per_word in
                    let w = ref tk in
                    while !w <> 0 do
                      let b = !w land (- !w) in
                      w := !w lxor b;
                      let l = bit_index b in
                      let o = base + l in
                      mass.(o) <- mass.(o) +. p;
                      assign.(abase + l) <- j
                    done
                  end
                end
              end
            end;
            incr k
          done;
          (* scalar draw phase: per lane, machines in index order *)
          for l = 0 to lanes - 1 do
            if !alive land (1 lsl l) <> 0 then
              for i = 0 to m - 1 do
                let j = assign.((i * lanes_per_word) + l) in
                if
                  j <> Assignment.idle_job
                  && t.marked.(j) land (1 lsl l) = 0
                  && t.mup.(i)
                then
                  if
                    Rng.bernoulli rngs.(l)
                      (Instance.prob t.inst ~machine:i ~job:j)
                  then begin
                    if t.marked.(j) = 0 then begin
                      t.marked_list.(t.marked_cnt) <- j;
                      t.marked_cnt <- t.marked_cnt + 1
                    end;
                    t.marked.(j) <- t.marked.(j) lor (1 lsl l)
                  end
              done
          done;
          alive :=
            greedy_apply_completions t ~mass ~step:!step ~alive:!alive
              ~makespans;
          incr step
        done;
        let a = ref !alive in
        while !a <> 0 do
          let b = !a land (- !a) in
          a := !a lxor b;
          makespans.(bit_index b) <- -1
        done
      end
