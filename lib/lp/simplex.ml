type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

exception Iteration_limit

(* Tableau in canonical form: [a] is m x ncols with unit columns for the
   basic variables, [b] >= 0 the basic values, [reduced] the reduced cost
   row and [obj] the (phase-specific) objective value at the current basis.
   Rows are dense arrays; a pivot eliminates only over the nonzeros of the
   normalised pivot row, collected in [nz_col]/[nz_val], and reads the
   entering column from [column], gathered once per pivot. *)
type tableau = {
  m : int;
  ncols : int;
  a : float array array;
  b : float array;
  basis : int array;
  reduced : float array;
  mutable obj : float;
  column : float array;
  nz_col : int array;
  nz_val : float array;
}

let gather_column t col =
  for r = 0 to t.m - 1 do
    t.column.(r) <- t.a.(r).(col)
  done

(* Pivot on [(row, col)]; [t.column] must hold column [col] (see
   [gather_column]). Skipping a zero entry of the pivot row leaves
   [x -. factor *. 0.] at [x] up to the sign of a zero, which no test in
   the solver can see, so while the tableau stays finite the result is
   the dense elimination's. *)
let pivot t ~row ~col =
  let arow = t.a.(row) in
  (* Normalise the pivot row and collect its nonzeros off the pivot. *)
  let inv = 1. /. t.column.(row) in
  let nnz = ref 0 in
  for j = 0 to t.ncols - 1 do
    let v = arow.(j) in
    if v <> 0. then begin
      let v = v *. inv in
      arow.(j) <- v;
      if j <> col then begin
        t.nz_col.(!nnz) <- j;
        t.nz_val.(!nnz) <- v;
        incr nnz
      end
    end
  done;
  let nnz = !nnz in
  arow.(col) <- 1.;
  t.b.(row) <- t.b.(row) *. inv;
  (* Past half full, the contiguous sweep over the whole row beats the
     indexed one; (LP2) pivot rows are about 60% nonzero. Every row,
     [reduced], [nz_col] and [nz_val] has length [ncols], and [nz_col]
     holds column indices, so the unchecked accesses stay in bounds. *)
  let sweep_all = 2 * nnz > t.ncols in
  let eliminate target factor =
    if sweep_all then
      for j = 0 to t.ncols - 1 do
        Array.unsafe_set target j
          (Array.unsafe_get target j -. (factor *. Array.unsafe_get arow j))
      done
    else
      for k = 0 to nnz - 1 do
        let j = Array.unsafe_get t.nz_col k in
        Array.unsafe_set target j
          (Array.unsafe_get target j
          -. (factor *. Array.unsafe_get t.nz_val k))
      done;
    target.(col) <- 0.
  in
  (* Eliminate the pivot column from every other row and the cost row. *)
  for r = 0 to t.m - 1 do
    if r <> row then begin
      let factor = t.column.(r) in
      if factor <> 0. then begin
        eliminate t.a.(r) factor;
        t.b.(r) <- t.b.(r) -. (factor *. t.b.(row))
      end
    end
  done;
  let factor = t.reduced.(col) in
  if factor <> 0. then begin
    eliminate t.reduced factor;
    (* The entering variable takes value [t.b.(row)] (already normalised),
       changing the objective by its reduced cost times that value. *)
    t.obj <- t.obj +. (factor *. t.b.(row))
  end;
  t.basis.(row) <- col

(* Recompute the reduced-cost row for cost vector [c] from scratch. *)
let install_costs t c =
  Array.blit c 0 t.reduced 0 t.ncols;
  t.obj <- 0.;
  for r = 0 to t.m - 1 do
    let cb = c.(t.basis.(r)) in
    if cb <> 0. then begin
      let arow = t.a.(r) in
      for j = 0 to t.ncols - 1 do
        t.reduced.(j) <- t.reduced.(j) -. (cb *. arow.(j))
      done;
      t.obj <- t.obj +. (cb *. t.b.(r))
    end
  done;
  (* Basic columns must read exactly zero. *)
  Array.iter (fun col -> t.reduced.(col) <- 0.) t.basis

(* One simplex phase: optimise over columns allowed by [enterable].
   Returns [`Optimal] or [`Unbounded]. *)
let run_phase t ~eps ~enterable ~iters ~max_iters =
  let stall_threshold = 4 * (t.m + t.ncols) in
  let stall = ref 0 in
  let finished = ref None in
  while !finished = None do
    if !iters > max_iters then raise Iteration_limit;
    incr iters;
    let bland = !stall > stall_threshold in
    (* Entering column. *)
    let col = ref (-1) in
    if bland then begin
      (* Bland: smallest index with negative reduced cost. *)
      let j = ref 0 in
      while !col < 0 && !j < t.ncols do
        if enterable.(!j) && t.reduced.(!j) < -.eps then col := !j;
        incr j
      done
    end
    else begin
      (* Dantzig: most negative reduced cost. *)
      let best = ref (-.eps) in
      for j = 0 to t.ncols - 1 do
        if enterable.(j) && t.reduced.(j) < !best then begin
          best := t.reduced.(j);
          col := j
        end
      done
    end;
    if !col < 0 then finished := Some `Optimal
    else begin
      (* Ratio test; Bland tie-break on smallest basis index. *)
      gather_column t !col;
      let row = ref (-1) in
      let best_ratio = ref infinity in
      for r = 0 to t.m - 1 do
        let arc = t.column.(r) in
        if arc > eps then begin
          let ratio = t.b.(r) /. arc in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && (!row < 0 || t.basis.(r) < t.basis.(!row)))
          then begin
            best_ratio := ratio;
            row := r
          end
        end
      done;
      if !row < 0 then finished := Some `Unbounded
      else begin
        let before = t.obj in
        pivot t ~row:!row ~col:!col;
        if Float.abs (t.obj -. before) <= eps then incr stall else stall := 0
      end
    end
  done;
  match !finished with Some r -> r | None -> assert false

let solve ?(max_iters = 200_000) ?(eps = 1e-9) (p : Lp.problem) =
  let m = List.length p.rows in
  let n = p.nvars in
  (* Normalise rows to rhs >= 0 and count slack/artificial columns. *)
  let rows =
    List.map
      (fun (row : Lp.row) ->
        if row.rhs < 0. then
          let coeffs = List.map (fun (v, c) -> (v, -.c)) row.Lp.coeffs in
          let rel =
            match row.rel with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
          in
          { Lp.coeffs; rel; rhs = -.row.rhs }
        else row)
      p.rows
  in
  let n_slack =
    List.length (List.filter (fun r -> r.Lp.rel <> Lp.Eq) rows)
  in
  let n_art =
    List.length (List.filter (fun r -> r.Lp.rel <> Lp.Le) rows)
  in
  let ncols = n + n_slack + n_art in
  let a = Array.make_matrix m ncols 0. in
  let b = Array.make m 0. in
  let basis = Array.make m (-1) in
  let art_start = n + n_slack in
  let next_slack = ref n and next_art = ref art_start in
  List.iteri
    (fun r (row : Lp.row) ->
      List.iter (fun (v, c) -> a.(r).(v) <- a.(r).(v) +. c) row.coeffs;
      b.(r) <- row.rhs;
      (match row.rel with
      | Lp.Le ->
          a.(r).(!next_slack) <- 1.;
          basis.(r) <- !next_slack;
          incr next_slack
      | Lp.Ge ->
          a.(r).(!next_slack) <- -1.;
          incr next_slack;
          a.(r).(!next_art) <- 1.;
          basis.(r) <- !next_art;
          incr next_art
      | Lp.Eq ->
          a.(r).(!next_art) <- 1.;
          basis.(r) <- !next_art;
          incr next_art))
    rows;
  let t =
    {
      m;
      ncols;
      a;
      b;
      basis;
      reduced = Array.make ncols 0.;
      obj = 0.;
      column = Array.make m 0.;
      nz_col = Array.make ncols 0;
      nz_val = Array.make ncols 0.;
    }
  in
  let iters = ref 0 in
  let feas_tol = 1e-7 in
  let phase2 () =
    let sign = match p.direction with `Minimize -> 1. | `Maximize -> -1. in
    let c = Array.make ncols 0. in
    List.iter (fun (v, coef) -> c.(v) <- c.(v) +. (sign *. coef)) p.objective;
    install_costs t c;
    let enterable = Array.init ncols (fun j -> j < art_start) in
    match run_phase t ~eps ~enterable ~iters ~max_iters with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let x = Array.make n 0. in
        Array.iteri
          (fun r col -> if col < n then x.(col) <- t.b.(r))
          t.basis;
        Optimal { objective = sign *. t.obj; solution = x }
  in
  if n_art = 0 then phase2 ()
  else begin
    (* Phase 1: minimise the sum of artificials. *)
    let c1 = Array.make ncols 0. in
    for j = art_start to ncols - 1 do
      c1.(j) <- 1.
    done;
    install_costs t c1;
    let enterable = Array.make ncols true in
    (match run_phase t ~eps ~enterable ~iters ~max_iters with
    | `Unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen. *)
        assert false
    | `Optimal -> ());
    if t.obj > feas_tol then Infeasible
    else begin
      (* Drive any artificial still basic (at value ~0) out of the basis. *)
      for r = 0 to m - 1 do
        if t.basis.(r) >= art_start then begin
          let col = ref (-1) in
          let j = ref 0 in
          while !col < 0 && !j < art_start do
            if Float.abs t.a.(r).(!j) > eps then col := !j;
            incr j
          done;
          (* If no pivot exists the row is redundant; the artificial stays
             basic at zero and never re-enters the optimisation. *)
          if !col >= 0 then begin
            gather_column t !col;
            pivot t ~row:r ~col:!col
          end
        end
      done;
      phase2 ()
    end
  end
