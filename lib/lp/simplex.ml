type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

exception Iteration_limit

module A1 = Bigarray.Array1

(* Tableau in canonical form: [a] holds the m x ncols constraint rows
   with unit columns for the basic variables, row [r] at [r * ncols],
   followed by the reduced cost row at [m * ncols]; [b] >= 0 holds the
   basic values and [obj] the (phase-specific) objective value at the
   current basis. A pivot eliminates only over the nonzeros of the
   normalised pivot row, collected in [nz_col]/[nz_val], and reads the
   entering column from [column], gathered once per pivot. *)
type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type tableau = {
  m : int;
  ncols : int;
  a : buffer;
  b : float array;
  basis : int array;
  mutable obj : float;
  column : float array;
  nz_col : int array;
  nz_val : float array;
}

(* Each domain keeps the largest tableau buffer it has solved in, up to
   [retain_cap] floats (64 MB), and zeroes only the prefix a solve
   uses; a larger solve gets a fresh buffer that is dropped with it.
   Reuse keeps the service's memory flat: a fresh tableau per solve
   leaves the dead ones for the GC, and a heap-allocated one makes the
   GC pace its work to a heap that is mostly tableau. *)
let retain_cap = 1 lsl 23

let retained : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let zeroed_buffer size =
  let fresh () = A1.create Bigarray.float64 Bigarray.c_layout size in
  let buf =
    if size > retain_cap then fresh ()
    else
      let slot = Domain.DLS.get retained in
      match !slot with
      | Some buf when A1.dim buf >= size -> buf
      | _ ->
          let buf = fresh () in
          slot := Some buf;
          buf
  in
  A1.fill (A1.sub buf 0 size) 0.;
  buf

let reduced t j = t.a.{(t.m * t.ncols) + j}

let gather_column t col =
  for r = 0 to t.m - 1 do
    t.column.(r) <- t.a.{(r * t.ncols) + col}
  done

(* [a[dst + j] -= factor * a[src + j]] for [j < len], and the same over
   the [nnz] (column, value) pairs of [cols]/[vals]. Top-level
   functions, so [a] and the offsets stay in registers; the callers
   keep every index within [a]. *)
let sweep (a : buffer) ~dst ~src ~len factor =
  (* Unrolled by four: on (LP2)'s dense rows the loop overhead of a
     bigarray access costs as much as the arithmetic. *)
  let off = src - dst and stop = dst + len in
  let i = ref dst in
  while !i + 4 <= stop do
    let d = !i in
    let x0 = A1.unsafe_get a d and y0 = A1.unsafe_get a (d + off) in
    let x1 = A1.unsafe_get a (d + 1) and y1 = A1.unsafe_get a (d + 1 + off) in
    let x2 = A1.unsafe_get a (d + 2) and y2 = A1.unsafe_get a (d + 2 + off) in
    let x3 = A1.unsafe_get a (d + 3) and y3 = A1.unsafe_get a (d + 3 + off) in
    A1.unsafe_set a d (x0 -. (factor *. y0));
    A1.unsafe_set a (d + 1) (x1 -. (factor *. y1));
    A1.unsafe_set a (d + 2) (x2 -. (factor *. y2));
    A1.unsafe_set a (d + 3) (x3 -. (factor *. y3));
    i := d + 4
  done;
  for d = !i to stop - 1 do
    A1.unsafe_set a d (A1.unsafe_get a d -. (factor *. A1.unsafe_get a (d + off)))
  done

let scatter (a : buffer) ~dst cols vals ~nnz factor =
  for k = 0 to nnz - 1 do
    let j = dst + Array.unsafe_get cols k in
    A1.unsafe_set a j
      (A1.unsafe_get a j -. (factor *. Array.unsafe_get vals k))
  done

(* Pivot on [(row, col)]; [t.column] must hold column [col] (see
   [gather_column]). Skipping a zero entry of the pivot row leaves
   [x -. factor *. 0.] at [x] up to the sign of a zero, which no test in
   the solver can see, so while the tableau stays finite the result is
   the dense elimination's. *)
let pivot t ~row ~col =
  let a = t.a and ncols = t.ncols in
  let prow = row * ncols in
  (* Normalise the pivot row and collect its nonzeros off the pivot. *)
  let inv = 1. /. t.column.(row) in
  let nnz = ref 0 in
  for j = 0 to ncols - 1 do
    let v = a.{prow + j} in
    if v <> 0. then begin
      let v = v *. inv in
      a.{prow + j} <- v;
      if j <> col then begin
        t.nz_col.(!nnz) <- j;
        t.nz_val.(!nnz) <- v;
        incr nnz
      end
    end
  done;
  let nnz = !nnz in
  a.{prow + col} <- 1.;
  t.b.(row) <- t.b.(row) *. inv;
  (* Past half full, the contiguous sweep over the whole row beats the
     indexed one; (LP2) pivot rows are about 60% nonzero. Rows start at
     multiples of [ncols] within the m + 1 rows of [a], [nz_col] and
     [nz_val] have length [ncols], and [nz_col] holds column indices, so
     the unchecked accesses stay in bounds. *)
  let sweep_all = 2 * nnz > ncols in
  let eliminate base factor =
    if sweep_all then sweep a ~dst:base ~src:prow ~len:ncols factor
    else scatter a ~dst:base t.nz_col t.nz_val ~nnz factor;
    a.{base + col} <- 0.
  in
  (* Eliminate the pivot column from every other row and the cost row. *)
  for r = 0 to t.m - 1 do
    if r <> row then begin
      let factor = t.column.(r) in
      if factor <> 0. then begin
        eliminate (r * ncols) factor;
        t.b.(r) <- t.b.(r) -. (factor *. t.b.(row))
      end
    end
  done;
  let factor = reduced t col in
  if factor <> 0. then begin
    eliminate (t.m * ncols) factor;
    (* The entering variable takes value [t.b.(row)] (already normalised),
       changing the objective by its reduced cost times that value. *)
    t.obj <- t.obj +. (factor *. t.b.(row))
  end;
  t.basis.(row) <- col

(* Recompute the reduced-cost row for cost vector [c] from scratch. *)
let install_costs t c =
  let a = t.a and ncols = t.ncols in
  let cost = t.m * ncols in
  for j = 0 to ncols - 1 do
    a.{cost + j} <- c.(j)
  done;
  t.obj <- 0.;
  for r = 0 to t.m - 1 do
    let cb = c.(t.basis.(r)) in
    if cb <> 0. then begin
      sweep a ~dst:cost ~src:(r * ncols) ~len:ncols cb;
      t.obj <- t.obj +. (cb *. t.b.(r))
    end
  done;
  (* Basic columns must read exactly zero. *)
  Array.iter (fun col -> a.{cost + col} <- 0.) t.basis

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
        if enterable.(!j) && reduced t !j < -.eps then col := !j;
        incr j
      done
    end
    else begin
      (* Dantzig: most negative reduced cost. *)
      let best = ref (-.eps) in
      for j = 0 to t.ncols - 1 do
        if enterable.(j) && reduced t j < !best then begin
          best := reduced t j;
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
  let a = zeroed_buffer ((m + 1) * ncols) in
  let b = Array.make m 0. in
  let basis = Array.make m (-1) in
  let art_start = n + n_slack in
  let next_slack = ref n and next_art = ref art_start in
  List.iteri
    (fun r (row : Lp.row) ->
      let base = r * ncols in
      List.iter (fun (v, c) -> a.{base + v} <- a.{base + v} +. c) row.coeffs;
      b.(r) <- row.rhs;
      (match row.rel with
      | Lp.Le ->
          a.{base + !next_slack} <- 1.;
          basis.(r) <- !next_slack;
          incr next_slack
      | Lp.Ge ->
          a.{base + !next_slack} <- -1.;
          incr next_slack;
          a.{base + !next_art} <- 1.;
          basis.(r) <- !next_art;
          incr next_art
      | Lp.Eq ->
          a.{base + !next_art} <- 1.;
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
            if Float.abs t.a.{(r * ncols) + !j} > eps then col := !j;
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
