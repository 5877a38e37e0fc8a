module Lp = Suu_lp.Lp
module Simplex = Suu_lp.Simplex

(* The dense two-phase simplex the solver replaced, kept verbatim as the
   differential oracle: the solver eliminates only over the pivot row's
   nonzeros and must still take the same pivots and return the same
   bits. *)
module Dense_oracle = struct
  type outcome =
    | Optimal of { objective : float; solution : float array }
    | Infeasible
    | Unbounded

  exception Iteration_limit

  (* Dense tableau in canonical form: [a] is m x ncols with unit columns for
     the basic variables, [b] >= 0 the basic values, [reduced] the reduced
     cost row and [obj] the (phase-specific) objective value at the current
     basis. *)
  type tableau = {
    m : int;
    ncols : int;
    a : float array array;
    b : float array;
    basis : int array;
    reduced : float array;
    mutable obj : float;
  }

  let pivot t ~row ~col =
    let arow = t.a.(row) in
    let p = arow.(col) in
    (* Normalise the pivot row. *)
    let inv = 1. /. p in
    for j = 0 to t.ncols - 1 do
      arow.(j) <- arow.(j) *. inv
    done;
    arow.(col) <- 1.;
    t.b.(row) <- t.b.(row) *. inv;
    (* Eliminate the pivot column from every other row and the cost row. *)
    for r = 0 to t.m - 1 do
      if r <> row then begin
        let factor = t.a.(r).(col) in
        if factor <> 0. then begin
          let target = t.a.(r) in
          for j = 0 to t.ncols - 1 do
            target.(j) <- target.(j) -. (factor *. arow.(j))
          done;
          target.(col) <- 0.;
          t.b.(r) <- t.b.(r) -. (factor *. t.b.(row))
        end
      end
    done;
    let factor = t.reduced.(col) in
    if factor <> 0. then begin
      for j = 0 to t.ncols - 1 do
        t.reduced.(j) <- t.reduced.(j) -. (factor *. arow.(j))
      done;
      t.reduced.(col) <- 0.;
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
        let row = ref (-1) in
        let best_ratio = ref infinity in
        for r = 0 to t.m - 1 do
          let arc = t.a.(r).(!col) in
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
    let t = { m; ncols; a; b; basis; reduced = Array.make ncols 0.; obj = 0. } in
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
            if !col >= 0 then pivot t ~row:r ~col:!col
          end
        done;
        phase2 ()
      end
    end
end

let solve_expect_opt p =
  match Simplex.solve p with
  | Simplex.Optimal { objective; solution } -> (objective, solution)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let feq ?(eps = 1e-6) = Alcotest.(check (float eps)) "value"

let test_textbook_max () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2, 6). *)
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:3. "x" in
  let y = Lp.add_var b ~obj:5. "y" in
  Lp.add_le b [ (x, 1.) ] 4.;
  Lp.add_le b [ (y, 2.) ] 12.;
  Lp.add_le b [ (x, 3.); (y, 2.) ] 18.;
  let obj, sol = solve_expect_opt (Lp.build b `Maximize) in
  feq 36. obj;
  feq 2. sol.(x);
  feq 6. sol.(y)

let test_textbook_min () =
  (* min 2x + 3y; x + y >= 4; x >= 1 -> 9 at (4, 0)? No: coefficients...
     2x+3y with x+y>=4: cheapest is all x: x=4, y=0, cost 8. With x<=3
     constraint: x=3, y=1, cost 9. *)
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:2. "x" in
  let y = Lp.add_var b ~obj:3. "y" in
  Lp.add_ge b [ (x, 1.); (y, 1.) ] 4.;
  Lp.add_le b [ (x, 1.) ] 3.;
  let obj, sol = solve_expect_opt (Lp.build b `Minimize) in
  feq 9. obj;
  feq 3. sol.(x);
  feq 1. sol.(y)

let test_equality_constraint () =
  (* min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1. *)
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  let y = Lp.add_var b ~obj:1. "y" in
  Lp.add_eq b [ (x, 1.); (y, 2.) ] 4.;
  Lp.add_eq b [ (x, 1.); (y, -1.) ] 1.;
  let obj, sol = solve_expect_opt (Lp.build b `Minimize) in
  feq 3. obj;
  feq 2. sol.(x);
  feq 1. sol.(y)

let test_negative_rhs () =
  (* x - y <= -2 with x, y >= 0: minimize y -> y = 2, x = 0. *)
  let b = Lp.builder () in
  let x = Lp.add_var b "x" in
  let y = Lp.add_var b ~obj:1. "y" in
  Lp.add_le b [ (x, 1.); (y, -1.) ] (-2.);
  let obj, sol = solve_expect_opt (Lp.build b `Minimize) in
  feq 2. obj;
  feq 0. sol.(x);
  feq 2. sol.(y)

let test_infeasible () =
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  Lp.add_ge b [ (x, 1.) ] 5.;
  Lp.add_le b [ (x, 1.) ] 3.;
  match Simplex.solve (Lp.build b `Minimize) with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  Lp.add_ge b [ (x, 1.) ] 1.;
  match Simplex.solve (Lp.build b `Maximize) with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate () =
  (* Degenerate vertex: multiple constraints meet at the optimum. *)
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  let y = Lp.add_var b ~obj:1. "y" in
  Lp.add_le b [ (x, 1.); (y, 1.) ] 1.;
  Lp.add_le b [ (x, 1.) ] 1.;
  Lp.add_le b [ (y, 1.) ] 1.;
  Lp.add_le b [ (x, 2.); (y, 1.) ] 2.;
  let obj, _ = solve_expect_opt (Lp.build b `Maximize) in
  feq 1. obj

let test_zero_objective () =
  (* Pure feasibility: any point in the region works, objective 0. *)
  let b = Lp.builder () in
  let x = Lp.add_var b "x" in
  Lp.add_ge b [ (x, 1.) ] 2.;
  Lp.add_le b [ (x, 1.) ] 5.;
  let obj, sol = solve_expect_opt (Lp.build b `Minimize) in
  feq 0. obj;
  Alcotest.(check bool) "x in [2,5]" true (sol.(x) >= 2. -. 1e-9 && sol.(x) <= 5. +. 1e-9)

let test_klee_minty_small () =
  (* 3-dimensional Klee–Minty cube: stresses pivoting; optimum 125. *)
  let b = Lp.builder () in
  let x1 = Lp.add_var b ~obj:4. "x1" in
  let x2 = Lp.add_var b ~obj:2. "x2" in
  let x3 = Lp.add_var b ~obj:1. "x3" in
  Lp.add_le b [ (x1, 1.) ] 5.;
  Lp.add_le b [ (x1, 4.); (x2, 1.) ] 25.;
  Lp.add_le b [ (x1, 8.); (x2, 4.); (x3, 1.) ] 125.;
  let obj, _ = solve_expect_opt (Lp.build b `Maximize) in
  feq 125. obj

let test_solution_feasibility_api () =
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  let y = Lp.add_var b ~obj:2. "y" in
  Lp.add_le b [ (x, 1.); (y, 1.) ] 10.;
  Lp.add_ge b [ (x, 1.) ] 2.;
  let p = Lp.build b `Maximize in
  let _, sol = solve_expect_opt p in
  Alcotest.(check bool) "solver point feasible" true (Lp.feasible p sol);
  Alcotest.(check bool) "infeasible point detected" false
    (Lp.feasible p [| 0.; 0. |])

(* Random LPs: minimize c·x over {Ax <= b, x >= 0} with b >= 0 (always
   feasible at x = 0, always bounded below by 0 when c >= 0). The optimum
   must be <= the objective at any random feasible point. *)
let prop_optimal_dominates_feasible_points =
  QCheck.Test.make ~name:"optimum <= any feasible point (min)" ~count:200
    QCheck.(pair small_int (pair (int_range 1 6) (int_range 1 6)))
    (fun (seed, (nvars, nrows)) ->
      let rng = Suu_prob.Rng.create seed in
      let b = Lp.builder () in
      let vars =
        List.init nvars (fun k ->
            Lp.add_var b
              ~obj:(Suu_prob.Rng.uniform rng 0.1 2.)
              (Printf.sprintf "v%d" k))
      in
      let rows =
        List.init nrows (fun _ ->
            let coeffs =
              List.filter_map
                (fun v ->
                  if Suu_prob.Rng.float rng < 0.7 then
                    Some (v, Suu_prob.Rng.uniform rng (-1.) 2.)
                  else None)
                vars
            in
            let rhs = Suu_prob.Rng.uniform rng 0. 5. in
            Lp.add_le b coeffs rhs;
            (coeffs, rhs))
      in
      let p = Lp.build b `Minimize in
      match Simplex.solve p with
      | Simplex.Unbounded -> false (* impossible: objective >= 0 *)
      | Simplex.Infeasible -> false (* impossible: x = 0 feasible *)
      | Simplex.Optimal { objective; solution } ->
          (* x = 0 is feasible with objective 0 >= optimum; and the
             returned solution must be feasible. *)
          ignore rows;
          Lp.feasible p solution && objective <= 1e-7 && objective >= -1e-7)

let prop_solution_is_feasible =
  QCheck.Test.make ~name:"returned solutions are feasible" ~count:200
    QCheck.(pair small_int (pair (int_range 1 8) (int_range 1 8)))
    (fun (seed, (nvars, nrows)) ->
      let rng = Suu_prob.Rng.create seed in
      let b = Lp.builder () in
      let vars =
        List.init nvars (fun k ->
            Lp.add_var b
              ~obj:(Suu_prob.Rng.uniform rng (-1.) 1.)
              (Printf.sprintf "v%d" k))
      in
      (* Box constraints keep it bounded; a few random >= rows may make it
         infeasible, which is also an acceptable outcome. *)
      List.iter (fun v -> Lp.add_le b [ (v, 1.) ] (Suu_prob.Rng.uniform rng 1. 5.)) vars;
      for _ = 1 to nrows do
        let coeffs =
          List.filter_map
            (fun v ->
              if Suu_prob.Rng.float rng < 0.5 then
                Some (v, Suu_prob.Rng.uniform rng 0. 2.)
              else None)
            vars
        in
        if coeffs <> [] then Lp.add_ge b coeffs (Suu_prob.Rng.uniform rng 0. 3.)
      done;
      let p = Lp.build b `Maximize in
      match Simplex.solve p with
      | Simplex.Optimal { solution; _ } -> Lp.feasible p solution
      | Simplex.Infeasible -> true
      | Simplex.Unbounded -> false)

(* --- the Lp model layer itself --- *)

let test_lp_eval_row () =
  let row = { Lp.coeffs = [ (0, 2.); (2, -1.) ]; rel = Lp.Le; rhs = 5. } in
  Alcotest.(check (float 1e-12)) "2x0 - x2" 1. (Lp.eval_row row [| 1.; 9.; 1. |])

let test_lp_feasible_checks () =
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "x" in
  Lp.add_ge b [ (x, 1.) ] 1.;
  Lp.add_eq b [ (x, 2.) ] 4.;
  let p = Lp.build b `Minimize in
  Alcotest.(check bool) "x=2 feasible" true (Lp.feasible p [| 2. |]);
  Alcotest.(check bool) "x=0.5 violates eq" false (Lp.feasible p [| 0.5 |]);
  Alcotest.(check bool) "negative rejected" false (Lp.feasible p [| -1. |]);
  Alcotest.(check bool) "wrong arity" false (Lp.feasible p [| 1.; 1. |])

let test_lp_builder_bookkeeping () =
  let b = Lp.builder () in
  Alcotest.(check int) "empty" 0 (Lp.var_count b);
  let _ = Lp.add_var b "a" in
  let _ = Lp.add_var b ~obj:3. "b" in
  Alcotest.(check int) "two vars" 2 (Lp.var_count b);
  Alcotest.check_raises "bad row" (Invalid_argument "Lp: variable out of range")
    (fun () -> Lp.add_le b [ (7, 1.) ] 0.)

let test_lp_pp_smoke () =
  let b = Lp.builder () in
  let x = Lp.add_var b ~obj:1. "speed" in
  Lp.add_le b [ (x, 2.) ] 3.;
  let s = Format.asprintf "%a" Lp.pp (Lp.build b `Maximize) in
  Alcotest.(check bool) "mentions var" true
    (String.length s > 0
    &&
    let rec contains k =
      k + 5 <= String.length s && (String.sub s k 5 = "speed" || contains (k + 1))
    in
    contains 0)

(* --- differential: the solver against [Dense_oracle] --- *)

module Rng = Suu_prob.Rng

type verdict =
  | Opt of int64 * int64 array  (** objective and solution, as bits *)
  | Infeasible
  | Unbounded
  | Limit

let pp_verdict ppf = function
  | Opt (o, x) ->
      Format.fprintf ppf "Optimal %h [%s]" (Int64.float_of_bits o)
        (String.concat "; "
           (Array.to_list
              (Array.map (fun b -> Printf.sprintf "%h" (Int64.float_of_bits b)) x)))
  | Infeasible -> Format.pp_print_string ppf "Infeasible"
  | Unbounded -> Format.pp_print_string ppf "Unbounded"
  | Limit -> Format.pp_print_string ppf "Iteration_limit"

let verdict_t = Alcotest.testable pp_verdict ( = )

let optimal objective solution =
  Opt (Int64.bits_of_float objective, Array.map Int64.bits_of_float solution)

let sparse ?max_iters p =
  match Simplex.solve ?max_iters p with
  | Simplex.Optimal { objective; solution } -> optimal objective solution
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | exception Simplex.Iteration_limit -> Limit

let dense ?max_iters p =
  match Dense_oracle.solve ?max_iters p with
  | Dense_oracle.Optimal { objective; solution } -> optimal objective solution
  | Dense_oracle.Infeasible -> Infeasible
  | Dense_oracle.Unbounded -> Unbounded
  | exception Dense_oracle.Iteration_limit -> Limit

let check_same ?max_iters what p =
  Alcotest.check verdict_t what (dense ?max_iters p) (sparse ?max_iters p)

(* Every pivot budget from 0 to 300: equal [Iteration_limit] behaviour
   at each one pins an equal pivot count on every LP that needs fewer. *)
let check_every_budget what p =
  for max_iters = 0 to 300 do
    check_same ~max_iters (Printf.sprintf "%s, max_iters %d" what max_iters) p
  done

(* The smallest budget at which [solve] finishes; budgets are monotone
   because a run is deterministic and only the budget check reads them. *)
let budget_needed solve p =
  let finishes k = solve ~max_iters:k p <> Limit in
  let hi = ref 1 in
  while not (finishes !hi) do
    hi := 2 * !hi
  done;
  let lo = ref (-1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if finishes mid then hi := mid else lo := mid
  done;
  !hi

(* For LPs too big to sweep: the same answer at the default budget, and
   the same pivot count, shown by the oracle running out exactly one
   budget short of the solver's. *)
let check_same_pivots what p =
  check_same what p;
  let k = budget_needed (fun ~max_iters p -> sparse ~max_iters p) p in
  if k > 0 then
    Alcotest.check verdict_t (what ^ ": one budget short") Limit
      (dense ~max_iters:(k - 1) p);
  check_same ~max_iters:k (what ^ ": at the solver's budget") p

(* Coefficients from a short palette repeat within and across rows, which
   makes ties in the ratio test and degenerate vertices common. *)
let palette = [| -2.; -1.; -0.5; 0.5; 1.; 1.; 2.; 3. |]

let coefficient rng =
  if Rng.float rng < 0.6 then palette.(Rng.int rng (Array.length palette))
  else Rng.uniform rng (-2.) 3.

(* Random LPs over ≤, ≥ and = rows, with negative and zero right-hand
   sides and variables repeated within a row (their coefficients add). *)
let random_lp rng =
  let nvars = 1 + Rng.int rng 7 and nrows = 1 + Rng.int rng 7 in
  let row () =
    let coeffs =
      List.concat
        (List.init nvars (fun v ->
             let u = Rng.float rng in
             if u < 0.35 then []
             else if u < 0.85 then [ (v, coefficient rng) ]
             else [ (v, coefficient rng); (v, coefficient rng) ]))
    in
    let rel = [| Lp.Le; Lp.Ge; Lp.Eq |].(Rng.int rng 3) in
    let rhs =
      if Rng.float rng < 0.2 then 0. else Float.round (Rng.uniform rng (-4.) 8.)
    in
    { Lp.coeffs; rel; rhs }
  in
  {
    Lp.nvars;
    direction = (if Rng.float rng < 0.5 then `Minimize else `Maximize);
    objective = List.init nvars (fun v -> (v, coefficient rng));
    rows = List.init nrows (fun _ -> row ());
    names = Array.init nvars (Printf.sprintf "v%d");
  }

let test_oracle_random () =
  let seen = Hashtbl.create 4 in
  for seed = 0 to 299 do
    let p = random_lp (Rng.create seed) in
    let kind =
      match dense p with
      | Opt _ -> "optimal"
      | Infeasible -> "infeasible"
      | Unbounded -> "unbounded"
      | Limit -> "limit"
    in
    Hashtbl.replace seen kind ();
    check_every_budget (Printf.sprintf "random LP %d" seed) p
  done;
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("generator reaches " ^ kind) true
        (Hashtbl.mem seen kind))
    [ "optimal"; "infeasible"; "unbounded" ]

(* Klee–Minty cubes: max Σ 2^(d-j) x_j subject to
   Σ_{j<i} 2^(i-j+1) x_j + x_i ≤ 5^i, where Dantzig's rule visits many
   vertices; and a vertex where every constraint is tight. *)
let klee_minty d =
  let b = Lp.builder () in
  let xs =
    Array.init d (fun j ->
        Lp.add_var b ~obj:(Float.pow 2. (float (d - 1 - j))) (Printf.sprintf "x%d" j))
  in
  for i = 0 to d - 1 do
    let lower =
      List.init i (fun j -> (xs.(j), Float.pow 2. (float (i - j + 1))))
    in
    Lp.add_le b ((xs.(i), 1.) :: lower) (Float.pow 5. (float (i + 1)))
  done;
  Lp.build b `Maximize

let degenerate_star k =
  (* k variables, every pairwise sum and each variable capped at 1, all
     meeting at the optimum of max Σ x_j with Σ x_j ≤ 1. *)
  let b = Lp.builder () in
  let xs = List.init k (fun j -> Lp.add_var b ~obj:1. (Printf.sprintf "x%d" j)) in
  Lp.add_le b (List.map (fun x -> (x, 1.)) xs) 1.;
  List.iter (fun x -> Lp.add_le b [ (x, 1.) ] 1.) xs;
  List.iteri
    (fun i x ->
      List.iteri (fun j y -> if i < j then Lp.add_le b [ (x, 1.); (y, 1.) ] 1.) xs)
    xs;
  Lp.add_ge b (List.map (fun x -> (x, 1.)) xs) 0.;
  Lp.build b `Maximize

(* A random LP with every row repeated as an equality, scaled by 2:
   phase 1 ends with artificials basic at zero, which the drive-out
   must pivot away (or leave on a redundant row). *)
let redundant_lp rng =
  let p = random_lp rng in
  let twice (row : Lp.row) =
    {
      Lp.coeffs = List.map (fun (v, c) -> (v, 2. *. c)) row.coeffs;
      rel = Lp.Eq;
      rhs = 2. *. row.rhs;
    }
  in
  { p with Lp.rows = p.rows @ List.map twice p.rows }

let test_oracle_structured () =
  for d = 2 to 7 do
    check_every_budget (Printf.sprintf "klee-minty %d" d) (klee_minty d)
  done;
  for k = 2 to 6 do
    check_every_budget (Printf.sprintf "degenerate star %d" k) (degenerate_star k)
  done;
  for seed = 0 to 99 do
    check_every_budget
      (Printf.sprintf "redundant LP %d" seed)
      (redundant_lp (Rng.create (1000 + seed)))
  done

(* The relaxations the oblivious column hands to the simplex, block by
   block as Lp_indep, Chains, Trees and Forest build them. *)
let relaxations inst =
  let module Classify = Suu_dag.Classify in
  let module Decomp = Suu_dag.Chain_decomp in
  let dag = Suu_core.Instance.dag inst in
  let lp1 chains = Suu_algo.Lp_relax.relaxation inst ~chains ~windows:true in
  let blocks ?mode () =
    List.map lp1
      (Suu_algo.Trees.blocks_of_decomposition (Decomp.decompose ?mode dag))
  in
  match Classify.classify dag with
  | Classify.Independent ->
      [
        Suu_algo.Lp_relax.relaxation inst
          ~chains:(List.init (Suu_core.Instance.n inst) (fun j -> [ j ]))
          ~windows:false;
      ]
  | Classify.Chains -> [ lp1 (Classify.chain_partition dag) ]
  | Classify.Out_trees -> blocks ~mode:Decomp.Out_mode ()
  | Classify.In_trees -> blocks ~mode:Decomp.In_mode ()
  | Classify.Forest -> blocks ()
  | Classify.General -> []

(* On generated cases, also the (LP1) over a greedy path cover that the
   makespan lower bound solves for every DAG class. *)
let test_oracle_generated () =
  for seed = 0 to 59 do
    let inst =
      Suu_check.Case.instance
        (Suu_check.Gen.case (Rng.create seed) Suu_check.Gen.default)
    in
    let bound =
      Suu_algo.Lp_relax.relaxation inst
        ~chains:(Suu_dag.Classify.greedy_path_cover (Suu_core.Instance.dag inst))
        ~windows:true
    in
    List.iteri
      (fun k p -> check_same_pivots (Printf.sprintf "case %d, LP %d" seed k) p)
      (bound :: relaxations inst)
  done

(* The four LP-backed workload families at benchmark scale, generated
   as [suu gen -w W -n 64 -m 16 --seed 1] does. *)
let test_oracle_workloads () =
  let module W = Suu_workloads.Workload in
  List.iter
    (fun (name, gen) ->
      let inst = (gen (Rng.create 1) ~n:64 ~m:16).W.instance in
      List.iteri
        (fun k p -> check_same_pivots (Printf.sprintf "%s, LP %d" name k) p)
        (relaxations inst))
    [
      ("grid-batch", W.grid_batch);
      ("grid-workflow", W.grid_workflow ~stages:4);
      ("grid-divide", W.grid_divide);
      ("project", W.project);
    ]

(* --- the per-domain tableau buffer --- *)

(* The (LP1) of the grid-workflow chains at n=64, m=16: a 1,184-row
   tableau, the largest the served families solve. *)
let large_lp () =
  let module W = Suu_workloads.Workload in
  let inst = (W.grid_workflow ~stages:4 (Rng.create 1) ~n:64 ~m:16).W.instance in
  List.hd (relaxations inst)

(* A tableau above the 2^23-float retention cap: 64 rows over 131,100
   variables, nearly all of them zero columns, with a phase 1 from the
   [>=] rows. Few pivots, so the dense oracle stays quick. *)
let wide_lp () =
  let b = Lp.builder () in
  let xs =
    Array.init 131_100 (fun v ->
        Lp.add_var b ~obj:(if v < 128 then float (1 + (v mod 5)) else 0.)
          (Printf.sprintf "x%d" v))
  in
  for r = 0 to 63 do
    Lp.add_le b [ (xs.(r), 1.); (xs.(r + 64), 2.) ] (float (r + 1));
    if r mod 8 = 0 then Lp.add_ge b [ (xs.(r), 1.); (xs.(131_099 - r), 1.) ] 0.5
  done;
  Lp.build b `Maximize

(* A solve after a larger one in the same domain runs in the prefix of
   a buffer whose tail holds the larger tableau, and the larger one
   after it must see none of the smaller one's state: each is checked
   bit for bit against the oracle, which allocates fresh. *)
let sequence () =
  [ ("large", large_lp ()); ("small", klee_minty 5); ("large again", large_lp ()) ]

let test_buffer_reuse () =
  List.iter (fun (what, p) -> check_same what p) (sequence ())

let test_buffer_two_domains () =
  let lps = sequence () in
  let expected = List.map (fun (_, p) -> dense p) lps in
  let run () = List.map (fun (_, p) -> sparse p) lps in
  let domains = List.init 2 (fun _ -> Domain.spawn run) in
  List.iteri
    (fun d got ->
      List.iter2
        (fun (what, _) (e, g) ->
          Alcotest.check verdict_t (Printf.sprintf "domain %d, %s" d what) e g)
        lps (List.combine expected got))
    (List.map Domain.join domains)

let test_buffer_above_cap () =
  let p = wide_lp () in
  (* m + 1 rows of the variables, a slack per row and an artificial per
     [>=] row. *)
  let rows = List.length p.Lp.rows in
  Alcotest.(check bool) "above the retention cap" true
    ((rows + 1) * (p.Lp.nvars + rows + 8) > 1 lsl 23);
  let expected = dense p in
  Alcotest.(check bool) "wide LP has an optimum" true
    (match expected with Opt _ -> true | _ -> false);
  Alcotest.check verdict_t "wide LP" expected (sparse p);
  (* The retained buffer still serves the solves after it. *)
  List.iter (fun (what, p) -> check_same ("after the wide LP: " ^ what) p) (sequence ())

let () =
  Alcotest.run "simplex"
    [
      ( "cases",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "textbook min" `Quick test_textbook_min;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "klee-minty 3d" `Quick test_klee_minty_small;
          Alcotest.test_case "feasibility api" `Quick
            test_solution_feasibility_api;
        ] );
      ( "model",
        [
          Alcotest.test_case "eval_row" `Quick test_lp_eval_row;
          Alcotest.test_case "feasible" `Quick test_lp_feasible_checks;
          Alcotest.test_case "builder" `Quick test_lp_builder_bookkeeping;
          Alcotest.test_case "pp" `Quick test_lp_pp_smoke;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_optimal_dominates_feasible_points;
          QCheck_alcotest.to_alcotest prop_solution_is_feasible;
        ] );
      ( "dense oracle",
        [
          Alcotest.test_case "random LPs, every budget" `Quick
            test_oracle_random;
          Alcotest.test_case "klee-minty + degenerate" `Quick
            test_oracle_structured;
          Alcotest.test_case "generated-case relaxations" `Quick
            test_oracle_generated;
          Alcotest.test_case "workload relaxations n=64 m=16" `Quick
            test_oracle_workloads;
        ] );
      ( "tableau buffer",
        [
          Alcotest.test_case "large, small, large in one domain" `Quick
            test_buffer_reuse;
          Alcotest.test_case "two domains at once" `Quick
            test_buffer_two_domains;
          Alcotest.test_case "above the retention cap" `Quick
            test_buffer_above_cap;
        ] );
    ]
