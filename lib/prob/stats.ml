type summary = {
  count : int;
  mean : float;
  variance : float;
  stddev : float;
  min : float;
  max : float;
  sem : float;
  ci95 : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  (* Welford's online algorithm: numerically stable single pass. *)
  let mean = ref 0. and m2 = ref 0. in
  let mn = ref xs.(0) and mx = ref xs.(0) in
  Array.iteri
    (fun i x ->
      let delta = x -. !mean in
      mean := !mean +. (delta /. Float.of_int (i + 1));
      m2 := !m2 +. (delta *. (x -. !mean));
      if x < !mn then mn := x;
      if x > !mx then mx := x)
    xs;
  let variance = if n < 2 then 0. else !m2 /. Float.of_int (n - 1) in
  let stddev = sqrt variance in
  let sem = if n < 2 then 0. else stddev /. sqrt (Float.of_int n) in
  {
    count = n;
    mean = !mean;
    variance;
    stddev;
    min = !mn;
    max = !mx;
    sem;
    ci95 = 1.96 *. sem;
  }

let mean xs = (summarize xs).mean
let variance xs = (summarize xs).variance
let stddev xs = (summarize xs).stddev

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let h = q *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor h) in
  let hi = min (lo + 1) (n - 1) in
  let frac = h -. Float.of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = quantile xs 0.5

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = ref 0. and sy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y)
    pts;
  let mx = !sx /. Float.of_int n and my = !sy /. Float.of_int n in
  let sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sxx := !sxx +. ((x -. mx) *. (x -. mx));
      sxy := !sxy +. ((x -. mx) *. (y -. my)))
    pts;
  if !sxx = 0. then invalid_arg "Stats.linear_fit: all x values equal";
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))

let r_squared pts (slope, intercept) =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Stats.r_squared: empty sample";
  let my =
    Array.fold_left (fun acc (_, y) -> acc +. y) 0. pts /. Float.of_int n
  in
  let ss_res = ref 0. and ss_tot = ref 0. in
  Array.iter
    (fun (x, y) ->
      let yhat = (slope *. x) +. intercept in
      ss_res := !ss_res +. ((y -. yhat) *. (y -. yhat));
      ss_tot := !ss_tot +. ((y -. my) *. (y -. my)))
    pts;
  if !ss_tot = 0. then 1. else 1. -. (!ss_res /. !ss_tot)
