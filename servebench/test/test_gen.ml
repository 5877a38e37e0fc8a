(* Self-tests for the serving benchmark's request generator: lines are a
   pure function of (workload, seed, index), and each workload's mix
   holds. *)

module Gen = Servebench.Gen
module Json = Suu_service.Json

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let lines w ~seed count =
  let g = Gen.create w ~seed in
  List.init count (Gen.line g)

let field k line =
  match Json.of_string line with
  | Ok j -> (
      match Json.member k j with Some (Json.Str s) -> Some s | _ -> None)
  | Error _ -> None

let distinct l = List.length (List.sort_uniq compare l)

let () =
  List.iter
    (fun (name, w) ->
      check (name ^ ": same seed, same bytes") (lines w ~seed:7 60 = lines w ~seed:7 60);
      check (name ^ ": other seed, other lines") (lines w ~seed:7 60 <> lines w ~seed:8 60);
      check (name ^ ": every line decodes")
        (List.for_all
           (fun l ->
             Result.is_ok
               (Suu_service.Request.of_line ~default_trials:200 ~default_seed:1 l))
           (lines w ~seed:3 24)))
    Gen.workloads;
  (* wire-heavy: one info op in six; each solve line sent twice. *)
  let wire = lines Gen.Wire_heavy ~seed:5 1200 in
  let solves = List.filter (fun l -> field "op" l = Some "solve") wire in
  let infos = List.length wire - List.length solves in
  check "wire-heavy: 1 in 6 lines is info" (infos * 6 = List.length wire);
  check "wire-heavy: half the solves repeat an earlier line"
    (2 * distinct solves = List.length solves);
  check "wire-heavy: each solve line recurs within 6 requests"
    (let a = Array.of_list wire in
     let ok = ref true in
     Array.iteri
       (fun i l ->
         if field "op" l = Some "solve" then begin
           let earlier = ref (-1) in
           for j = max 0 (i - 6) to i - 1 do
             if a.(j) = l then earlier := j
           done;
           let later = ref (-1) in
           for j = i + 1 to min (Array.length a - 1) (i + 6) do
             if a.(j) = l then later := j
           done;
           if !earlier < 0 && !later < 0 then ok := false
         end)
       a;
     !ok);
  (* build-heavy: 8 instances, two per family, changing seeds. *)
  let build = lines Gen.Build_heavy ~seed:5 200 in
  check "build-heavy: 8 distinct instances"
    (distinct (List.filter_map (field "instance") build) = 8);
  check "build-heavy: every request oblivious"
    (List.for_all (fun l -> field "algo" l = Some "oblivious") build);
  check "build-heavy: distinct seeds" (distinct build = List.length build);
  (* mc-heavy: 3/5 adaptive, 1/5 improved, 1/5 fixed; distinct lines. *)
  let mc = lines Gen.Mc_heavy ~seed:5 200 in
  let count algo = List.length (List.filter (fun l -> field "algo" l = Some algo) mc) in
  check "mc-heavy: algorithm mix 3:1:1"
    (count "adaptive" = 120 && count "improved" = 40 && count "fixed" = 40);
  check "mc-heavy: distinct lines" (distinct mc = List.length mc);
  check "fleet-split: the mc-heavy lines"
    (lines Gen.Fleet_split ~seed:5 200 = mc);
  if !failures > 0 then exit 1
