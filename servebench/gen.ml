(* Request lines for the serving benchmark.

   Every line is a pure function of (workload, seed, index): a run can
   rebuild any line it sent, so the in-process reference and the traced
   replay see exactly the bytes the server saw.

   Instances are n=64, m=16 and come from a fixed corpus, so that runs
   with different seeds cost the same work on average: with eight
   instances per run, as [build-heavy] has, a seed-drawn set would move
   the policy-build cost by more than a regression worth catching. The
   seed draws every request's trial seed and where in the corpus the
   run starts. Request [i] gets family [i mod 4]: grid-batch
   (independent), grid-workflow (chains), grid-divide (out-tree) or
   project (forest). *)

module Rng = Suu_prob.Rng
module Io = Suu_harness.Io
module Json = Suu_service.Json
module W = Suu_workloads.Workload

type workload = Mc_heavy | Wire_heavy | Build_heavy | Fleet_split

let workloads =
  [
    ("mc-heavy", Mc_heavy);
    ("wire-heavy", Wire_heavy);
    ("build-heavy", Build_heavy);
    ("fleet-split", Fleet_split);
  ]

let of_name s = List.assoc_opt s workloads
let n = 64
let m = 16

(* Corpus instance [k] has family [k mod 4] and its own generator
   stream, so a pool's prefix does not depend on the pool's size. *)
let instance k =
  let rng = Rng.create ((2007 * 1_000_003) + (k * 7919) + 17) in
  let w =
    match k mod 4 with
    | 0 -> W.grid_batch rng ~n ~m
    | 1 -> W.grid_workflow rng ~n ~m ~stages:8
    | 2 -> W.grid_divide rng ~n ~m
    | _ -> W.project rng ~n ~m
  in
  w.W.instance

(* A multiple of 4, so request [i] gets family [i mod 4]. [build-heavy]
   uses the first 8 (two per family). *)
let pool_size = function Build_heavy -> 8 | _ -> 64

type t = {
  workload : workload;
  pool : string array;  (** instances as quoted JSON strings *)
  base : int;  (** per-run seed offset *)
  start : int;  (** first pool slot, a multiple of 4 *)
}

let create workload ~seed =
  let rng = Rng.create (seed lxor 0x5eed) in
  let size = pool_size workload in
  let base = Rng.int rng 0x3FFFFFFF in
  {
    workload;
    pool =
      Array.init size (fun k ->
          Json.to_string (Json.Str (Io.to_string (instance k))));
    base;
    start = 4 * Rng.int rng (size / 4);
  }

(* Distinct for distinct [i] within a run: 7919 is odd, so
   [i * 7919] is injective modulo 2^30. *)
let request_seed t i = (t.base + (i * 7919)) land 0x3FFFFFFF

let solve t ~id ~algo ~trials ~seed ~inst =
  Printf.sprintf
    {|{"op":"solve","id":"%s","algo":"%s","trials":%d,"seed":%d,"instance":%s}|}
    id algo trials seed
    t.pool.((t.start + inst) mod Array.length t.pool)

(* 3/5 adaptive, 1/5 improved, 1/5 fixed; 5 and 4 are coprime, so every
   (algorithm, family) pair recurs every 20 requests. *)
let mc_algos = [| "adaptive"; "improved"; "adaptive"; "fixed"; "adaptive" |]

(* [wire-heavy] in groups of 12: ten solves over five distinct solve
   lines, each sent twice a few requests apart, plus two [info] ops.
   [S k] is the group's k-th distinct solve, [I] an info op. *)
type slot = S of int | I

let wire_group = [| S 0; S 1; S 2; S 0; I; S 3; S 1; S 4; S 2; S 3; I; S 4 |]

let line t i =
  match t.workload with
  | Mc_heavy | Fleet_split ->
      solve t ~id:(Printf.sprintf "r%d" i) ~algo:mc_algos.(i mod 5) ~trials:200
        ~seed:(request_seed t i) ~inst:i
  | Build_heavy ->
      solve t ~id:(Printf.sprintf "r%d" i) ~algo:"oblivious" ~trials:200
        ~seed:(request_seed t i) ~inst:i
  | Wire_heavy -> (
      let g = i / Array.length wire_group in
      match wire_group.(i mod Array.length wire_group) with
      | S k ->
          let d = (g * 5) + k in
          solve t ~id:(Printf.sprintf "s%d" d) ~algo:"adaptive" ~trials:1
            ~seed:(request_seed t d) ~inst:d
      | I ->
          Printf.sprintf {|{"op":"info","id":"r%d","instance":%s}|} i
            t.pool.((t.start + i) mod Array.length t.pool))

(* How each workload is served: [suu serve] flags, or the coordinator's. *)
let server_args = function
  | Mc_heavy -> [ "serve"; "--quiet"; "--workers"; "1"; "--cache"; "0" ]
  | Wire_heavy -> [ "serve"; "--quiet"; "--workers"; "1" ]
  | Build_heavy -> [ "serve"; "--quiet"; "--workers"; "1"; "--cache"; "0" ]
  | Fleet_split ->
      [
        "coordinator"; "--quiet"; "--shards"; "2"; "--workers"; "1"; "--cache";
        "0"; "--transport"; "pipe";
      ]

(* Worker shards behind the coordinator; 0 for a plain [suu serve]. *)
let shards = function Fleet_split -> 2 | _ -> 0

(* The cache each workload's server runs with (the CLI default is 128). *)
let cache_capacity = function Wire_heavy -> 128 | _ -> 0
