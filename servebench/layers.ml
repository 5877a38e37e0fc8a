(* The traced run's in-process replay: the lines a server was sent, run
   again through the public functions of each layer it would have used,
   one span per call. Spans come from this file only; the library is
   not instrumented. Every span of a request carries its ["req"]
   attribute.

   The replay follows the path of the server it stands for. For
   [suu serve]: decode, cache key, cache lookup, policy build, seeded
   estimate, response encode. For [suu coordinator] splitting a request:
   decode, route, one re-encoded sub-line per planned range, then per
   sub-job the shard's decode, key, build, ranged estimate and partial
   encode, and the coordinator's classify-and-merge and final encode.
   Each decode is followed by separate calls to its two parts, JSON and
   instance text, so the decode can be split. *)

module Trace = Suu_obs.Trace
module Json = Suu_service.Json
module Request = Suu_service.Request
module Cache = Suu_service.Cache
module Io = Suu_harness.Io
module Engine = Suu_sim.Engine
module Stats = Suu_prob.Stats
module Instance = Suu_core.Instance
module Policy = Suu_core.Policy
module Merge = Suu_shard.Merge
module Ring = Suu_shard.Ring
module Dispatch = Suu_shard.Dispatch

(* A request's tracer and id, threaded through its calls. *)
type ctx = { tr : Trace.t; req : string }

let span c ?(attrs = []) name f =
  Trace.with_span c.tr ~cat:"layer" ~attrs:(("req", c.req) :: attrs) name f

let decode c line =
  let req =
    span c "request.of_line" (fun () ->
        Request.of_line ~default_trials:200 ~default_seed:1 line)
  in
  (match span c "json.of_string" (fun () -> Json.of_string line) with
  | Ok j -> (
      match Json.member "instance" j with
      | Some (Json.Str text) ->
          ignore (span c "io.of_string" (fun () -> Io.of_string text))
      | _ -> ())
  | Error _ -> ());
  match req with
  | Ok r -> r
  | Error (msg, _) -> failwith ("replayed line does not decode: " ^ msg)

let solve_args req =
  match req.Request.op with
  | Request.Solve { algo; trials; seed; instance; _ } ->
      (algo, trials, seed, instance)
  | _ -> failwith "replay: expected a solve request"

let build c algo instance =
  span c
    ~attrs:[ ("algo", Request.algo_name algo) ]
    "solver.solve"
    (fun () ->
      Suu_algo.Solver.solve ~kind:(Request.canonical_algo algo) instance)

let summary_fields policy (e : Engine.estimate) =
  let p95 =
    if Array.length e.Engine.samples = 0 then 0.
    else Stats.quantile e.Engine.samples 0.95
  in
  [
    ("algo", Json.Str policy.Policy.name);
    ("trials", Json.int e.Engine.trials);
    ("mean", Json.Num e.Engine.stats.Stats.mean);
    ("ci95", Json.Num e.Engine.stats.Stats.ci95);
    ("p95", Json.Num p95);
    ("incomplete", Json.int e.Engine.incomplete);
  ]

let info_fields instance =
  let dag = Instance.dag instance in
  let b = Suu_algo.Bounds.compute ~with_lp:false instance in
  [
    ( "class",
      Json.Str (Suu_dag.Classify.to_string (Suu_dag.Classify.classify dag)) );
    ("jobs", Json.int (Instance.n instance));
    ("machines", Json.int (Instance.m instance));
    ("edges", Json.int (Suu_dag.Dag.edge_count dag));
    ("width", Json.int (Suu_dag.Dag.width dag));
    ("critical_path", Json.int (Suu_dag.Dag.longest_path dag));
    ("best", Json.Num (Suu_algo.Bounds.best b));
  ]

(* One request as [suu serve] handles it; returns the encoded answer. *)
let serve_request c cache line =
  let req = decode c line in
  let key = span c "request.cache_key" (fun () -> Request.cache_key req) in
  let fields =
    match req.Request.op with
    | Request.Info instance -> span c "info.compute" (fun () -> info_fields instance)
    | _ -> (
        match Option.bind key (Cache.find cache) with
        | Some f -> ("cached", Json.Bool true) :: f
        | None ->
            let algo, trials, seed, instance = solve_args req in
            let policy = build c algo instance in
            let e =
              span c "engine.estimate" (fun () ->
                  Engine.estimate_makespan_seeded ~trials ~seed instance policy)
            in
            let f = summary_fields policy e in
            Option.iter (fun k -> Cache.add cache k f) key;
            ("cached", Json.Bool false) :: f)
  in
  span c "request.ok" (fun () -> Request.ok ~id:req.Request.id fields)

(* One sub-job as a shard runs it; returns its partial answer line. *)
let subjob c sub ~lo ~hi =
  let req = decode c sub in
  ignore (span c "request.cache_key" (fun () -> Request.cache_key req));
  let algo, _, seed, instance = solve_args req in
  let policy = build c algo instance in
  let e =
    span c "engine.estimate" (fun () ->
        Engine.estimate_makespan_range ~seed ~lo ~hi instance policy)
  in
  span c "request.ok" (fun () ->
      Request.ok ~id:req.Request.id
        [
          ("algo", Json.Str policy.Policy.name);
          ("partial", Json.Bool true);
          ("lo", Json.int lo);
          ("hi", Json.int hi);
          ("trials", Json.int e.Engine.trials);
          ("incomplete", Json.int e.Engine.incomplete);
          ( "samples",
            Json.List
              (Array.to_list (Array.map (fun s -> Json.Num s) e.Engine.samples))
          );
        ])

(* One request as [suu coordinator] splits it over [shards]. *)
let fleet_request c ring ~shards line =
  let req = decode c line in
  let key = span c "request.cache_key" (fun () -> Request.cache_key req) in
  Option.iter
    (fun k ->
      ignore
        (span c "shard.route" (fun () -> Ring.route ring ~live:(fun _ -> true) k)))
    key;
  let _, trials, _, instance = solve_args req in
  let ranges = Dispatch.plan ~trials ~chunk:(Dispatch.auto_chunk ~trials ~shards) in
  let answers =
    List.map
      (fun (lo, hi) ->
        let sub = span c "shard.sub_line" (fun () -> Request.sub_line req ~lo ~hi) in
        subjob c sub ~lo ~hi)
      ranges
  in
  let fields =
    span c "shard.merge" (fun () ->
        let parts =
          List.map
            (fun a ->
              match Merge.classify a with
              | Merge.Part p -> p
              | _ -> failwith ("replay: not a partial answer: " ^ a))
            answers
        in
        ("cached", Json.Bool false)
        :: Merge.merged_fields ~max_steps:(Engine.default_horizon instance) parts)
  in
  span c "request.ok" (fun () -> Request.ok ~id:req.Request.id fields)

(* [replay tracer i line] is request [i]'s answer, with its spans
   recorded under [tracer]. Each replayer has its own result cache (of
   the server's capacity) or its own ring over [shards]. *)
let replayer ~cache_capacity ~shards =
  if shards > 0 then
    let ring = Ring.create (List.init shards Fun.id) in
    fun tr i line ->
      let c = { tr; req = string_of_int i } in
      span c "request" (fun () -> fleet_request c ring ~shards line)
  else
    let cache = Cache.create ~capacity:cache_capacity in
    fun tr i line ->
      let c = { tr; req = string_of_int i } in
      span c "request" (fun () -> serve_request c cache line)

(* --- from spans to layer figures --- *)

type totals = {
  ms : (string, float) Hashtbl.t;
      (** summed span time per layer; [solver.solve.<algo>] per algorithm *)
  algo_requests : (string, int) Hashtbl.t;  (** requests that built [algo] *)
}

let totals spans =
  let ms = Hashtbl.create 32 and seen = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace ms k (v +. Option.value (Hashtbl.find_opt ms k) ~default:0.)
  in
  List.iter
    (fun (s : Trace.span) ->
      let v = s.Trace.dur_ns /. 1e6 in
      match s.Trace.name with
      | "solver.solve" ->
          let attr k = Option.value (List.assoc_opt k s.Trace.attrs) ~default:"" in
          add "solver.solve" v;
          add ("solver.solve." ^ attr "algo") v;
          Hashtbl.replace seen (attr "algo", attr "req") ()
      | name -> add name v)
    spans;
  let algo_requests = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (algo, _) () ->
      Hashtbl.replace algo_requests algo
        (1 + Option.value (Hashtbl.find_opt algo_requests algo) ~default:0))
    seen;
  { ms; algo_requests }
