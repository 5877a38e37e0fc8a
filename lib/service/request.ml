module Instance = Suu_core.Instance
module Io = Suu_harness.Io
module Churn = Suu_dyn.Churn

type algo = [ `Auto | `Adaptive | `Oblivious | `Improved | `Fixed ]

let algo_name = function
  | `Auto -> "auto"
  | `Adaptive -> "adaptive"
  | `Oblivious -> "oblivious"
  | `Improved -> "improved"
  | `Fixed -> "fixed"

type ('instance, 'plan) request_op =
  | Solve of {
      algo : algo;
      trials : int;
      seed : int;
      range : (int * int) option;
      ci_target : float option;
      releases : int array option;
      churn : Churn.params option;
      instance : 'instance;
      digest : string Lazy.t;
    }
  | Estimate of {
      plan : 'plan;
      plan_digest : string Lazy.t;
      trials : int;
      seed : int;
      range : (int * int) option;
      ci_target : float option;
      releases : int array option;
      churn : Churn.params option;
      instance : 'instance;
      digest : string Lazy.t;
    }
  | Info of 'instance
  | Exact of { instance : 'instance; digest : string Lazy.t }
  | Ping
  | Stats of { format : [ `Json | `Prom | `Raw ] }

type op = (Instance.t, Suu_core.Oblivious.t) request_op

type t = { id : string option; deadline_ms : float option; op : op }

let op_kind = function
  | Solve _ -> "solve"
  | Estimate _ -> "estimate"
  | Info _ -> "info"
  | Exact _ -> "exact"
  | Ping -> "ping"
  | Stats _ -> "stats"

(* --- decoding --- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let id_of json =
  match Json.member "id" json with
  | Some (Json.Str s) -> Some s
  | Some (Json.Num _ as v) -> Some (Json.to_string v)
  | _ -> None

let int_field json name ~default =
  match Json.member name json with
  | None -> default
  | Some v -> (
      match Json.to_int v with
      | Some k -> k
      | None -> fail "%s: expected an integer" name)

let text_field json name =
  match Json.member name json with
  | Some (Json.Str s) -> s
  | Some _ -> fail "%s: expected a string" name
  | None -> fail "%s: missing" name

(* The MD5 of a raw wire text, the instance (and plan) part of every
   key. Forced at most once per request, and only by a key. *)
let text_digest text = lazy (Digest.to_hex (Digest.string text))

let trials_field json ~default =
  let trials = int_field json "trials" ~default in
  if trials < 1 then fail "trials: must be >= 1";
  trials

(* ["range":[lo,hi]] marks a trial-range request: run only the trials
   [lo <= k < hi] of the seeded estimate. A client splits a large
   request into these at word boundaries; contiguous ranges merge back
   bit-identically ({!Suu_sim.Engine.merge_ranges}). *)
(* ["ci_target":w] asks for CI-width sequential stopping: the estimate
   may finish with fewer trials once the 95% CI half-width of the mean
   is at most [w]. Absent field -> the server's default (usually off). *)
let ci_target_field json ~default =
  match Json.member "ci_target" json with
  | None -> default
  | Some v -> (
      match Json.to_num v with
      | Some w when w > 0. -> Some w
      | Some _ -> fail "ci_target: must be > 0"
      | None -> fail "ci_target: expected a number")

(* ["releases":[r0,...]] makes the request an online one: job [j] only
   becomes eligible at step [releases.(j)]. The entries are checked
   here, the length against the parsed instance ([check_releases]). *)
let release_steps json =
  match Json.member "releases" json with
  | None -> None
  | Some (Json.List items) ->
      Some
        (Array.of_list
           (List.map
              (fun v ->
                match Json.to_int v with
                | Some k when k >= 0 -> k
                | Some k -> fail "releases: negative release %d" k
                | None -> fail "releases: expected a list of integers")
              items))
  | Some _ -> fail "releases: expected a list of integers"

(* ["churn":"seed=S,rate=R,repair=K,perm=Q,steps=N"] asks for a churned
   environment: the worker regenerates the deterministic machine up/down
   timeline from the spec and the instance's machine count, so the spec
   (not a serialized timeline) is what travels and what the cache key
   folds in. *)
let churn_field json =
  match Json.member "churn" json with
  | None -> None
  | Some (Json.Str spec) -> (
      match Churn.params_of_spec spec with
      | Ok p -> Some p
      (* Spec errors already carry the "churn: " prefix. *)
      | Error msg -> fail "%s" msg)
  | Some _ -> fail "churn: expected a spec string"

let range_field json ~trials =
  match Json.member "range" json with
  | None -> None
  | Some (Json.List [ lo; hi ]) -> (
      match (Json.to_int lo, Json.to_int hi) with
      | Some lo, Some hi ->
          let word = Suu_sim.Lanes.lanes_per_word in
          if lo < 0 || hi <= lo || hi > trials then
            fail "range: need 0 <= lo < hi <= trials"
          else if lo mod word <> 0 || (hi mod word <> 0 && hi <> trials) then
            fail
              "range: lo and hi must be multiples of %d (hi may equal trials)"
              word
          else Some (lo, hi)
      | _ -> fail "range: expected [lo,hi] integers")
  | Some _ -> fail "range: expected [lo,hi] integers"

let algo_field json =
  match Json.member "algo" json with
  | None | Some (Json.Str "auto") -> `Auto
  | Some (Json.Str "adaptive") -> `Adaptive
  | Some (Json.Str "oblivious") -> `Oblivious
  | Some (Json.Str "improved") -> `Improved
  | Some (Json.Str "fixed") -> `Fixed
  | Some (Json.Str other) -> fail "algo: unknown algorithm %S" other
  | Some _ -> fail "algo: expected a string"

let op_field json =
  match Json.member "op" json with
  | Some (Json.Str s) -> s
  | Some _ -> fail "op: expected a string"
  | None -> fail "op: missing"

let deadline_field json =
  match Json.member "deadline_ms" json with
  | None -> None
  | Some v -> (
      match Json.to_num v with
      | Some d when d >= 0. -> Some d
      | Some _ -> fail "deadline_ms: must be >= 0"
      | None -> fail "deadline_ms: expected a number")

(* The one field walk behind [of_json] and [route_line]. It reads every
   envelope field in one order (op, algo, trials, seed, range,
   ci_target, the releases format, churn, deadline) and then checks
   that the instance and plan texts are present, leaving them unparsed.
   Raises [Bad] on the first failure. The texts are only read after the
   deadline, so any envelope fault wins over a missing text. *)
let walk ~default_trials ~default_seed ?default_ci_target json =
  let monte_carlo_fields () =
    let trials = trials_field json ~default:default_trials in
    let seed = int_field json "seed" ~default:default_seed in
    let range = range_field json ~trials in
    let ci_target = ci_target_field json ~default:default_ci_target in
    let releases = release_steps json in
    let churn = churn_field json in
    (trials, seed, range, ci_target, releases, churn)
  in
  let texts =
    match op_field json with
    | "solve" ->
        let algo = algo_field json in
        let trials, seed, range, ci_target, releases, churn =
          monte_carlo_fields ()
        in
        fun () ->
          let instance = text_field json "instance" in
          Solve
            {
              algo;
              trials;
              seed;
              range;
              ci_target;
              releases;
              churn;
              instance;
              digest = text_digest instance;
            }
    | "estimate" ->
        let trials, seed, range, ci_target, releases, churn =
          monte_carlo_fields ()
        in
        fun () ->
          let plan = text_field json "plan" in
          let instance = text_field json "instance" in
          Estimate
            {
              plan;
              plan_digest = text_digest plan;
              trials;
              seed;
              range;
              ci_target;
              releases;
              churn;
              instance;
              digest = text_digest instance;
            }
    | "info" -> fun () -> Info (text_field json "instance")
    | "exact" ->
        fun () ->
          let instance = text_field json "instance" in
          Exact { instance; digest = text_digest instance }
    | "ping" -> fun () -> Ping
    | "stats" ->
        let format =
          match Json.member "format" json with
          | None | Some (Json.Str "json") -> `Json
          | Some (Json.Str "prom") -> `Prom
          | Some (Json.Str "raw") -> `Raw
          | Some (Json.Str other) -> fail "format: unknown format %S" other
          | Some _ -> fail "format: expected a string"
        in
        fun () -> Stats { format }
    | other -> fail "op: unknown operation %S" other
  in
  let deadline_ms = deadline_field json in
  (deadline_ms, texts ())

let parse_instance text =
  try Io.of_string text with Failure msg -> fail "instance: %s" msg

(* Validated here, against the parsed instance, so a hostile vector is
   a structured request error rather than a worker-side exception. *)
let check_releases releases instance =
  Option.iter
    (fun r ->
      let n = Instance.n instance in
      if Array.length r <> n then
        fail "releases: %d entries but instance has %d jobs" (Array.length r)
          n)
    releases

(* The checks that need the texts parsed: the plan, the instance, the
   plan's machine count and the releases length, in that order. *)
let parse : (string, string) request_op -> op = function
  | Solve r ->
      let instance = parse_instance r.instance in
      check_releases r.releases instance;
      Solve { r with instance }
  | Estimate r ->
      let plan =
        try Io.schedule_of_string r.plan
        with Failure msg -> fail "plan: %s" msg
      in
      let instance = parse_instance r.instance in
      if plan.Suu_core.Oblivious.m <> Instance.m instance then
        fail "plan: %d machines but instance has %d" plan.Suu_core.Oblivious.m
          (Instance.m instance);
      check_releases r.releases instance;
      Estimate { r with plan; instance }
  | Info text -> Info (parse_instance text)
  | Exact r -> Exact { r with instance = parse_instance r.instance }
  | Ping -> Ping
  | Stats { format } -> Stats { format }

let guarded id f =
  match f () with
  | v -> Ok v
  | exception Bad msg -> Error (msg, id)
  (* Last line of defence: a decoder bug (or a field validation gap)
     must yield a structured error, never kill the reader loop — but
     resource-exhaustion exceptions are not decoder bugs and swallowing
     them would hide a dying process. *)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error ("parse: unexpected: " ^ Printexc.to_string e, id)

let of_json ~default_trials ~default_seed ?default_ci_target json =
  let id = id_of json in
  guarded id (fun () ->
      let deadline_ms, op =
        walk ~default_trials ~default_seed ?default_ci_target json
      in
      { id; deadline_ms; op = parse op })

let of_line ~default_trials ~default_seed ?default_ci_target line =
  match Json.of_string line with
  | Error msg -> Error ("parse: " ^ msg, None)
  | Ok json -> of_json ~default_trials ~default_seed ?default_ci_target json

(* --- cache keys --- *)

let canonical_algo = function
  | `Auto -> `Adaptive
  | (`Adaptive | `Oblivious | `Improved | `Fixed) as a -> a

let range_suffix = function
  | None -> ""
  | Some (lo, hi) -> Printf.sprintf ":r%d-%d" lo hi

(* Dynamic-environment parameters get their own cache-key lanes: a
   churned or release-dated answer must never alias the static one. The
   churn lane keys on the canonical spec (the timeline is a pure
   function of spec + machine count); the release lane keys on a digest
   of the vector. *)
let releases_suffix = function
  | None -> ""
  | Some r ->
      Printf.sprintf ":l%s"
        (Digest.to_hex
           (Digest.string
              (String.concat "," (List.map string_of_int (Array.to_list r)))))

let churn_suffix = function
  | None -> ""
  | Some p -> ":h" ^ Churn.spec_of_params p

(* [%h] is an exact (hex) float representation: two requests share a key
   iff they stop at the very same CI width. An early-stopped answer must
   never alias an exhaustive one. *)
let ci_suffix = function
  | None -> ""
  | Some w -> Printf.sprintf ":c%h" w

let cacheable req =
  match req.op with
  | Solve _ | Estimate _ | Exact _ -> true
  | Info _ | Ping | Stats _ -> false

(* One key for raw and parsed requests alike, so the coordinator's route
   key and a shard's result key are the same string. *)
let key_of = function
  | Solve { algo; trials; seed; range; ci_target; releases; churn; digest; _ }
    ->
      (* Key on the algorithm actually executed, so "auto" and "adaptive"
         requests share one cache entry. A range request keys on its
         range too: a partial answer must never alias the full one. *)
      Some
        (Printf.sprintf "solve:%s:%s:%d:%d%s%s%s%s" (Lazy.force digest)
           (algo_name (canonical_algo algo))
           trials seed (range_suffix range) (ci_suffix ci_target)
           (releases_suffix releases) (churn_suffix churn))
  | Estimate
      {
        plan_digest;
        trials;
        seed;
        range;
        ci_target;
        releases;
        churn;
        digest;
        _;
      } ->
      Some
        (Printf.sprintf "estimate:%s:%s:%d:%d%s%s%s%s" (Lazy.force digest)
           (Lazy.force plan_digest) trials seed (range_suffix range)
           (ci_suffix ci_target) (releases_suffix releases)
           (churn_suffix churn))
  | Exact { digest; _ } -> Some ("exact:" ^ Lazy.force digest)
  | Info _ | Ping | Stats _ -> None

let cache_key req = key_of req.op

(* --- routing without the instance parse --- *)

type route =
  | Forward of { id : string option; key : string option }
  | Decoded of (t, string * string option) result

let route_line ~default_trials ~default_seed ?default_ci_target line =
  match Json.of_string line with
  | Error msg -> Decoded (Error ("parse: " ^ msg, None))
  | Ok json -> (
      let id = id_of json in
      match
        guarded id (fun () ->
            walk ~default_trials ~default_seed ?default_ci_target json)
      with
      | Error e -> Decoded (Error e)
      | Ok (deadline_ms, ((Ping | Stats _) as op)) ->
          Decoded (Ok { id; deadline_ms; op = parse op })
      | Ok (_, op) -> Forward { id; key = key_of op })

(* --- re-encoding (range request lines) --- *)

let sub_line req ~lo ~hi =
  let envelope fields =
    let base =
      match req.id with None -> [] | Some id -> [ ("id", Json.Str id) ]
    in
    let deadline =
      match req.deadline_ms with
      | None -> []
      | Some d -> [ ("deadline_ms", Json.Num d) ]
    in
    Json.to_string (Json.Obj (base @ fields @ deadline))
  in
  let ci_fields = function
    | None -> []
    | Some w -> [ ("ci_target", Json.Num w) ]
  in
  (* Canonical re-encode of the dynamic-environment fields: releases as
     the integer list verbatim, churn as the canonical spec string — so
     every range of one request computes over the identical timeline
     and their worker-side cache keys agree. *)
  let dyn_fields ~releases ~churn =
    (match releases with
    | None -> []
    | Some r ->
        [
          ( "releases",
            Json.List (Array.to_list (Array.map Json.int r)) );
        ])
    @
    match churn with
    | None -> []
    | Some p -> [ ("churn", Json.Str (Churn.spec_of_params p)) ]
  in
  match req.op with
  | Solve { algo; trials; seed; ci_target; releases; churn; instance; _ } ->
      envelope
        ([
           ("op", Json.Str "solve");
           (* Re-encode the canonical algorithm, not the raw one: "auto"
              resolution must happen exactly once, at the client, so
              a range executes (and caches) identically on any worker
              whatever that worker's own default resolution is. *)
           ("algo", Json.Str (algo_name (canonical_algo algo)));
           ("trials", Json.int trials);
           ("seed", Json.int seed);
           ("range", Json.List [ Json.int lo; Json.int hi ]);
         ]
        @ ci_fields ci_target
        @ dyn_fields ~releases ~churn
        @ [ ("instance", Json.Str (Io.to_string instance)) ])
  | Estimate { plan; trials; seed; ci_target; releases; churn; instance; _ }
    ->
      envelope
        ([
           ("op", Json.Str "estimate");
           ("plan", Json.Str (Io.schedule_to_string plan));
           ("trials", Json.int trials);
           ("seed", Json.int seed);
           ("range", Json.List [ Json.int lo; Json.int hi ]);
         ]
        @ ci_fields ci_target
        @ dyn_fields ~releases ~churn
        @ [ ("instance", Json.Str (Io.to_string instance)) ])
  | Info _ | Exact _ | Ping | Stats _ ->
      invalid_arg "Request.sub_line: not a Monte-Carlo op"

(* --- responses --- *)

let id_json = function Some s -> Json.Str s | None -> Json.Null

let ok ~id fields =
  Json.to_string
    (Json.Obj (("id", id_json id) :: ("status", Json.Str "ok") :: fields))

let error ~id ?reason msg =
  Json.to_string
    (Json.Obj
       ([
          ("id", id_json id);
          ("status", Json.Str "error");
          ("error", Json.Str msg);
        ]
       @
       match reason with
       | None -> []
       | Some r -> [ ("reason", Json.Str r) ]))

let timeout ~id ~deadline_ms =
  Json.to_string
    (Json.Obj
       [
         ("id", id_json id);
         ("status", Json.Str "timeout");
         ("error", Json.Str "deadline exceeded");
         ("deadline_ms", Json.Num deadline_ms);
       ])
