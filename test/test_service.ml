(* The serving subsystem: JSON codec, LRU cache, bounded queue, request
   decoding, and the end-to-end service loop. *)

module Json = Suu_service.Json
module Cache = Suu_service.Cache
module Work_queue = Suu_service.Work_queue
module Request = Suu_service.Request
module Service = Suu_service.Service
module Fault = Suu_service.Fault
module Metrics = Suu_service.Metrics
module Emitter = Suu_service.Emitter
module Histogram = Suu_obs.Histogram
module Instance = Suu_core.Instance

(* The chaos tests' structural assertions (every request answered
   exactly once, in order, with consistent accounting) must hold for
   every fault placement; CI sweeps this seed to prove it. *)
let chaos_seed =
  Option.bind (Sys.getenv_opt "SUU_FAULT_SEED") int_of_string_opt
  |> Option.value ~default:1

let instance_text =
  "suu 1\nn 2 m 2\nedges 0\nprobs\n0.9 0.5\n0.4 0.8"

let chain_text = "suu 1\nn 2 m 2\nedges 1\n0 1\nprobs\n0.9 0.5\n0.4 0.8"

(* --- Json --- *)

let json_testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Str "x\"y\\z\n\t");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.int (-3) ]);
        ("d", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.check json_testable "roundtrip" v v'
  | Error msg -> Alcotest.fail msg

let test_json_integral_output () =
  Alcotest.(check string) "int" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string) "neg" "-7" (Json.to_string (Json.int (-7)));
  Alcotest.(check string) "frac" "1.25" (Json.to_string (Json.Num 1.25));
  Alcotest.(check string) "non-finite" "[null,null,null]"
    (Json.to_string
       (Json.List [ Json.Num Float.infinity; Json.Num Float.neg_infinity; Json.Num Float.nan ]))

let test_json_parse_escapes () =
  match Json.of_string {|"aA\né"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "escapes" "aA\n\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string"

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2";
  bad "\"unterminated"

let test_json_duplicate_keys () =
  (* A line whose meaning depends on which occurrence a reader keeps
     could make the coordinator and the worker it forwards to disagree
     about one request — rejected at the parser, at any depth. *)
  let bad s =
    match Json.of_string s with
    | Error msg ->
        Alcotest.(check bool) "error names the key" true
          (String.length msg > 0)
    | Ok _ -> Alcotest.fail ("accepted duplicate keys: " ^ s)
  in
  bad {|{"a":1,"a":2}|};
  bad {|{"a":1,"b":{"c":1,"c":2}}|};
  bad {|{"op":"solve","seed":1,"seed":2}|};
  (* Equal values are still duplicates. *)
  bad {|{"a":1,"a":1}|};
  match Json.of_string {|{"a":{"b":1},"c":{"b":2}}|} with
  | Ok _ -> ()
  | Error msg ->
      Alcotest.failf "same key in sibling objects wrongly rejected: %s" msg

let test_json_accessors () =
  let v = Json.Obj [ ("k", Json.Num 3.); ("s", Json.Str "v") ] in
  Alcotest.(check (option int)) "int" (Some 3) (Json.to_int (Json.Num 3.));
  Alcotest.(check (option int)) "not int" None (Json.to_int (Json.Num 3.5));
  Alcotest.(check (option string))
    "member" (Some "v")
    (Option.bind (Json.member "s" v) Json.to_str);
  Alcotest.(check (option string))
    "missing" None
    (Option.bind (Json.member "zz" v) Json.to_str)

(* --- Cache --- *)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check (option int)) "cold" None (Cache.find c "a");
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Cache.find c "a");
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Touch "a" so "b" is the LRU entry when "c" arrives. *)
  ignore (Cache.find c "a" : int option);
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "size bounded" 2 (Cache.length c)

let test_cache_overwrite () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "a" 9;
  Alcotest.(check (option int)) "new value" (Some 9) (Cache.find c "a");
  Alcotest.(check int) "one entry" 1 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "never stores" None (Cache.find c "a");
  Alcotest.(check int) "empty" 0 (Cache.length c)

(* --- Work_queue --- *)

let test_queue_backpressure () =
  let q = Work_queue.create ~capacity:2 () in
  Alcotest.(check bool) "push 1" true (Work_queue.push q 1);
  Alcotest.(check bool) "push 2" true (Work_queue.push q 2);
  Alcotest.(check bool) "full" false (Work_queue.push q 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Work_queue.pop q);
  Alcotest.(check bool) "room again" true (Work_queue.push q 3);
  Alcotest.(check int) "hwm" 2 (Work_queue.high_water_mark q)

let test_queue_close_drains () =
  let q = Work_queue.create ~capacity:4 () in
  ignore (Work_queue.push q 1 : bool);
  ignore (Work_queue.push q 2 : bool);
  Work_queue.close q;
  Alcotest.(check bool) "closed rejects" false (Work_queue.push q 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Work_queue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Work_queue.pop q);
  Alcotest.(check (option int)) "then None" None (Work_queue.pop q);
  (* Wrecking closes and drops what is queued: abrupt loss. *)
  let q = Work_queue.create ~capacity:max_int () in
  ignore (Work_queue.push q 1 : bool);
  Work_queue.wreck q;
  Alcotest.(check bool) "wrecked rejects" false (Work_queue.push q 2);
  Alcotest.(check (option int)) "wrecked drops" None (Work_queue.pop q)

let test_queue_cross_domain () =
  let q = Work_queue.create ~capacity:8 () in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop acc =
          match Work_queue.pop q with
          | Some x -> loop (acc + x)
          | None -> acc
        in
        loop 0)
  in
  for i = 1 to 100 do
    while not (Work_queue.push q i) do
      Domain.cpu_relax ()
    done
  done;
  Work_queue.close q;
  Alcotest.(check int) "all delivered" 5050 (Domain.join consumer)

(* --- Request decoding --- *)

let decode ?(trials = 50) ?(seed = 1) line =
  Request.of_line ~default_trials:trials ~default_seed:seed line

let test_request_decode_solve () =
  match
    decode
      (Printf.sprintf
         {|{"op":"solve","id":"r","algo":"adaptive","trials":7,"seed":9,"instance":"%s"}|}
         (String.concat "\\n" (String.split_on_char '\n' instance_text)))
  with
  | Ok { id; op = Request.Solve { algo; trials; seed; instance; _ }; _ } ->
      Alcotest.(check (option string)) "id" (Some "r") id;
      Alcotest.(check string) "algo" "adaptive" (Request.algo_name algo);
      Alcotest.(check int) "trials" 7 trials;
      Alcotest.(check int) "seed" 9 seed;
      Alcotest.(check int) "jobs" 2 (Instance.n instance)
  | Ok _ -> Alcotest.fail "wrong op"
  | Error (msg, _) -> Alcotest.fail msg

let test_request_defaults () =
  match
    decode ~trials:123 ~seed:77
      (Printf.sprintf {|{"op":"solve","instance":"%s"}|}
         (String.concat "\\n" (String.split_on_char '\n' instance_text)))
  with
  | Ok { op = Request.Solve { algo; trials; seed; _ }; id; deadline_ms; _ } ->
      Alcotest.(check string) "auto" "auto" (Request.algo_name algo);
      Alcotest.(check int) "default trials" 123 trials;
      Alcotest.(check int) "default seed" 77 seed;
      Alcotest.(check (option string)) "no id" None id;
      Alcotest.(check bool) "no deadline" true (deadline_ms = None)
  | Ok _ -> Alcotest.fail "wrong op"
  | Error (msg, _) -> Alcotest.fail msg

let test_request_errors_keep_id () =
  (match decode {|{"op":"solve","id":"k"}|} with
  | Error (_, Some "k") -> ()
  | _ -> Alcotest.fail "missing instance should fail but keep the id");
  (match decode {|{"op":"nope","id":"k"}|} with
  | Error (msg, Some "k") ->
      Alcotest.(check bool) "names the op" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "unknown op should fail but keep the id");
  match decode "not json at all" with
  | Error (_, None) -> ()
  | _ -> Alcotest.fail "garbage should fail without an id"

let test_request_bad_instance () =
  match decode {|{"op":"info","instance":"suu 2\nbogus"}|} with
  | Error (msg, _) ->
      Alcotest.(check bool) "mentions instance" true
        (String.length msg >= 9 && String.sub msg 0 9 = "instance:")
  | Ok _ -> Alcotest.fail "bad instance accepted"

let test_request_hostile_instance () =
  (* Negative sizes in an embedded instance/plan must decode to [Error] —
     before the Io size validation they escaped as Invalid_argument and
     killed the service's reader loop. *)
  let bad line =
    match decode line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted hostile request: " ^ line)
  in
  bad {|{"op":"info","id":"e","instance":"suu 1\nn 0 m -1\nedges 0\nprobs"}|};
  bad {|{"op":"solve","id":"e","instance":"suu 1\nn -1 m 1\nedges 0\nprobs"}|};
  bad
    {|{"op":"estimate","id":"e","plan":"suu-plan 1\nm 1\nprefix -1\ncycle 0","instance":"suu 1\nn 1 m 1\nedges 0\nprobs\n0.5"}|}

(* Byte damage to served request lines: the four servebench families
   at n=64, m=16 as solve and info lines, each hit by a chain of
   overwrites, inserts, deletes and cuts, a third of them aimed at the
   JSON envelope around the instance text. Every damaged line must
   decode to a value or a structured error, in both the service's and
   the coordinator's decoder, and never as an unexpected exception. *)
let test_request_fuzz_served_lines () =
  let module Rng = Suu_prob.Rng in
  let module W = Suu_workloads.Workload in
  let rng = Rng.create 28 in
  let alphabet = "0123456789-+.eE \\n\"\\{}[]:,#_xnulrt" in
  let mutate line =
    let pick () =
      if Rng.int rng 6 = 0 then Char.chr (Rng.int rng 256)
      else alphabet.[Rng.int rng (String.length alphabet)]
    in
    let len = String.length line in
    if len = 0 then String.make 1 (pick ())
    else
      let k =
        match Rng.int rng 6 with
        | 0 -> Rng.int rng (min len 96)
        | 1 -> len - 1 - Rng.int rng (min len 32)
        | _ -> Rng.int rng len
      in
      match Rng.int rng 4 with
      | 0 -> String.mapi (fun i c -> if i = k then pick () else c) line
      | 1 ->
          String.sub line 0 k ^ String.make 1 (pick ())
          ^ String.sub line k (len - k)
      | 2 -> String.sub line 0 k ^ String.sub line (k + 1) (len - k - 1)
      | _ -> String.sub line 0 k
  in
  let unexpected = "parse: unexpected:" in
  let is_unexpected msg =
    String.length msg >= String.length unexpected
    && String.sub msg 0 (String.length unexpected) = unexpected
  in
  let check line =
    let head = String.sub line 0 (min 160 (String.length line)) in
    (match Request.of_line ~default_trials:1 ~default_seed:0 line with
    | Error (msg, _) when is_unexpected msg ->
        Alcotest.failf "of_line answered %S on %S..." msg head
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "of_line raised %s on %S..." (Printexc.to_string e) head);
    match Request.route_line ~default_trials:1 ~default_seed:0 line with
    | Request.Decoded (Error (msg, _)) when is_unexpected msg ->
        Alcotest.failf "route_line answered %S on %S..." msg head
    | Request.Decoded _ | Request.Forward _ -> ()
    | exception e ->
        Alcotest.failf "route_line raised %s on %S..." (Printexc.to_string e)
          head
  in
  List.iter
    (fun family ->
      let text =
        Suu_harness.Io.to_string (family (Rng.split rng) ~n:64 ~m:16).W.instance
      in
      List.iter
        (fun fields ->
          let clean =
            Json.to_string
              (Json.Obj (fields @ [ ("instance", Json.Str text) ]))
          in
          let cur = ref clean in
          for _ = 1 to 120 do
            cur := mutate (if Rng.int rng 3 = 0 then clean else !cur);
            check !cur
          done)
        [
          [
            ("op", Json.Str "solve");
            ("id", Json.Str "s");
            ("algo", Json.Str "adaptive");
            ("trials", Json.int 1);
            ("seed", Json.int 7);
          ];
          [ ("op", Json.Str "info"); ("id", Json.Str "i") ];
        ])
    [ W.grid_batch; W.grid_workflow ~stages:8; W.grid_divide; W.project ]

let test_request_ping_and_duplicates () =
  (match decode {|{"op":"ping","id":"p"}|} with
  | Ok { op = Request.Ping; id = Some "p"; _ } -> ()
  | _ -> Alcotest.fail "ping did not decode");
  (match decode {|{"op":"stats","format":"raw"}|} with
  | Ok { op = Request.Stats { format = `Raw }; _ } -> ()
  | _ -> Alcotest.fail "raw stats did not decode");
  (* Duplicate keys surface as a decode error at the request layer. *)
  match decode {|{"op":"ping","id":"p","id":"q"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request with duplicate id accepted"

let test_request_range () =
  let line range =
    Printf.sprintf
      {|{"op":"solve","id":"r","trials":150,"seed":5%s,"instance":"%s"}|}
      range
      (String.concat "\\n" (String.split_on_char '\n' instance_text))
  in
  (match decode (line {|,"range":[63,126]|}) with
  | Ok { op = Request.Solve { range = Some (63, 126); _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "range not decoded"
  | Error (msg, _) -> Alcotest.fail msg);
  (* A range may end at [trials] off a word boundary: the estimate's
     last, partial word. *)
  (match decode (line {|,"range":[126,150]|}) with
  | Ok { op = Request.Solve { range = Some (126, 150); _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "tail range not decoded"
  | Error (msg, _) -> Alcotest.fail msg);
  (* Out-of-range, unaligned or malformed ranges are rejected with the
     id kept. *)
  List.iter
    (fun r ->
      match decode (line r) with
      | Error (_, Some "r") -> ()
      | _ -> Alcotest.fail ("hostile range accepted: " ^ r))
    [
      {|,"range":[126,63]|};
      {|,"range":[63,63]|};
      {|,"range":[-63,63]|};
      {|,"range":[0,151]|};
      {|,"range":[8,63]|};
      {|,"range":[0,100]|};
      {|,"range":[1,150]|};
      {|,"range":[0]|};
      {|,"range":"x"|};
    ];
  (* A partial answer must never alias the full one in the result
     cache, and distinct ranges must not alias each other. *)
  let key r =
    match decode (line r) with
    | Ok req -> Request.cache_key req
    | Error (msg, _) -> Alcotest.fail msg
  in
  let full = key "" and a = key {|,"range":[0,63]|} and b = key {|,"range":[63,126]|} in
  Alcotest.(check bool) "ranged is cacheable" true (a <> None);
  Alcotest.(check bool) "range changes the key" true (full <> a);
  Alcotest.(check bool) "distinct ranges, distinct keys" true (a <> b);
  Alcotest.(check (option string)) "same range, same key" a (key {|,"range":[0,63]|});
  (* sub_line re-encodes a Monte-Carlo request as its range sub-job:
     same semantics, just a narrower trial window. *)
  match decode (line "") with
  | Error (msg, _) -> Alcotest.fail msg
  | Ok req -> (
      let sub = Request.sub_line req ~lo:63 ~hi:126 in
      match decode sub with
      | Ok { id; op = Request.Solve { range; trials; seed; _ }; _ } ->
          Alcotest.(check (option string)) "sub keeps id" (Some "r") id;
          Alcotest.(check bool) "sub range" true (range = Some (63, 126));
          Alcotest.(check int) "sub trials" 150 trials;
          Alcotest.(check int) "sub seed" 5 seed;
          Alcotest.(check (option string)) "sub key = ranged key" b
            (Request.cache_key
               (Result.get_ok (decode sub)))
      | Ok _ -> Alcotest.fail "sub_line decoded to a different op"
      | Error (msg, _) -> Alcotest.fail ("sub_line does not re-decode: " ^ msg))

(* Every wire algorithm name must survive the coordinator round-trip:
   decode -> sub_line -> decode yields the canonical algorithm ("auto"
   resolves to "adaptive" exactly once; named algorithms are fixed
   points), and a second round-trip changes nothing. *)
let test_request_algo_roundtrip () =
  let line a =
    Printf.sprintf
      {|{"op":"solve","id":"r","algo":"%s","trials":40,"seed":5,"instance":"%s"}|}
      a
      (String.concat "\\n" (String.split_on_char '\n' instance_text))
  in
  List.iter
    (fun (wire, canonical) ->
      match decode (line wire) with
      | Error (msg, _) -> Alcotest.fail (wire ^ ": " ^ msg)
      | Ok req -> (
          Alcotest.(check string)
            (wire ^ " decodes") wire
            (match req.Request.op with
            | Request.Solve { algo; _ } -> Request.algo_name algo
            | _ -> "wrong-op");
          let sub = Request.sub_line req ~lo:0 ~hi:40 in
          match decode sub with
          | Error (msg, _) -> Alcotest.fail (wire ^ " sub_line: " ^ msg)
          | Ok sub_req -> (
              match sub_req.Request.op with
              | Request.Solve { algo; _ } ->
                  Alcotest.(check string)
                    (wire ^ " canonicalizes once") canonical
                    (Request.algo_name algo);
                  (* Idempotent: a sub-job of a sub-job keeps the name. *)
                  let sub2 = Request.sub_line sub_req ~lo:0 ~hi:40 in
                  Alcotest.(check string)
                    (wire ^ " canonical form is a fixed point") sub sub2
              | _ -> Alcotest.fail (wire ^ " sub_line changed the op"))))
    [
      ("auto", "adaptive");
      ("adaptive", "adaptive");
      ("oblivious", "oblivious");
      ("improved", "improved");
      ("fixed", "fixed");
    ]

(* The dynamic-environment request fields: "releases" (per-job release
   steps) and "churn" (a seeded timeline spec). Both must decode with
   full hostile-input validation, fold into the cache key, and survive
   the coordinator's sub_line re-encoding canonically. *)
let test_request_dyn_fields () =
  let line extra =
    Printf.sprintf
      {|{"op":"solve","id":"d","trials":40,"seed":5%s,"instance":"%s"}|} extra
      (String.concat "\\n" (String.split_on_char '\n' instance_text))
  in
  (match decode (line {|,"releases":[0,3]|}) with
  | Ok { op = Request.Solve { releases = Some r; _ }; _ } ->
      Alcotest.(check (array int)) "releases decoded" [| 0; 3 |] r
  | Ok _ -> Alcotest.fail "releases not decoded"
  | Error (msg, _) -> Alcotest.fail msg);
  (match decode (line {|,"churn":"seed=3,rate=0.2"|}) with
  | Ok { op = Request.Solve { churn = Some p; _ }; _ } ->
      Alcotest.(check int) "churn seed" 3 p.Suu_dyn.Churn.seed;
      Alcotest.(check (float 0.)) "churn rate" 0.2 p.Suu_dyn.Churn.rate;
      Alcotest.(check int) "churn repair defaulted"
        Suu_dyn.Churn.default_params.Suu_dyn.Churn.repair p.Suu_dyn.Churn.repair
  | Ok _ -> Alcotest.fail "churn not decoded"
  | Error (msg, _) -> Alcotest.fail msg);
  (* Hostile vectors are rejected at the boundary with the id kept:
     wrong length, negative step, wrong element type, bad spec. *)
  List.iter
    (fun extra ->
      match decode (line extra) with
      | Error (_, Some "d") -> ()
      | Error (_, _) -> Alcotest.fail ("dropped the id: " ^ extra)
      | Ok _ -> Alcotest.fail ("hostile dyn field accepted: " ^ extra))
    [
      {|,"releases":[0]|};
      {|,"releases":[0,1,2]|};
      {|,"releases":[0,-1]|};
      {|,"releases":[0,"x"]|};
      {|,"releases":"x"|};
      {|,"churn":"rate=2"|};
      {|,"churn":"mtbf=1"|};
      {|,"churn":"rate=0.1,rate=0.2"|};
      {|,"churn":7|};
    ];
  (* A duplicated field dies at the JSON layer (before the id is even
     extracted), like any other duplicate key. *)
  (match decode (line {|,"releases":[0,3],"releases":[1,3]|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate releases key accepted");
  (* Cache keys: a dynamic-environment answer must never alias the
     static one, and distinct environments must not alias each other. *)
  let key extra =
    match decode (line extra) with
    | Ok req -> Request.cache_key req
    | Error (msg, _) -> Alcotest.fail msg
  in
  let base = key "" in
  let rel = key {|,"releases":[0,3]|} in
  let chu = key {|,"churn":"seed=3,rate=0.2"|} in
  let both = key {|,"releases":[0,3],"churn":"seed=3,rate=0.2"|} in
  Alcotest.(check bool) "released is cacheable" true (rel <> None);
  Alcotest.(check bool) "releases change the key" true (base <> rel);
  Alcotest.(check bool) "churn changes the key" true (base <> chu);
  Alcotest.(check bool) "released vs churned distinct" true (rel <> chu);
  Alcotest.(check bool) "combined distinct from either" true
    (both <> rel && both <> chu);
  Alcotest.(check (option string)) "same vector, same key" rel
    (key {|,"releases":[0,3]|});
  Alcotest.(check bool) "different vector, different key" true
    (rel <> key {|,"releases":[1,3]|});
  (* The spec is canonicalized before keying: field order is
     irrelevant, so equivalent environments share a cache entry. *)
  Alcotest.(check (option string)) "spec order canonicalizes" chu
    (key {|,"churn":"rate=0.2,seed=3"|});
  (* sub_line carries both fields, canonically re-encoded. *)
  match decode (line {|,"releases":[0,3],"churn":"rate=0.2,seed=3"|}) with
  | Error (msg, _) -> Alcotest.fail msg
  | Ok req -> (
      let sub = Request.sub_line req ~lo:0 ~hi:40 in
      match decode sub with
      | Ok
          {
            op = Request.Solve { releases = Some r; churn = Some p; range; _ };
            _;
          } ->
          Alcotest.(check (array int)) "sub keeps releases" [| 0; 3 |] r;
          Alcotest.(check string) "sub re-encodes the spec canonically"
            "seed=3,rate=0.2,repair=8,perm=0,steps=256"
            (Suu_dyn.Churn.spec_of_params p);
          Alcotest.(check bool) "sub range" true (range = Some (0, 40));
          Alcotest.(check string) "canonical form is a fixed point" sub
            (Request.sub_line (Result.get_ok (decode sub)) ~lo:0 ~hi:40)
      | Ok _ -> Alcotest.fail "sub_line dropped the dyn fields"
      | Error (msg, _) -> Alcotest.fail ("sub_line does not re-decode: " ^ msg))

let test_request_ci_target () =
  let line extra =
    Printf.sprintf
      {|{"op":"solve","id":"c","trials":40,"seed":5%s,"instance":"%s"}|} extra
      (String.concat "\\n" (String.split_on_char '\n' instance_text))
  in
  (match decode (line {|,"ci_target":0.25|}) with
  | Ok { op = Request.Solve { ci_target = Some w; _ }; _ } ->
      Alcotest.(check (float 0.)) "target decoded" 0.25 w
  | Ok _ -> Alcotest.fail "ci_target not decoded"
  | Error (msg, _) -> Alcotest.fail msg);
  (* Absent field: the server default applies; without one, stopping is
     off. *)
  (match
     Request.of_line ~default_trials:40 ~default_seed:5
       ~default_ci_target:0.5 (line "")
   with
  | Ok { op = Request.Solve { ci_target = Some w; _ }; _ } ->
      Alcotest.(check (float 0.)) "server default applies" 0.5 w
  | _ -> Alcotest.fail "default ci_target not applied");
  (match decode (line "") with
  | Ok { op = Request.Solve { ci_target = None; _ }; _ } -> ()
  | _ -> Alcotest.fail "stopping should default to off");
  (* Hostile targets are rejected with the id kept. *)
  List.iter
    (fun extra ->
      match decode (line extra) with
      | Error (_, Some "c") -> ()
      | _ -> Alcotest.fail ("hostile ci_target accepted: " ^ extra))
    [ {|,"ci_target":0|}; {|,"ci_target":-0.5|}; {|,"ci_target":"x"|} ];
  (* An early-stopped answer must never alias an exhaustive one, and the
     target survives sub-job re-encoding so shards stop by the same
     rule. *)
  let key extra =
    match decode (line extra) with
    | Ok req -> Request.cache_key req
    | Error (msg, _) -> Alcotest.fail msg
  in
  Alcotest.(check bool) "target changes the key" true
    (key "" <> key {|,"ci_target":0.25|});
  Alcotest.(check bool) "distinct targets, distinct keys" true
    (key {|,"ci_target":0.25|} <> key {|,"ci_target":0.5|});
  match decode (line {|,"ci_target":0.25|}) with
  | Error (msg, _) -> Alcotest.fail msg
  | Ok req -> (
      match decode (Request.sub_line req ~lo:0 ~hi:40) with
      | Ok { op = Request.Solve { ci_target = Some w; range; _ }; _ } ->
          Alcotest.(check (float 0.)) "sub keeps target" 0.25 w;
          Alcotest.(check bool) "sub range" true (range = Some (0, 40))
      | _ -> Alcotest.fail "sub_line dropped the ci_target")

let test_cache_key_semantics () =
  let line trials seed text =
    Printf.sprintf {|{"op":"solve","trials":%d,"seed":%d,"instance":"%s"}|}
      trials seed
      (String.concat "\\n" (String.split_on_char '\n' text))
  in
  let key l =
    match decode l with
    | Ok req -> Request.cache_key req
    | Error (msg, _) -> Alcotest.fail msg
  in
  let k = key (line 50 1 instance_text) in
  Alcotest.(check bool) "cacheable" true (k <> None);
  (* [cacheable] is the digest-free answer to "does it have a key?" *)
  List.iter
    (fun l ->
      match decode l with
      | Ok req ->
          Alcotest.(check bool) ("cacheable iff keyed: " ^ l)
            (Request.cache_key req <> None) (Request.cacheable req)
      | Error (msg, _) -> Alcotest.fail msg)
    [
      line 50 1 instance_text;
      Printf.sprintf {|{"op":"exact","instance":"%s"}|}
        (String.concat "\\n" (String.split_on_char '\n' instance_text));
      Printf.sprintf {|{"op":"info","instance":"%s"}|}
        (String.concat "\\n" (String.split_on_char '\n' instance_text));
      {|{"op":"ping"}|};
      {|{"op":"stats"}|};
    ];
  Alcotest.(check (option string)) "same request, same key" k
    (key (line 50 1 instance_text));
  Alcotest.(check bool) "trials change the key" true
    (k <> key (line 51 1 instance_text));
  Alcotest.(check bool) "seed changes the key" true
    (k <> key (line 50 2 instance_text));
  Alcotest.(check bool) "instance changes the key" true
    (k <> key (line 50 1 chain_text));
  (* "auto" executes as "adaptive", so the two must share a cache entry;
     "oblivious" is a different computation and must not. *)
  let algo_line a =
    Printf.sprintf {|{"op":"solve","algo":"%s","trials":50,"seed":1,"instance":"%s"}|}
      a
      (String.concat "\\n" (String.split_on_char '\n' instance_text))
  in
  Alcotest.(check (option string)) "auto aliases adaptive"
    (key (algo_line "adaptive"))
    (key (algo_line "auto"));
  Alcotest.(check bool) "oblivious is distinct" true
    (key (algo_line "oblivious") <> key (algo_line "auto"));
  (* The improved family is a different computation again: same
     instance, same trials, same seed must still never alias any other
     algorithm's entry. *)
  Alcotest.(check bool) "improved vs adaptive distinct" true
    (key (algo_line "improved") <> key (algo_line "adaptive"));
  Alcotest.(check bool) "improved vs oblivious distinct" true
    (key (algo_line "improved") <> key (algo_line "oblivious"));
  Alcotest.(check bool) "improved vs auto distinct" true
    (key (algo_line "improved") <> key (algo_line "auto"));
  (* The index-policy family is a distinct computation too. *)
  Alcotest.(check bool) "fixed vs adaptive distinct" true
    (key (algo_line "fixed") <> key (algo_line "adaptive"));
  Alcotest.(check bool) "fixed vs improved distinct" true
    (key (algo_line "fixed") <> key (algo_line "improved"));
  match decode {|{"op":"stats"}|} with
  | Ok req ->
      Alcotest.(check (option string)) "stats uncacheable" None
        (Request.cache_key req)
  | Error (msg, _) -> Alcotest.fail msg

(* --- end-to-end service --- *)

let escaped text = String.concat "\\n" (String.split_on_char '\n' text)

let config ~workers =
  {
    Service.default_config with
    Service.workers;
    queue_capacity = 64;
    cache_capacity = 16;
    default_trials = 40;
    default_seed = 5;
    default_deadline_ms = None;
    (* Chaos is opt-in per test; keep the base config injection-free and
       the backoff cheap enough for retry tests. *)
    max_restarts = 8;
    retries = 2;
    retry_backoff_ms = 0.1;
    fault = Fault.none;
  }

let status line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "status" v) Json.to_str
  | Error _ -> None

let field name line =
  match Json.of_string line with
  | Ok v -> Json.member name v
  | Error _ -> None

let test_service_lifecycle () =
  let solve id =
    Printf.sprintf
      {|{"op":"solve","id":"%s","trials":40,"seed":5,"instance":"%s"}|} id
      (escaped instance_text)
  in
  let lines =
    [
      solve "a";
      solve "b";
      "garbage";
      Printf.sprintf
        {|{"op":"solve","id":"t","deadline_ms":0,"instance":"%s"}|}
        (escaped instance_text);
      {|{"op":"stats","id":"z"}|};
    ]
  in
  let out, report = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check int) "one response per request" 5 (List.length out);
  let nth k = List.nth out k in
  Alcotest.(check (option string)) "a ok" (Some "ok") (status (nth 0));
  Alcotest.(check (option string)) "b ok" (Some "ok") (status (nth 1));
  Alcotest.(check (option string)) "garbage -> error" (Some "error")
    (status (nth 2));
  Alcotest.(check (option string)) "deadline -> timeout" (Some "timeout")
    (status (nth 3));
  Alcotest.(check (option string)) "stats ok" (Some "ok") (status (nth 4));
  (* The repeat is a cache hit with identical result fields. *)
  Alcotest.(check (option bool)) "a computed" (Some false)
    (Option.bind (field "cached" (nth 0)) Json.to_bool);
  Alcotest.(check (option bool)) "b cached" (Some true)
    (Option.bind (field "cached" (nth 1)) Json.to_bool);
  Alcotest.(check bool) "identical means" true
    (field "mean" (nth 0) = field "mean" (nth 1));
  (* Metrics agree with what we just observed. *)
  Alcotest.(check int) "requests" 4 report.Service.metrics.Suu_service.Metrics.requests;
  Alcotest.(check int) "ok" 2 report.Service.metrics.Suu_service.Metrics.ok;
  Alcotest.(check int) "errors" 1 report.Service.metrics.Suu_service.Metrics.errors;
  Alcotest.(check int) "timeouts" 1
    report.Service.metrics.Suu_service.Metrics.timeouts;
  Alcotest.(check int) "cache hits" 1 report.Service.cache_hits;
  Alcotest.(check int) "cache misses" 1 report.Service.cache_misses;
  (* And the stats response reports the state before itself. *)
  Alcotest.(check (option int)) "stats sees 4 requests" (Some 4)
    (Option.bind (field "requests" (nth 4)) Json.to_int)

let test_service_order_and_determinism_across_workers () =
  (* Distinct requests (no cache interaction): the response stream must be
     byte-identical no matter how many workers race on it. *)
  let lines =
    List.init 6 (fun k ->
        Printf.sprintf
          {|{"op":"solve","id":"r%d","trials":30,"seed":%d,"instance":"%s"}|}
          k (k + 1) (escaped instance_text))
    @ [ Printf.sprintf {|{"op":"info","id":"i","instance":"%s"}|}
          (escaped chain_text) ]
  in
  let out1, _ = Service.run_lines (config ~workers:1) lines in
  let out3, _ = Service.run_lines (config ~workers:3) lines in
  Alcotest.(check (list string)) "same responses in same order" out1 out3

let test_service_estimate_domains_bit_identical () =
  (* [estimate_domains > 1] fans each estimate over nested domains; the
     engine's per-trial RNG derivation keeps the response stream
     byte-identical to the inline path, so the knob is pure speed. *)
  let lines =
    List.init 4 (fun k ->
        Printf.sprintf
          {|{"op":"solve","id":"r%d","trials":30,"seed":%d,"instance":"%s"}|}
          k (k + 1) (escaped instance_text))
  in
  let inline, _ = Service.run_lines (config ~workers:1) lines in
  let fanned, _ =
    Service.run_lines
      { (config ~workers:2) with Service.estimate_domains = 3 }
      lines
  in
  Alcotest.(check (list string)) "same responses" inline fanned

let test_service_ci_target_stops_early () =
  (* A request with a ci_target may answer with fewer trials than asked;
     the response reports the executed count (a multiple of the kernel's
     word width) and honours the target. A ranged sub-job under the same
     target reports its executed count too. *)
  let solve extra =
    Printf.sprintf
      {|{"op":"solve","id":"c","trials":20000,"seed":5%s,"instance":"%s"}|}
      extra (escaped instance_text)
  in
  let out, _ =
    Service.run_lines (config ~workers:1)
      [
        solve {|,"ci_target":0.3|};
        solve {|,"ci_target":0.3,"range":[0,20000]|};
      ]
  in
  let whole = List.nth out 0 and part = List.nth out 1 in
  Alcotest.(check (option string)) "ok" (Some "ok") (status whole);
  let trials line =
    Option.bind (field "trials" line) Json.to_int
    |> Option.value ~default:(-1)
  in
  Alcotest.(check bool) "stopped early" true
    (trials whole > 0 && trials whole < 20_000);
  Alcotest.(check int) "at a word boundary" 0
    (trials whole mod Suu_sim.Lanes.lanes_per_word);
  let ci95 =
    Option.bind (field "ci95" whole) Json.to_num
    |> Option.value ~default:Float.nan
  in
  Alcotest.(check bool) "target honoured" true (ci95 <= 0.3);
  (* The ranged sub-job stops at the same boundary (range lo = 0), and
     its samples array matches its executed count. *)
  Alcotest.(check int) "sub-job stops identically" (trials whole)
    (trials part);
  match field "samples" part with
  | Some (Json.List xs) ->
      Alcotest.(check bool) "samples bounded by executed trials" true
        (List.length xs <= trials part)
  | _ -> Alcotest.fail "partial response without samples"

let test_service_estimate_and_exact () =
  let inst = Suu_harness.Io.of_string instance_text in
  let plan =
    Suu_core.Oblivious.create ~m:2 ~cycle:[| [| 0; 1 |] |] [| [| 0; 1 |] |]
  in
  let plan_text = Suu_harness.Io.schedule_to_string plan in
  let lines =
    [
      Printf.sprintf
        {|{"op":"estimate","id":"e","trials":40,"seed":3,"plan":"%s","instance":"%s"}|}
        (escaped plan_text) (escaped instance_text);
      Printf.sprintf {|{"op":"exact","id":"x","instance":"%s"}|}
        (escaped instance_text);
    ]
  in
  let out, _ = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check (option string)) "estimate ok" (Some "ok")
    (status (List.nth out 0));
  let topt =
    Option.bind (field "topt" (List.nth out 1)) Json.to_num
    |> Option.value ~default:Float.nan
  in
  let exact = (Suu_algo.Malewicz.optimal inst).Suu_algo.Malewicz.value in
  Alcotest.(check (float 1e-9)) "exact matches the DP" exact topt

let test_service_ping_and_range_subjobs () =
  (* Trial-range sub-jobs answer raw partial material whose concatenation
     is bit-identical to the engine's unsplit seeded run — the worker
     half of the range protocol's client-side fan-out contract. *)
  let solve range =
    Printf.sprintf
      {|{"op":"solve","id":"s","trials":100,"seed":5%s,"instance":"%s"}|}
      range (escaped instance_text)
  in
  let lines =
    [
      {|{"op":"ping","id":"p"}|};
      solve {|,"range":[0,63]|};
      solve {|,"range":[63,100]|};
      solve "";
    ]
  in
  let out, _ = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check (option bool)) "pong" (Some true)
    (Option.bind (field "pong" (List.nth out 0)) Json.to_bool);
  let samples k =
    match field "samples" (List.nth out k) with
    | Some (Json.List xs) -> List.filter_map Json.to_num xs
    | _ -> Alcotest.failf "response %d carries no samples" k
  in
  let partial_bits =
    List.map Int64.bits_of_float (samples 1 @ samples 2)
  in
  Alcotest.(check (option bool)) "partial marked" (Some true)
    (Option.bind (field "partial" (List.nth out 1)) Json.to_bool);
  Alcotest.(check (option int)) "lo echoed" (Some 63)
    (Option.bind (field "lo" (List.nth out 2)) Json.to_int);
  let inst = Suu_harness.Io.of_string instance_text in
  let policy = Suu_algo.Suu_i.policy inst in
  let full =
    Suu_sim.Engine.estimate_makespan_seeded ~trials:100 ~seed:5 inst policy
  in
  let full_bits =
    Array.to_list (Array.map Int64.bits_of_float full.Suu_sim.Engine.samples)
  in
  Alcotest.(check (list int64))
    "concatenated partial samples = unsplit run" full_bits partial_bits;
  (* The whole request's summary agrees with the engine run too (compared
     at wire precision: the service prints non-integral floats as %.12g). *)
  Alcotest.(check (option string)) "mean matches"
    (Some
       (Printf.sprintf "%.12g" full.Suu_sim.Engine.stats.Suu_prob.Stats.mean))
    (Option.map
       (Printf.sprintf "%.12g")
       (Option.bind (field "mean" (List.nth out 3)) Json.to_num))

let test_service_zero_capacity_cache () =
  (* A zero-capacity cache never computes a key, yet answers exactly as
     a cache that happens to miss: "cached":false on every cacheable
     answer, a counted miss per lookup, no field on uncacheable ops. *)
  let solve =
    Printf.sprintf {|{"op":"solve","id":"s","trials":70,"seed":4,"instance":"%s"}|}
      (escaped instance_text)
  in
  let info =
    Printf.sprintf {|{"op":"info","id":"i","instance":"%s"}|}
      (escaped instance_text)
  in
  let run capacity =
    Service.run_lines
      { (config ~workers:1) with Service.cache_capacity = capacity }
      [ solve; info; solve ]
  in
  let off, r_off = run 0 and on, _ = run 16 in
  Alcotest.(check (list string)) "first answers identical"
    [ List.nth on 0; List.nth on 1 ]
    [ List.nth off 0; List.nth off 1 ];
  Alcotest.(check string) "repeat recomputed identically" (List.nth off 0)
    (List.nth off 2);
  Alcotest.(check int) "misses counted" 2 r_off.Service.cache_misses;
  Alcotest.(check int) "no hits" 0 r_off.Service.cache_hits

let test_service_plan_mismatch_rejected () =
  let plan = Suu_core.Oblivious.finite ~m:3 [| [| 0; 1; 0 |] |] in
  let lines =
    [
      Printf.sprintf
        {|{"op":"estimate","id":"e","plan":"%s","instance":"%s"}|}
        (escaped (Suu_harness.Io.schedule_to_string plan))
        (escaped instance_text);
    ]
  in
  let out, _ = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check (option string)) "machine mismatch -> error" (Some "error")
    (status (List.nth out 0))

(* A p_ij below the simplex pivot tolerance is still a valid
   probability: the oblivious column's LP fails numerically, and the
   answer is a structured [lp:] error that keeps the id, for (LP2) on
   independent jobs and (LP1) on a chain. *)
let test_service_lp_failure () =
  let lines =
    [
      {|{"op":"solve","id":"a","algo":"oblivious","trials":5,"seed":1,"instance":"suu 1\nn 1 m 1\nedges 0\nprobs\n1e-12"}|};
      {|{"op":"solve","id":"b","algo":"oblivious","trials":5,"seed":1,"instance":"suu 1\nn 2 m 1\nedges 1\n0 1\nprobs\n1e-12 1e-12"}|};
    ]
  in
  let out, _ = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check (list string))
    "structured lp errors"
    [
      {|{"id":"a","status":"error","error":"lp: (LP2) is numerically infeasible at the simplex pivot tolerance"}|};
      {|{"id":"b","status":"error","error":"lp: (LP1) is numerically infeasible at the simplex pivot tolerance"}|};
    ]
    out

(* A valid instance whose guess-doubling schedule would outgrow memory:
   with p = 1e-12 the improved family's phase ladder would need a
   2.5e11-step guess. The build stops before allocating it and answers a
   structured error that keeps the id, twice (nothing is cached), while
   the same instance's adaptive solve still answers. *)
let test_service_build_budget () =
  let faint = "suu 1\nn 1 m 1\nedges 0\nprobs\n1e-12" in
  let line id algo =
    Printf.sprintf
      {|{"op":"solve","id":"%s","algo":"%s","trials":5,"seed":1,"instance":"%s"}|}
      id algo faint
  in
  let out, report =
    Service.run_lines (config ~workers:1)
      [ line "i1" "improved"; line "i2" "improved"; line "a" "adaptive" ]
  in
  let too_long id =
    Printf.sprintf
      {|{"id":"%s","status":"error","error":"too expensive: a 2097152-step guess at m=1 exceeds the 4194304-word schedule budget (p_min 1e-12)"}|}
      id
  in
  Alcotest.(check (list string)) "structured errors"
    [ too_long "i1"; too_long "i2" ]
    [ List.nth out 0; List.nth out 1 ];
  Alcotest.(check (option string)) "adaptive still answers" (Some "ok")
    (status (List.nth out 2));
  Alcotest.(check int) "no worker crashed" 0
    report.Service.metrics.Suu_service.Metrics.worker_crashes

(* --- the built-policy cache --- *)

(* One [oblivious] solve line for [inst]; [id] and [seed] vary. *)
let oblivious_line ?(trials = 200) id ~seed inst =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.Str "solve");
         ("id", Json.Str id);
         ("algo", Json.Str "oblivious");
         ("trials", Json.int trials);
         ("seed", Json.int seed);
         ("instance", Json.Str (Suu_harness.Io.to_string inst));
       ])

(* The four LP-backed families at n=64, m=16, as [suu gen -w W -n 64
   -m 16 --seed 1] generates them. *)
let lp_families () =
  let module W = Suu_workloads.Workload in
  List.map
    (fun (name, gen) -> (name, (gen (Suu_prob.Rng.create 1) ~n:64 ~m:16).W.instance))
    [
      ("grid-batch", W.grid_batch);
      ("grid-workflow", W.grid_workflow ~stages:4);
      ("grid-divide", W.grid_divide);
      ("project", W.project);
    ]

let policy_counts (r : Service.report) =
  (r.Service.policy_cache_hits, r.Service.policy_cache_misses)

let counts_t = Alcotest.(pair int int)

(* A resubmitted instance with a new seed misses the result cache and
   hits the policy cache; its answer is byte-identical to a fresh
   service's, which has to build. *)
let test_policy_cache_hit_bytes () =
  List.iter
    (fun (name, inst) ->
      let warm, r_warm =
        Service.run_lines (config ~workers:1)
          [ oblivious_line "a" ~seed:3 inst; oblivious_line "b" ~seed:4 inst ]
      in
      let cold, r_cold =
        Service.run_lines (config ~workers:1) [ oblivious_line "b" ~seed:4 inst ]
      in
      Alcotest.(check (option string)) (name ^ ": ok") (Some "ok")
        (status (List.nth warm 1));
      Alcotest.(check string) (name ^ ": hit = fresh miss") (List.hd cold)
        (List.nth warm 1);
      Alcotest.check counts_t (name ^ ": warm counts") (1, 1) (policy_counts r_warm);
      Alcotest.check counts_t (name ^ ": cold counts") (0, 1) (policy_counts r_cold))
    (lp_families ())

(* Four workers racing on one instance (each may miss and build) answer
   the same bytes as one worker. *)
let test_policy_cache_workers () =
  let inst = List.assoc "grid-workflow" (lp_families ()) in
  let lines =
    List.init 8 (fun k -> oblivious_line ~trials:40 (Printf.sprintf "w%d" k) ~seed:k inst)
  in
  let one, r_one = Service.run_lines (config ~workers:1) lines in
  let four, r_four = Service.run_lines (config ~workers:4) lines in
  Alcotest.(check (list string)) "4 workers = 1 worker" one four;
  Alcotest.check counts_t "1 worker: one build" (7, 1) (policy_counts r_one);
  let hits, misses = policy_counts r_four in
  Alcotest.(check int) "4 workers: every lookup counted" 8 (hits + misses);
  Alcotest.(check bool) "4 workers: at most one build each" true
    (misses >= 1 && misses <= 4)

(* A failed build is not cached: two errors, two misses. *)
let test_policy_cache_failure () =
  let line id =
    Printf.sprintf
      {|{"op":"solve","id":"%s","algo":"oblivious","trials":5,"seed":1,"instance":"suu 1\nn 1 m 1\nedges 0\nprobs\n1e-12"}|}
      id
  in
  let out, report = Service.run_lines (config ~workers:1) [ line "f1"; line "f2" ] in
  Alcotest.(check (list (option string))) "two errors"
    [ Some "error"; Some "error" ]
    (List.map status out);
  Alcotest.check counts_t "two misses" (0, 2) (policy_counts report);
  Alcotest.(check int) "nothing held" 0 report.Service.policy_cache_size

(* [cache_capacity = 0] turns off the result cache only. *)
let test_policy_cache_result_cache_off () =
  let inst = List.assoc "project" (lp_families ()) in
  let _, report =
    Service.run_lines
      { (config ~workers:1) with Service.cache_capacity = 0 }
      [ oblivious_line "a" ~seed:1 inst; oblivious_line "b" ~seed:1 inst ]
  in
  Alcotest.check counts_t "the repeat hits" (1, 1) (policy_counts report);
  Alcotest.(check int) "no result hit" 0 report.Service.cache_hits

(* 32 entries: the 33rd distinct instance evicts the least recently
   used one, the first. *)
let test_policy_cache_eviction () =
  let inst k =
    Suu_harness.Io.of_string
      (Printf.sprintf "suu 1\nn 2 m 2\nedges 0\nprobs\n0.5 0.%02d\n0.25 0.5" (k + 10))
  in
  let lines =
    List.init 33 (fun k -> oblivious_line ~trials:5 (Printf.sprintf "d%d" k) ~seed:1 (inst k))
    @ [
        oblivious_line ~trials:5 "last again" ~seed:2 (inst 32);
        oblivious_line ~trials:5 "first again" ~seed:2 (inst 0);
      ]
  in
  let out, report = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check bool) "all ok" true
    (List.for_all (fun l -> status l = Some "ok") out);
  Alcotest.check counts_t "first evicted, last kept" (1, 34) (policy_counts report);
  Alcotest.(check int) "capacity 32" 32 report.Service.policy_cache_size

let test_service_queue_full_rejects () =
  (* Capacity-1 queue, one worker held busy by the first request: with the
     reader racing far ahead, at least one of the many pending requests
     must be shed — and every request still gets exactly one response. *)
  let n = 16 in
  let lines =
    List.init n (fun k ->
        Printf.sprintf
          {|{"op":"solve","id":"r%d","trials":5000,"seed":%d,"instance":"%s"}|}
          k (k + 1) (escaped instance_text))
  in
  let cfg =
    { (config ~workers:1) with Service.queue_capacity = 1; cache_capacity = 0 }
  in
  let out, report = Service.run_lines cfg lines in
  Alcotest.(check int) "one response each" n (List.length out);
  Alcotest.(check int) "accounted" n
    report.Service.metrics.Suu_service.Metrics.requests;
  Alcotest.(check bool) "some shed" true
    (report.Service.metrics.Suu_service.Metrics.rejected > 0);
  let rejected_lines =
    List.filter (fun l -> status l = Some "error") out
  in
  Alcotest.(check int) "shed = error responses"
    report.Service.metrics.Suu_service.Metrics.rejected
    (List.length rejected_lines)

let test_service_survives_hostile_instance () =
  let lines =
    [
      {|{"op":"info","id":"evil","instance":"suu 1\nn 0 m -1\nedges 0\nprobs"}|};
      Printf.sprintf {|{"op":"info","id":"fine","instance":"%s"}|}
        (escaped instance_text);
    ]
  in
  let out, report = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check int) "both answered" 2 (List.length out);
  Alcotest.(check (option string)) "hostile -> error" (Some "error")
    (status (List.nth out 0));
  Alcotest.(check (option string)) "service still serving" (Some "ok")
    (status (List.nth out 1));
  Alcotest.(check int) "error counted" 1
    report.Service.metrics.Suu_service.Metrics.errors

let test_service_answers_are_json () =
  (* Every answer line must parse as JSON, including answers whose
     numbers are not finite: a probability of 1e-320 makes every bound
     of the one-job instance infinite. *)
  let faint = "suu 1\nn 1 m 1\nedges 0\nprobs\n1e-320" in
  let req fmt = Printf.sprintf fmt in
  let lines =
    [
      req {|{"op":"info","id":"i","instance":"%s"}|} (escaped instance_text);
      req {|{"op":"info","id":"inf","instance":"%s"}|} (escaped faint);
      req {|{"op":"solve","id":"s","trials":8,"seed":1,"instance":"%s"}|}
        (escaped faint);
      req {|{"op":"solve","id":"o","algo":"oblivious","trials":8,"seed":1,"instance":"%s"}|}
        (escaped chain_text);
      req {|{"op":"exact","id":"x","instance":"%s"}|} (escaped instance_text);
      req {|{"op":"exact","id":"xf","instance":"%s"}|} (escaped faint);
      {|{"op":"ping","id":"p"}|};
      "garbage";
      {|{"op":"stats","id":"z"}|};
      {|{"op":"stats","id":"zp","format":"prom"}|};
    ]
  in
  let out, _ = Service.run_lines (config ~workers:1) lines in
  Alcotest.(check int) "one answer per line" (List.length lines)
    (List.length out);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "answer is not JSON (%s): %s" msg line)
    out;
  Alcotest.(check (option string)) "infinite bounds are null"
    (Some {|{"rate":null,"capacity":null,"critical_path":null,"best":null}|})
    (Option.map Json.to_string (field "bounds" (List.nth out 1)))

let test_metrics_latency_bounded () =
  let m = Metrics.create () in
  let n = 3000 in
  for i = 1 to n do
    Metrics.record_ok m ~latency_ms:(float_of_int i)
  done;
  match (Metrics.snapshot m).Metrics.latency with
  | None -> Alcotest.fail "expected latency figures"
  | Some h ->
      let figure name = List.assoc name (Metrics.latency_summary h) in
      Alcotest.(check int) "counts every ok" n (Histogram.count h);
      Alcotest.(check (float 1e-9)) "running mean over all samples"
        (float_of_int (n + 1) /. 2.)
        (figure "mean");
      Alcotest.(check (float 1e-9)) "exact min" 1. (figure "min");
      Alcotest.(check (float 1e-9)) "exact max" (float_of_int n)
        (figure "max");
      (* Quantiles come from the log-bucket histogram: within its
         per-bucket relative error of the exact order statistic, ordered,
         and clamped into the observed range. *)
      let within name q v =
        let exact = Float.of_int n *. q in
        if Float.abs (v -. exact) > 0.16 *. exact then
          Alcotest.failf "%s = %.1f, exact %.1f: outside bucket error" name v
            exact
      in
      within "p50" 0.50 (figure "p50");
      within "p95" 0.95 (figure "p95");
      within "p99" 0.99 (figure "p99");
      Alcotest.(check bool) "quantiles ordered and clamped" true
        (figure "min" <= figure "p50"
        && figure "p50" <= figure "p95"
        && figure "p95" <= figure "p99"
        && figure "p99" <= figure "max")

(* --- ordered emitter --- *)

let recording_emitter () =
  let out = ref [] in
  (Emitter.create (fun line -> out := line :: !out), fun () -> List.rev !out)

let test_emitter_orders () =
  let em, sent = recording_emitter () in
  Emitter.emit em 2 "c";
  Emitter.emit em 1 "b";
  Alcotest.(check (list string)) "parked behind seq 0" [] (sent ());
  Emitter.emit em 0 "a";
  Alcotest.(check (list string)) "flushed in order" [ "a"; "b"; "c" ] (sent ());
  Emitter.emit em 3 "d";
  Alcotest.(check (list string)) "next in line goes at once"
    [ "a"; "b"; "c"; "d" ] (sent ())

let test_emitter_drops_stale () =
  let em, sent = recording_emitter () in
  Emitter.emit em 0 "a";
  Emitter.emit em 2 "c";
  (* A duplicate of an emitted seq (a worker that crashed after its
     answer left) is neither sent nor parked: once the caller lets go of
     it, nothing keeps its line alive. *)
  let held = Weak.create 1 in
  let emit_duplicate () =
    let line = String.make 8 'd' in
    Weak.set held 0 (Some line);
    Emitter.emit_lazy em 0 (fun () -> line)
  in
  emit_duplicate ();
  Gc.full_major ();
  Alcotest.(check bool) "duplicate not parked" false (Weak.check held 0);
  Alcotest.(check (list string)) "duplicate not sent" [ "a" ] (sent ());
  Emitter.emit em 1 "b";
  Alcotest.(check (list string)) "stream intact" [ "a"; "b"; "c" ] (sent ())

let test_emitter_renders_at_flush () =
  let em, sent = recording_emitter () in
  let count = ref 0 in
  Emitter.emit_lazy em 1 (fun () -> Printf.sprintf "count %d" !count);
  (* Work finished after the thunk parked is still seen by it: it runs
     when seq 1 is next in line, not when it was handed over. *)
  count := 5;
  Emitter.emit em 0 "a";
  Alcotest.(check (list string)) "rendered when flushed" [ "a"; "count 5" ]
    (sent ())

(* --- histogram wire codec --- *)

(* Sum 1007.875 and the layout print exactly in 12 significant digits,
   so the round trip is exact in every field. *)
let sample_hist () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.5; 1.25; 3.; 3.; 1000.; 0.125 ];
  h

let test_hist_codec_roundtrip () =
  let h = sample_hist () in
  match Json.of_string (Json.to_string (Metrics.hist_to_json h)) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Metrics.hist_of_json json with
      | None -> Alcotest.fail "round trip did not decode"
      | Some h' ->
          Alcotest.(check bool) "same export" true
            (Histogram.export h = Histogram.export h'))

let without_growth h =
  match Metrics.hist_to_json h with
  | Json.Obj fields -> Json.Obj (List.remove_assoc "growth" fields)
  | _ -> Alcotest.fail "histogram encodes as an object"

let test_hist_codec_missing_field () =
  Alcotest.(check bool) "no growth, no histogram" true
    (Metrics.hist_of_json (without_growth (sample_hist ())) = None)

let test_hist_codec_merge_skips () =
  let h = sample_hist () in
  let raw hist =
    Json.to_string
      (Json.Obj [ ("status", Json.Str "ok"); ("ok", Json.int 6); ("latency_hist", hist) ])
  in
  let t =
    Suu_shard.Merge.telemetry_of_responses
      [ raw (Metrics.hist_to_json h); raw (without_growth h) ]
  in
  Alcotest.(check int) "both shards report" 2 t.Suu_shard.Merge.shards_reporting;
  Alcotest.(check (list (pair string int))) "both counters count"
    [ ("ok", 12) ] t.Suu_shard.Merge.service;
  match t.Suu_shard.Merge.latency with
  | None -> Alcotest.fail "the well-formed histogram is kept"
  | Some merged ->
      Alcotest.(check int) "only the decodable shard's samples" 6
        (Histogram.count merged)

(* --- fault injection --- *)

let test_fault_determinism () =
  let spec = { Fault.none with Fault.seed = 9; crash = 0.3 } in
  (* Decisions are pure functions of (seed, site, key). *)
  for key = 0 to 199 do
    Alcotest.(check bool) "pure"
      (Fault.fires spec Fault.Crash ~key)
      (Fault.fires spec Fault.Crash ~key)
  done;
  (* Rate extremes. *)
  let never = { Fault.none with Fault.seed = 9 } in
  let always = { Fault.none with Fault.seed = 9; crash = 1.0 } in
  for key = 0 to 199 do
    Alcotest.(check bool) "rate 0 never fires" false
      (Fault.fires never Fault.Crash ~key);
    Alcotest.(check bool) "rate 1 always fires" true
      (Fault.fires always Fault.Crash ~key)
  done;
  (* The empirical rate tracks the configured one. *)
  let n = 10_000 in
  let hits = ref 0 in
  for key = 0 to n - 1 do
    if Fault.fires spec Fault.Crash ~key then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.3f near 0.3" rate)
    true
    (rate > 0.25 && rate < 0.35);
  (* Seeds and sites decorrelate the pattern. *)
  let differs pred =
    let rec scan key = key < 500 && (pred key || scan (key + 1)) in
    scan 0
  in
  Alcotest.(check bool) "seed changes the pattern" true
    (differs (fun key ->
         Fault.fires spec Fault.Crash ~key
         <> Fault.fires { spec with Fault.seed = 10 } Fault.Crash ~key));
  let both = { spec with Fault.transient = 0.3 } in
  Alcotest.(check bool) "sites draw independently" true
    (differs (fun key ->
         Fault.fires both Fault.Crash ~key
         <> Fault.fires both Fault.Transient ~key));
  (* Jitter factors land in [0,1) and depend on the key. *)
  for key = 0 to 99 do
    let j = Fault.jitter spec ~key in
    Alcotest.(check bool) "jitter in range" true (j >= 0. && j < 1.)
  done;
  Alcotest.(check bool) "jitter varies" true
    (differs (fun key -> Fault.jitter spec ~key <> Fault.jitter spec ~key:(key + 1)))

let test_fault_spec_parse () =
  (match Fault.of_string ~default_seed:4 "" with
  | Ok s ->
      Alcotest.(check bool) "empty spec is none" true (Fault.is_none s);
      Alcotest.(check int) "default seed" 4 s.Fault.seed
  | Error e -> Alcotest.fail e);
  (match
     Fault.of_string "crash=0.25, transient=1, stall=0.5, stall_ms=3, seed=11"
   with
  | Ok s ->
      Alcotest.(check int) "seed" 11 s.Fault.seed;
      Alcotest.(check (float 0.)) "crash" 0.25 s.Fault.crash;
      Alcotest.(check (float 0.)) "transient" 1. s.Fault.transient;
      Alcotest.(check (float 0.)) "stall" 0.5 s.Fault.stall;
      Alcotest.(check (float 0.)) "stall_ms" 3. s.Fault.stall_ms;
      Alcotest.(check bool) "not none" false (Fault.is_none s);
      (* to_string/of_string roundtrip. *)
      (match Fault.of_string (Fault.to_string s) with
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let rejects text =
    match Fault.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ text)
  in
  rejects "nope=1";
  rejects "crash";
  rejects "crash=2";
  rejects "crash=-0.1";
  rejects "crash=zero";
  rejects "stall_ms=-5";
  rejects "seed=1.5"

(* --- Work_queue under concurrency (producers x consumers, racing close) --- *)

let test_queue_concurrent_stress () =
  let stress ~close_after_ms =
    let q = Work_queue.create ~on_pop:Domain.cpu_relax ~capacity:8 () in
    let closing = Atomic.make false in
    let producers = 4 and consumers = 4 and per_producer = 300 in
    let prods =
      List.init producers (fun p ->
          Domain.spawn (fun () ->
              let pushed = ref [] in
              (try
                 for j = 0 to per_producer - 1 do
                   let x = (p * per_producer) + j in
                   let rec attempt () =
                     if Work_queue.push q x then pushed := x :: !pushed
                     else if Atomic.get closing then raise Exit
                     else begin
                       Domain.cpu_relax ();
                       attempt ()
                     end
                   in
                   attempt ()
                 done
               with Exit -> ());
              !pushed))
    in
    let cons =
      List.init consumers (fun _ ->
          Domain.spawn (fun () ->
              let rec loop acc =
                match Work_queue.pop q with
                | Some x -> loop (x :: acc)
                | None -> acc
              in
              loop []))
    in
    Unix.sleepf (close_after_ms /. 1000.);
    Atomic.set closing true;
    Work_queue.close q;
    let pushed = List.concat_map Domain.join prods in
    let consumed = List.concat_map Domain.join cons in
    (* Exactly the successfully-pushed items come out: nothing lost,
       nothing delivered twice, regardless of when close lands. *)
    Alcotest.(check int)
      (Printf.sprintf "close after %gms: counts match" close_after_ms)
      (List.length pushed) (List.length consumed);
    Alcotest.(check (list int))
      (Printf.sprintf "close after %gms: same multiset" close_after_ms)
      (List.sort compare pushed)
      (List.sort compare consumed)
  in
  List.iter (fun ms -> stress ~close_after_ms:ms) [ 0.; 1.; 5. ]

(* --- supervised worker pool --- *)

let solve_line k =
  Printf.sprintf {|{"op":"solve","id":"r%d","trials":30,"seed":%d,"instance":"%s"}|}
    k (k + 1) (escaped instance_text)

let response_id line =
  match field "id" line with Some (Json.Str s) -> Some s | _ -> None

let check_ordered out n =
  Alcotest.(check int) "one response per request" n (List.length out);
  List.iteri
    (fun k line ->
      Alcotest.(check (option string))
        (Printf.sprintf "response %d in request order" k)
        (Some (Printf.sprintf "r%d" k))
        (response_id line))
    out

let test_service_worker_crash_supervision () =
  (* Injected crashes kill real worker domains; the supervisor's job is
     to keep the stream whole. Faults are keyed by request sequence, so
     the failure set is predictable from the spec alone. *)
  let spec = { Fault.none with Fault.seed = 11; crash = 0.4 } in
  let n = 12 in
  let crashed k = Fault.fires spec Fault.Crash ~key:k in
  let predicted = List.length (List.filter crashed (List.init n Fun.id)) in
  Alcotest.(check bool) "spec exercises both outcomes" true
    (predicted > 0 && predicted < n);
  let cfg =
    {
      (config ~workers:2) with
      Service.cache_capacity = 0;
      max_restarts = 100;
      retries = 0;
      fault = spec;
    }
  in
  let out, report = Service.run_lines cfg (List.init n solve_line) in
  check_ordered out n;
  List.iteri
    (fun k line ->
      if crashed k then begin
        Alcotest.(check (option string))
          (Printf.sprintf "request %d answered as crash" k)
          (Some "error") (status line);
        Alcotest.(check (option string))
          (Printf.sprintf "request %d names the reason" k)
          (Some "worker_crash")
          (Option.bind (field "reason" line) Json.to_str)
      end
      else
        Alcotest.(check (option string))
          (Printf.sprintf "request %d unaffected" k)
          (Some "ok") (status line))
    out;
  let m = report.Service.metrics in
  Alcotest.(check int) "crashes counted" predicted
    m.Suu_service.Metrics.worker_crashes;
  Alcotest.(check int) "each crash replaced" predicted
    m.Suu_service.Metrics.restarts;
  Alcotest.(check int) "survivors ok" (n - predicted) m.Suu_service.Metrics.ok;
  Alcotest.(check int) "crashes are errors" predicted
    m.Suu_service.Metrics.errors

let test_service_restart_budget_and_drain () =
  (* Every request crashes its worker; with one worker and two allowed
     restarts the pool dies after three crashes, and the remaining
     admitted requests must still be answered (unavailable), in order. *)
  let n = 6 in
  let cfg =
    {
      (config ~workers:1) with
      Service.cache_capacity = 0;
      max_restarts = 2;
      retries = 0;
      fault = { Fault.none with Fault.seed = 3; crash = 1.0 };
    }
  in
  let out, report = Service.run_lines cfg (List.init n solve_line) in
  check_ordered out n;
  List.iteri
    (fun k line ->
      let want = if k < 3 then "worker_crash" else "unavailable" in
      Alcotest.(check (option string))
        (Printf.sprintf "request %d reason" k)
        (Some want)
        (Option.bind (field "reason" line) Json.to_str))
    out;
  let m = report.Service.metrics in
  Alcotest.(check int) "three crashes" 3 m.Suu_service.Metrics.worker_crashes;
  Alcotest.(check int) "budget spent" 2 m.Suu_service.Metrics.restarts;
  Alcotest.(check int) "all errors" n m.Suu_service.Metrics.errors;
  Alcotest.(check int) "none ok" 0 m.Suu_service.Metrics.ok

(* --- retry policy --- *)

let test_service_transient_retry () =
  (* At rate 0.5 with 2 retries, each request succeeds on its first
     non-firing attempt f (carrying "retries":f) or exhausts after 3.
     The placement is a pure function of the spec, so predict it. *)
  let spec = { Fault.none with Fault.seed = 21; transient = 0.5 } in
  let retries = 2 in
  let n = 12 in
  let first_success seq =
    let rec scan k =
      if k > retries then None
      else if
        Fault.fires spec Fault.Transient ~key:(Fault.attempt_key ~seq ~attempt:k)
      then scan (k + 1)
      else Some k
    in
    scan 0
  in
  Alcotest.(check bool) "spec exercises retries and exhaustion" true
    (List.exists (fun s -> first_success s = None) (List.init n Fun.id)
    && List.exists
         (fun s -> match first_success s with Some k -> k > 0 | None -> false)
         (List.init n Fun.id));
  let cfg =
    {
      (config ~workers:2) with
      Service.cache_capacity = 0;
      retries;
      fault = spec;
    }
  in
  let out, report = Service.run_lines cfg (List.init n solve_line) in
  check_ordered out n;
  let expected_retries = ref 0 in
  List.iteri
    (fun k line ->
      match first_success k with
      | Some f ->
          expected_retries := !expected_retries + f;
          Alcotest.(check (option string))
            (Printf.sprintf "request %d recovers" k)
            (Some "ok") (status line);
          Alcotest.(check (option int))
            (Printf.sprintf "request %d retry count" k)
            (if f > 0 then Some f else None)
            (Option.bind (field "retries" line) Json.to_int)
      | None ->
          expected_retries := !expected_retries + retries;
          Alcotest.(check (option string))
            (Printf.sprintf "request %d exhausted" k)
            (Some "error") (status line);
          Alcotest.(check (option string))
            (Printf.sprintf "request %d reason" k)
            (Some "transient")
            (Option.bind (field "reason" line) Json.to_str))
    out;
  Alcotest.(check int) "retries accounted" !expected_retries
    report.Service.metrics.Suu_service.Metrics.retries

let test_service_retry_exhaustion () =
  let n = 4 in
  let cfg =
    {
      (config ~workers:1) with
      Service.cache_capacity = 0;
      retries = 2;
      fault = { Fault.none with Fault.seed = 2; transient = 1.0 };
    }
  in
  let out, report = Service.run_lines cfg (List.init n solve_line) in
  check_ordered out n;
  List.iter
    (fun line ->
      Alcotest.(check (option string)) "exhausted" (Some "transient")
        (Option.bind (field "reason" line) Json.to_str);
      let msg =
        Option.bind (field "error" line) Json.to_str
        |> Option.value ~default:""
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the attempts: %s" msg)
        true
        (String.length msg >= 16
        && String.sub msg (String.length msg - 16) 16 = "after 3 attempts"))
    out;
  Alcotest.(check int) "2 retries per request" (2 * n)
    report.Service.metrics.Suu_service.Metrics.retries;
  Alcotest.(check int) "all errors" n
    report.Service.metrics.Suu_service.Metrics.errors

(* --- graceful degradation --- *)

let test_service_degraded_admission () =
  (* Watermark 0: every Monte-Carlo request is admitted degraded. The
     response must say so, and its result must equal a full-fidelity run
     at the capped trial count — degradation changes the budget, never
     the reproducibility contract. *)
  let cfg =
    {
      (config ~workers:1) with
      Service.cache_capacity = 0;
      degrade_watermark = Some 0;
      degrade_trials = 10;
    }
  in
  let out, report = Service.run_lines cfg [ solve_line 0 ] in
  let line = List.nth out 0 in
  Alcotest.(check (option string)) "still ok" (Some "ok") (status line);
  Alcotest.(check (option bool)) "marked degraded" (Some true)
    (Option.bind (field "degraded" line) Json.to_bool);
  Alcotest.(check (option int)) "trials capped" (Some 10)
    (Option.bind (field "trials" line) Json.to_int);
  Alcotest.(check int) "counted" 1
    report.Service.metrics.Suu_service.Metrics.degraded;
  (* Same answer as an undegraded request for 10 trials. *)
  let direct =
    Printf.sprintf
      {|{"op":"solve","id":"r0","trials":10,"seed":1,"instance":"%s"}|}
      (escaped instance_text)
  in
  let out', _ =
    Service.run_lines { (config ~workers:1) with Service.cache_capacity = 0 }
      [ direct ]
  in
  Alcotest.(check bool) "mean matches a direct 10-trial run" true
    (field "mean" line = field "mean" (List.nth out' 0));
  (* Info requests are never degraded. *)
  let out'', _ =
    Service.run_lines cfg
      [
        Printf.sprintf {|{"op":"info","id":"r0","instance":"%s"}|}
          (escaped instance_text);
      ]
  in
  Alcotest.(check (option bool)) "info undegraded" None
    (Option.bind (field "degraded" (List.nth out'' 0)) Json.to_bool)

let test_service_stall_timeout () =
  (* A stalled word 0 burns the request's deadline; the poll before
     word 1 must catch it and answer "timeout" rather than hang. *)
  let cfg =
    {
      (config ~workers:1) with
      Service.cache_capacity = 0;
      fault = { Fault.none with Fault.seed = 5; stall = 1.0; stall_ms = 30. };
    }
  in
  let line =
    Printf.sprintf
      {|{"op":"solve","id":"r0","trials":126,"seed":1,"deadline_ms":5,"instance":"%s"}|}
      (escaped instance_text)
  in
  let out, report = Service.run_lines cfg [ line ] in
  Alcotest.(check (option string)) "stalled past deadline" (Some "timeout")
    (status (List.nth out 0));
  Alcotest.(check int) "counted as timeout" 1
    report.Service.metrics.Suu_service.Metrics.timeouts

(* --- chaos: any seed, every guarantee --- *)

let test_service_chaos_any_seed () =
  (* The CI matrix sweeps SUU_FAULT_SEED; whatever the placement, the
     structural guarantees hold: every request answered exactly once, in
     order, with coherent accounting and no hangs. *)
  let spec =
    {
      Fault.none with
      Fault.seed = chaos_seed;
      crash = 0.15;
      transient = 0.2;
      stall = 0.05;
      stall_ms = 2.;
      slow = 0.02;
      slow_ms = 1.;
      queue_delay = 0.1;
      queue_ms = 1.;
    }
  in
  let n = 30 in
  let cfg =
    {
      (config ~workers:3) with
      Service.cache_capacity = 8;
      max_restarts = 100;
      retries = 1;
      fault = spec;
    }
  in
  let out, report = Service.run_lines cfg (List.init n solve_line) in
  check_ordered out n;
  let m = report.Service.metrics in
  Alcotest.(check int) "all accounted" n m.Suu_service.Metrics.requests;
  Alcotest.(check int) "outcomes partition the workload" n
    (m.Suu_service.Metrics.ok + m.Suu_service.Metrics.errors
    + m.Suu_service.Metrics.timeouts + m.Suu_service.Metrics.rejected);
  Alcotest.(check bool) "restarts within budget" true
    (m.Suu_service.Metrics.restarts <= 100);
  Alcotest.(check bool) "crashes imply error responses" true
    (m.Suu_service.Metrics.worker_crashes <= m.Suu_service.Metrics.errors);
  (* Each response is valid JSON with a recognised status. *)
  List.iter
    (fun line ->
      match status line with
      | Some ("ok" | "error" | "timeout") -> ()
      | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected status %s in %s"
               (Option.value ~default:"<none>" other)
               line))
    out

(* --- TCP listener (suu serve --listen) --- *)

module Tcp = Suu_service.Tcp

(* A listener on a kernel-picked port, served from its own domain. The
   domain returns the report of every connection that ran a service. *)
type listener = {
  addr : string;
  stop : bool Atomic.t;
  finished : bool Atomic.t;
  srv : Service.report list Domain.t;
}

let start_listener ?max_conns cfg =
  (* A torn socket must raise EPIPE at either end, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Tcp.listen "127.0.0.1:0" with
  | Error e -> failwith e
  | Ok (lsock, addr) ->
      let stop = Atomic.make false and finished = Atomic.make false in
      let srv =
        Domain.spawn (fun () ->
            let reports = ref [] in
            Tcp.serve_connections ?max_conns
              ~stopping:(fun () -> Atomic.get stop)
              ~on_report:(fun r -> reports := r :: !reports)
              cfg lsock;
            Atomic.set finished true;
            List.rev !reports)
      in
      { addr; stop; finished; srv }

let stop_listener l =
  Atomic.set l.stop true;
  Tcp.wake l.addr;
  Domain.join l.srv

(* Poll for up to 10 s. *)
let wait_until cond =
  let rec go k = cond () || (k > 0 && (Unix.sleepf 0.01; go (k - 1))) in
  go 1000

(* The client side is a plain socket with the same line framing. *)
let dial addr =
  match Tcp.parse_addr addr with
  | Error e -> failwith e
  | Ok (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (host, port));
      (fd, Tcp.conn_of_fd fd)

(* Pipelined: send every frame, half-close, then read answers until EOF
   or a reset. *)
let exchange addr frames =
  let fd, c = dial addr in
  (try
     List.iter (Tcp.send_line c) frames;
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> ());
  let rec read acc =
    match Tcp.recv_line c with
    | Some line -> read (line :: acc)
    | None | (exception Unix.Unix_error _) -> List.rev acc
  in
  let got = read [] in
  Tcp.close c;
  got

let listener_solves n =
  List.init n (fun k ->
      Printf.sprintf
        {|{"op":"solve","id":"r%d","trials":8,"seed":%d,"instance":"%s"}|} k
        (k + 1) (escaped instance_text))

let test_listener_round_trip () =
  (* A repeat (a cache hit), a malformed line and an info: every answer
     matches a stdio-style run byte for byte. Each connection is a fresh
     service, so a second one answers the same bytes, cache flags too. *)
  let lines =
    listener_solves 3
    @ [
        List.hd (listener_solves 1);
        "garbage";
        Printf.sprintf {|{"op":"info","id":"i","instance":"%s"}|}
          (escaped chain_text);
      ]
  in
  let want, _ = Service.run_lines (config ~workers:1) lines in
  let l = start_listener (config ~workers:1) in
  let first = exchange l.addr lines in
  let second = exchange l.addr lines in
  let reports = stop_listener l in
  Alcotest.(check (list string)) "first connection" want first;
  Alcotest.(check (list string)) "second connection" want second;
  Alcotest.(check int) "one report per connection" 2 (List.length reports)

let test_listener_max_conns () =
  let l = start_listener ~max_conns:1 (config ~workers:1) in
  let got = exchange l.addr (listener_solves 2) in
  let returned = wait_until (fun () -> Atomic.get l.finished) in
  let reports = stop_listener l in
  Alcotest.(check int) "both answered" 2 (List.length got);
  Alcotest.(check bool) "returned after one connection" true returned;
  Alcotest.(check int) "one report" 1 (List.length reports)

let test_listener_tear () =
  (* Lockstep, one request in flight: the connection dies at the first
     response whose key draws [Tear], and every answer before it arrives
     whole. *)
  let fault = { Fault.none with seed = 3; tear = 0.35 } in
  let n = 10 in
  let torn_at =
    List.find (fun k -> Fault.fires fault Fault.Tear ~key:k) (List.init n Fun.id)
  in
  Alcotest.(check bool) "the schedule tears mid-stream" true (torn_at > 0);
  let lines = listener_solves n in
  let want, _ = Service.run_lines (config ~workers:1) lines in
  let l = start_listener { (config ~workers:1) with Service.fault } in
  let _, c = dial l.addr in
  let rec ask acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        match
          Tcp.send_line c line;
          Tcp.recv_line c
        with
        | Some answer -> ask (answer :: acc) rest
        | None | (exception Unix.Unix_error _) -> List.rev acc)
  in
  let got = ask [] lines in
  Tcp.close c;
  ignore (stop_listener l);
  Alcotest.(check (list string)) "answers before the tear"
    (List.filteri (fun k _ -> k < torn_at) want)
    got

let test_listener_sock_stall () =
  (* Stalled writes arrive late but whole: the bytes match, and the wall
     clock covers every stall the schedule draws. *)
  let fault =
    { Fault.none with seed = 7; sock_stall = 0.5; sock_stall_ms = 20. }
  in
  let n = 6 in
  let stalls =
    List.length
      (List.filter
         (fun k -> Fault.fires fault Fault.Sock_stall ~key:k)
         (List.init n Fun.id))
  in
  Alcotest.(check bool) "the schedule stalls" true (stalls > 0);
  let lines = listener_solves n in
  let want, _ = Service.run_lines (config ~workers:1) lines in
  let l = start_listener { (config ~workers:1) with Service.fault } in
  let t0 = Unix.gettimeofday () in
  let got = exchange l.addr lines in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  ignore (stop_listener l);
  Alcotest.(check (list string)) "stalled answers" want got;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f ms covers %d stalls of 20 ms" elapsed_ms stalls)
    true
    (elapsed_ms >= float_of_int stalls *. 20.)

let test_listener_refuse () =
  (* Every connection is torn right after accept: no answer, no service
     run, and the refused connection still counts toward [max_conns]. *)
  let fault = { Fault.none with seed = 1; refuse = 1.0 } in
  let l = start_listener ~max_conns:1 { (config ~workers:1) with Service.fault } in
  let got = exchange l.addr (listener_solves 1) in
  let returned = wait_until (fun () -> Atomic.get l.finished) in
  let reports = stop_listener l in
  Alcotest.(check (list string)) "no answer" [] got;
  Alcotest.(check bool) "returned after the refused connection" true returned;
  Alcotest.(check int) "no service ran" 0 (List.length reports)

let test_listener_crlf () =
  (* The framing strips a CR before the LF, and only there. JSON reads a
     stray CR as whitespace, so check the frames directly first. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames = "one\r\ntwo\nth\rree\r\n\r\n" in
  ignore (Unix.write_substring a frames 0 (String.length frames));
  Unix.close a;
  let c = Tcp.conn_of_fd b in
  let rec read acc =
    match Tcp.recv_line c with Some l -> read (l :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "frames" [ "one"; "two"; "th\rree"; "" ]
    (read []);
  Tcp.close c;
  let lines = listener_solves 2 @ [ {|{"op":"ping","id":"p"}|} ] in
  let want, _ = Service.run_lines (config ~workers:1) lines in
  let l = start_listener (config ~workers:1) in
  let got =
    exchange l.addr (List.mapi (fun k x -> if k = 1 then x else x ^ "\r") lines)
  in
  ignore (stop_listener l);
  Alcotest.(check (list string)) "CRLF and LF frames answer alike" want got

let test_listener_long_line () =
  (* A ~1.3 MB info line spans hundreds of socket reads; the short line
     behind it shares the last read. *)
  let module W = Suu_workloads.Workload in
  let inst =
    (W.grid_batch (Suu_prob.Rng.create 1) ~n:1024 ~m:64).W.instance
  in
  let lines =
    [
      Printf.sprintf {|{"op":"info","id":"big","instance":"%s"}|}
        (escaped (Suu_harness.Io.to_string inst));
      {|{"op":"ping","id":"p"}|};
    ]
  in
  Alcotest.(check bool) "longer than 256 reads" true
    (String.length (List.hd lines) > 256 * 4096);
  let want, _ = Service.run_lines (config ~workers:1) lines in
  let l = start_listener (config ~workers:1) in
  let got = exchange l.addr lines in
  ignore (stop_listener l);
  Alcotest.(check (list string)) "same bytes as run_lines" want got

let test_listener_stop_ends_open_connection () =
  (* The listener runs on this thread, as under suu serve --listen. The
     client gets one answer, keeps its connection open and idle, and
     flips [stopping]; a signal then interrupts the blocked read, which
     must read as EOF. The client signals until the listener returns,
     and closes its socket after 5 s, so a regression fails instead of
     hanging. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock, addr =
    match Tcp.listen "127.0.0.1:0" with Ok x -> x | Error e -> failwith e
  in
  let stop = Atomic.make false and finished = Atomic.make false in
  let prev = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  let client =
    Domain.spawn (fun () ->
        let _, c = dial addr in
        Tcp.send_line c (List.hd (listener_solves 1));
        let answer = Tcp.recv_line c in
        Atomic.set stop true;
        let rec nudge k =
          if k > 0 && not (Atomic.get finished) then begin
            Unix.kill (Unix.getpid ()) Sys.sigusr1;
            Unix.sleepf 0.05;
            nudge (k - 1)
          end
        in
        nudge 100;
        let ended = Atomic.get finished in
        Tcp.close c;
        (answer, ended))
  in
  let reports = ref 0 in
  Tcp.serve_connections
    ~stopping:(fun () -> Atomic.get stop)
    ~on_report:(fun _ -> incr reports)
    (config ~workers:1) lsock;
  Atomic.set finished true;
  let answer, ended = Domain.join client in
  Sys.set_signal Sys.sigusr1 prev;
  Alcotest.(check (option string)) "answered before the stop" (Some "ok")
    (Option.bind answer status);
  Alcotest.(check bool) "returned while the client held the connection"
    true ended;
  Alcotest.(check int) "the connection's service reported" 1 !reports

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "integral output" `Quick
            test_json_integral_output;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "duplicate keys" `Quick test_json_duplicate_keys;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "overwrite" `Quick test_cache_overwrite;
          Alcotest.test_case "capacity 0" `Quick test_cache_disabled;
        ] );
      ( "queue",
        [
          Alcotest.test_case "backpressure" `Quick test_queue_backpressure;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "cross-domain" `Quick test_queue_cross_domain;
          Alcotest.test_case "concurrent stress" `Slow
            test_queue_concurrent_stress;
        ] );
      ( "fault",
        [
          Alcotest.test_case "deterministic decisions" `Quick
            test_fault_determinism;
          Alcotest.test_case "spec parsing" `Quick test_fault_spec_parse;
        ] );
      ( "request",
        [
          Alcotest.test_case "decode solve" `Quick test_request_decode_solve;
          Alcotest.test_case "defaults" `Quick test_request_defaults;
          Alcotest.test_case "errors keep id" `Quick
            test_request_errors_keep_id;
          Alcotest.test_case "bad instance" `Quick test_request_bad_instance;
          Alcotest.test_case "hostile instance" `Quick
            test_request_hostile_instance;
          Alcotest.test_case "damaged served lines" `Quick
            test_request_fuzz_served_lines;
          Alcotest.test_case "cache keys" `Quick test_cache_key_semantics;
          Alcotest.test_case "ping + duplicates" `Quick
            test_request_ping_and_duplicates;
          Alcotest.test_case "trial ranges" `Quick test_request_range;
          Alcotest.test_case "ci_target" `Quick test_request_ci_target;
          Alcotest.test_case "algo round-trip" `Quick
            test_request_algo_roundtrip;
          Alcotest.test_case "dyn fields" `Quick test_request_dyn_fields;
        ] );
      ( "service",
        [
          Alcotest.test_case "lifecycle" `Quick test_service_lifecycle;
          Alcotest.test_case "deterministic across workers" `Quick
            test_service_order_and_determinism_across_workers;
          Alcotest.test_case "estimate + exact" `Quick
            test_service_estimate_and_exact;
          Alcotest.test_case "ping + range sub-jobs" `Quick
            test_service_ping_and_range_subjobs;
          Alcotest.test_case "estimate_domains bit-identical" `Quick
            test_service_estimate_domains_bit_identical;
          Alcotest.test_case "ci_target stops early" `Quick
            test_service_ci_target_stops_early;
          Alcotest.test_case "zero-capacity cache" `Quick
            test_service_zero_capacity_cache;
          Alcotest.test_case "plan mismatch" `Quick
            test_service_plan_mismatch_rejected;
          Alcotest.test_case "lp failure is structured" `Quick
            test_service_lp_failure;
          Alcotest.test_case "build budget is structured" `Quick
            test_service_build_budget;
          Alcotest.test_case "queue full rejects" `Quick
            test_service_queue_full_rejects;
          Alcotest.test_case "survives hostile instance" `Quick
            test_service_survives_hostile_instance;
          Alcotest.test_case "answers are JSON" `Quick
            test_service_answers_are_json;
          Alcotest.test_case "bounded latency metrics" `Quick
            test_metrics_latency_bounded;
        ] );
      ( "emitter",
        [
          Alcotest.test_case "out of order flushes in order" `Quick
            test_emitter_orders;
          Alcotest.test_case "stale duplicate dropped" `Quick
            test_emitter_drops_stale;
          Alcotest.test_case "lazy renders at flush" `Quick
            test_emitter_renders_at_flush;
        ] );
      ( "histogram codec",
        [
          Alcotest.test_case "json round trip" `Quick test_hist_codec_roundtrip;
          Alcotest.test_case "missing growth is None" `Quick
            test_hist_codec_missing_field;
          Alcotest.test_case "telemetry skips undecodable" `Quick
            test_hist_codec_merge_skips;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "worker crash supervision" `Quick
            test_service_worker_crash_supervision;
          Alcotest.test_case "restart budget + drain" `Quick
            test_service_restart_budget_and_drain;
          Alcotest.test_case "transient retry" `Quick
            test_service_transient_retry;
          Alcotest.test_case "retry exhaustion" `Quick
            test_service_retry_exhaustion;
          Alcotest.test_case "degraded admission" `Quick
            test_service_degraded_admission;
          Alcotest.test_case "stall -> timeout" `Quick
            test_service_stall_timeout;
          Alcotest.test_case "any-seed invariants" `Quick
            test_service_chaos_any_seed;
        ] );
      ( "policy cache",
        [
          Alcotest.test_case "hit = fresh miss, four families" `Quick
            test_policy_cache_hit_bytes;
          Alcotest.test_case "4 workers = 1 worker" `Quick
            test_policy_cache_workers;
          Alcotest.test_case "failures not cached" `Quick
            test_policy_cache_failure;
          Alcotest.test_case "result cache off still hits" `Quick
            test_policy_cache_result_cache_off;
          Alcotest.test_case "33 instances evict the first" `Quick
            test_policy_cache_eviction;
        ] );
      ( "listener",
        [
          Alcotest.test_case "round trip = run_lines" `Quick
            test_listener_round_trip;
          Alcotest.test_case "max_conns 1 returns" `Quick
            test_listener_max_conns;
          Alcotest.test_case "tear keeps the answers before it" `Quick
            test_listener_tear;
          Alcotest.test_case "sock_stall delays, bytes intact" `Quick
            test_listener_sock_stall;
          Alcotest.test_case "refuse tears before any service" `Quick
            test_listener_refuse;
          Alcotest.test_case "CRLF frames" `Quick test_listener_crlf;
          Alcotest.test_case "long line" `Quick test_listener_long_line;
          Alcotest.test_case "stop ends an open connection" `Quick
            test_listener_stop_ends_open_connection;
        ] );
    ]
