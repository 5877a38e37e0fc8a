module Table = Suu_harness.Table
module Csv = Suu_harness.Csv
module Io = Suu_harness.Io
module Experiment = Suu_harness.Experiment
module Instance = Suu_core.Instance
module Rng = Suu_prob.Rng

let test_table_render () =
  let s =
    Table.render ~title:"demo" ~header:[ "name"; "value" ]
      [ [ "a"; "1.00" ]; [ "bb"; "10.50" ] ]
  in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  (* Right-aligned numbers: the 1.00 row pads on the left. *)
  Alcotest.(check bool) "aligned" true
    (String.split_on_char '\n' s
    |> List.exists (fun line -> line = "a      1.00"))

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "digits" "3.1416" (Table.cell_f ~digits:4 3.14159);
  Alcotest.(check string) "int" "42" (Table.cell_i 42)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_write_and_append () =
  let path = Filename.temp_file "suu_test" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ] [ [ "1"; "2" ] ];
  Csv.append_rows ~path [ [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "contents" [ "x,y"; "1,2"; "3,4" ]
    (List.rev !lines)

let sample_instance seed =
  let rng = Rng.create seed in
  let n = 5 and m = 3 in
  let dag = Suu_dag.Gen.chains (Rng.split rng) ~n ~chains:2 in
  Instance.create
    ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.1 0.9)))
    ~dag

let instances_equal a b =
  Instance.n a = Instance.n b
  && Instance.m a = Instance.m b
  && Suu_dag.Dag.edges (Instance.dag a) = Suu_dag.Dag.edges (Instance.dag b)
  && List.for_all
       (fun i ->
         List.for_all
           (fun j ->
             Int64.equal
               (Int64.bits_of_float (Instance.prob a ~machine:i ~job:j))
               (Int64.bits_of_float (Instance.prob b ~machine:i ~job:j)))
           (List.init (Instance.n a) (fun j -> j)))
       (List.init (Instance.m a) (fun i -> i))

let schedules_equal a b =
  a.Suu_core.Oblivious.m = b.Suu_core.Oblivious.m
  && a.Suu_core.Oblivious.prefix = b.Suu_core.Oblivious.prefix
  && a.Suu_core.Oblivious.cycle = b.Suu_core.Oblivious.cycle

let test_io_roundtrip_string () =
  let inst = sample_instance 1 in
  let again = Io.of_string (Io.to_string inst) in
  Alcotest.(check bool) "roundtrip" true (instances_equal inst again)

let test_io_roundtrip_file () =
  let inst = sample_instance 2 in
  let path = Filename.temp_file "suu_test" ".inst" in
  Io.save path inst;
  let again = Io.load path in
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (instances_equal inst again)

let test_io_comments_ignored () =
  let inst = sample_instance 3 in
  let s = "# a comment\n" ^ Io.to_string inst ^ "# trailing\n" in
  Alcotest.(check bool) "roundtrip with comments" true
    (instances_equal inst (Io.of_string s))

let test_io_rejects_garbage () =
  Alcotest.check_raises "garbage" (Failure "Io.read: bad header") (fun () ->
      ignore (Io.of_string "hello world" : Instance.t))

let test_io_rejects_truncated () =
  let inst = sample_instance 4 in
  let s = Io.to_string inst in
  let truncated = String.sub s 0 (String.length s / 2) in
  match Io.of_string truncated with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted truncated input"

let test_io_rejects_hostile_sizes () =
  (* Negative sizes must fail with [Failure] like any other parse error —
     not escape as [Invalid_argument] from [Array.init] (a live service
     reader treats only [Failure] as a malformed request). Sizes the
     text cannot hold must fail before anything of that size is
     allocated, so quickly and never with [Out_of_memory]. *)
  let bad ?msg s =
    let t0 = Sys.time () in
    (match Io.of_string s with
    | exception Failure got -> (
        match msg with
        | Some want -> Alcotest.(check string) s want got
        | None -> ())
    | exception e ->
        Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)
    | _ -> Alcotest.fail ("accepted hostile input: " ^ s));
    if Sys.time () -. t0 > 1. then Alcotest.fail ("slow rejection: " ^ s)
  in
  bad "suu 1\nn 0 m -1\nedges 0\nprobs";
  bad "suu 1\nn -1 m 1\nedges 0\nprobs";
  bad "suu 1\nn 0 m 0\nedges 0\nprobs";
  bad "suu 1\nn 1 m 1\nedges -1\nprobs\n0.5";
  bad ~msg:"Io.read: wrong probability count"
    "suu 1\nn 1000000000 m 1000000000\nedges 0\nprobs";
  (* 2^61 * 4 wraps to 0, which matches an empty probability list. *)
  bad ~msg:"Io.read: wrong probability count"
    "suu 1\nn 2305843009213693952 m 4\nedges 0\nprobs";
  bad ~msg:"Io.read: truncated edge list"
    "suu 1\nn 2 m 1\nedges 4611686018427387903\n0 1\n";
  (* The edge list swallows "probs"; the pair after it is read second
     token first, as the token-list parser always did. *)
  bad ~msg:"Io.read: bad int 0.5"
    "suu 1\nn 2 m 1\nedges 4611686018427387903\n0 1\nprobs\n0.5 0.5";
  (* A zero-job instance holds no probabilities, so the text bounds its
     machine count instead: no more machines than the text has bytes. *)
  bad ~msg:"Io.read: bad machine count" "suu 1\nn 0 m 10000000\nedges 0\nprobs\n";
  bad ~msg:"Io.read: bad machine count"
    "suu 1\nn 0 m 4611686018427387903\nedges 0\nprobs\n";
  let zero = Io.of_string "suu 1\nn 0 m 3\nedges 0\nprobs" in
  Alcotest.(check (pair int int)) "small zero-job instance" (0, 3)
    (Instance.n zero, Instance.m zero)

(* --- the token-list parser the scanner replaced, kept as an oracle --- *)

module Oracle = struct
  let strip_comment line =
    match String.index_opt line '#' with
    | Some k -> String.sub line 0 k
    | None -> line

  let tokens_of_lines lines =
    List.concat_map
      (fun line ->
        strip_comment line |> String.split_on_char ' '
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> ""))
      lines

  let tokens s = tokens_of_lines (String.split_on_char '\n' s)

  let instance_of_string s =
    let fail msg = failwith ("Io.read: " ^ msg) in
    let int_of s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail ("bad int " ^ s)
    in
    let float_of s =
      match float_of_string_opt s with
      | Some v -> v
      | None -> fail ("bad float " ^ s)
    in
    match tokens s with
    | "suu" :: "1" :: "n" :: n :: "m" :: m :: "edges" :: ecount :: rest ->
        let n = int_of n and m = int_of m and ecount = int_of ecount in
        if n < 0 then fail "bad job count";
        if m < 1 || (n = 0 && m > String.length s) then
          fail "bad machine count";
        if ecount < 0 then fail "bad edge count";
        let rec take_edges k acc rest =
          if k = 0 then (List.rev acc, rest)
          else
            match rest with
            | u :: v :: rest ->
                take_edges (k - 1) ((int_of u, int_of v) :: acc) rest
            | _ -> fail "truncated edge list"
        in
        let edges, rest = take_edges ecount [] rest in
        let rest =
          match rest with
          | "probs" :: rest -> rest
          | _ -> fail "expected 'probs'"
        in
        let floats = Array.of_list (List.map float_of rest) in
        if Array.length floats <> n * m then fail "wrong probability count";
        let p =
          Array.init m (fun i -> Array.init n (fun j -> floats.((i * n) + j)))
        in
        (try Instance.create ~p ~dag:(Suu_dag.Dag.create ~n edges) with
        | Instance.Invalid e -> fail (Instance.error_to_string e)
        | Invalid_argument msg -> fail msg)
    | _ -> fail "bad header"

  let schedule_of_string s =
    let fail msg = failwith ("Io.schedule: " ^ msg) in
    let int_of tok =
      match int_of_string_opt tok with
      | Some v -> v
      | None -> fail ("bad int " ^ tok)
    in
    match tokens s with
    | "suu-plan" :: "1" :: "m" :: m :: "prefix" :: plen :: rest ->
        let m = int_of m and plen = int_of plen in
        if m < 1 then fail "bad machine count";
        if plen < 0 then fail "bad prefix length";
        let take_steps count rest =
          if count < 0 then fail "bad step count";
          let steps = Array.init count (fun _ -> Array.make m (-1)) in
          let rest = ref rest in
          for k = 0 to count - 1 do
            for i = 0 to m - 1 do
              match !rest with
              | tok :: more ->
                  steps.(k).(i) <- int_of tok;
                  rest := more
              | [] -> fail "truncated step list"
            done
          done;
          (steps, !rest)
        in
        let prefix, rest = take_steps plen rest in
        let cycle, rest =
          match rest with
          | "cycle" :: clen :: rest -> take_steps (int_of clen) rest
          | _ -> fail "expected 'cycle'"
        in
        if rest <> [] then fail "trailing tokens";
        (try Suu_core.Oblivious.create ~m ~cycle prefix
         with Invalid_argument msg -> fail msg)
    | _ -> fail "bad header"
end

(* Byte-level damage: overwrite, insert or delete a byte, or cut the
   text short. The alphabet leans on bytes the grammar cares about. *)
let mutate rng s =
  let alphabet = "0123456789-+.eEx# \t\n\rpn_" in
  let pick () =
    if Rng.int rng 8 = 0 then Char.chr (Rng.int rng 256)
    else alphabet.[Rng.int rng (String.length alphabet)]
  in
  let len = String.length s in
  if len = 0 then String.make 1 (pick ())
  else
    let k = Rng.int rng len in
    match Rng.int rng 4 with
    | 0 -> String.mapi (fun i c -> if i = k then pick () else c) s
    | 1 ->
        String.sub s 0 k ^ String.make 1 (pick ()) ^ String.sub s k (len - k)
    | 2 -> String.sub s 0 k ^ String.sub s (k + 1) (len - k - 1)
    | _ -> String.sub s 0 k

(* The clean text and 24 damaged variants: each damages the previous
   one further, or starts again from the clean text one time in three. *)
let damaged_variants rng clean =
  let out = ref [ clean ] in
  let cur = ref clean in
  for _ = 1 to 24 do
    cur := mutate rng (if Rng.int rng 3 = 0 then clean else !cur);
    out := !cur :: !out
  done;
  !out

(* Same answer from two parsers: equal values, or [Failure] with the
   very same message. *)
let agree ~what ~same parse oracle input =
  let run f =
    match f input with v -> Ok v | exception Failure msg -> Error msg
  in
  match (run parse, run oracle) with
  | Ok a, Ok b ->
      if not (same a b) then Alcotest.failf "%s: values differ on %S" what input
  | Error a, Error b ->
      if a <> b then
        Alcotest.failf "%s: messages differ on %S: %S vs %S" what input a b
  | Ok _, Error msg ->
      Alcotest.failf "%s: scanner accepted %S, oracle said %S" what input msg
  | Error msg, Ok _ ->
      Alcotest.failf "%s: scanner said %S on %S, oracle accepted" what msg
        input

let agree_instance =
  agree ~what:"instance"
    ~same:(fun a b -> Io.digest a = Io.digest b && instances_equal a b)
    Io.of_string Oracle.instance_of_string

(* The four families a served benchmark request carries, at its size. *)
let served_instances rng =
  let module W = Suu_workloads.Workload in
  List.map
    (fun f -> (f (Rng.split rng) ~n:64 ~m:16).W.instance)
    [
      W.grid_batch;
      W.grid_workflow ~stages:8;
      W.grid_divide;
      W.project;
    ]

let test_io_differential () =
  let rng = Rng.create 2007 in
  let module Gen = Suu_check.Gen in
  for k = 0 to 199 do
    let sizes = if k mod 2 = 0 then Gen.small else Gen.default in
    let case = Gen.case (Rng.split rng) sizes in
    let inst = Suu_check.Case.instance case in
    List.iter agree_instance (damaged_variants rng (Io.to_string inst));
    List.iter
      (agree ~what:"plan" ~same:schedules_equal Io.schedule_of_string
         Oracle.schedule_of_string)
      (damaged_variants rng
         (Io.schedule_to_string (Gen.oblivious (Rng.split rng) case)))
  done;
  for _ = 1 to 3 do
    List.iter
      (fun inst ->
        List.iter agree_instance (damaged_variants rng (Io.to_string inst)))
      (served_instances rng)
  done

(* --- the float converter against float_of_string_opt --- *)

let same_float_answer a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let check_float_token s =
  let show = function Some x -> Printf.sprintf "%h" x | None -> "None" in
  let got = Io.float_of_token s and want = float_of_string_opt s in
  if not (same_float_answer got want) then
    Alcotest.failf "float_of_token %S: %s, float_of_string_opt: %s" s
      (show got) (show want)

let fixed_float_tokens =
  [
    "9007199254740991"; "9007199254740992"; "9007199254740993";
    "9007199254740995"; "-9007199254740993"; "1e23"; "8.5e22"; "9e22";
    "1.7976931348623157e308"; "1.7976931348623158e308";
    "1.7976931348623158079e308"; "1.797693134862315807937289714053e308";
    "1.7976931348623159e308"; "2.2250738585072014e-308";
    "2.2250738585072011e-308"; "2.2250738585072012e-308";
    "4.9406564584124654e-324"; "5e-324"; "2.4703282292062327e-324";
    "2.4703282292062328e-324"; "1e-400"; "1e400"; "0e999999";
    "-0"; "-0.0"; "+0"; "0"; "000"; "1."; "-1."; ".5"; "-.5"; "1.e5"; "1e";
    "1e+"; "1e-"; "1E5"; "1e05"; "0x1p3"; "0X10"; "1_0"; "1_000.5"; "nan";
    "-nan"; "NaN"; "inf"; "-inf"; "infinity"; "0.5\r"; "1\r"; "\r1"; " 1";
    "1 "; "1 2"; "1#"; "#1"; ""; "+"; "-"; "."; "e5"; "+-1"; "1.5.3";
    "1e5e5"; "1e+-5"; "1234567890123456789"; "12345678901234567890";
    "123456789012345678"; "0.12345678901234567890123";
    "12345678901234567890e-5"; "100000000000000000000000000000";
    "0.000000000000000000000000000001"; "00000000000000000000000000001";
    "0.30000000000000004"; "0.1"; "0.2"; "0.3"; "1e22"; "1e-22"; "123e-22";
    "9007199254740992e22"; "4503599627370497.5"; "1\0002"; "\xff";
  ]

(* At least 10^6 strings: random doubles (uniform bit patterns, uniform
   (0,1), and ldexp-scaled into the subnormal range) in five printf
   spellings, and random digit strings of 1-25 digits with a random
   point, sign and exponent. *)
let test_float_of_token_exact () =
  List.iter check_float_token fixed_float_tokens;
  let rng = Rng.create 53 in
  let cases = ref (List.length fixed_float_tokens) in
  let check s =
    check_float_token s;
    incr cases
  in
  let buf = Buffer.create 64 in
  for k = 1 to 170_000 do
    let x =
      match k mod 3 with
      | 0 -> Int64.float_of_bits (Rng.int64 rng)
      | 1 -> Rng.float rng
      | _ -> Float.ldexp (Rng.float rng) (-1000 - Rng.int rng 80)
    in
    check (Printf.sprintf "%.17g" x);
    check (Printf.sprintf "%.16g" x);
    check (Printf.sprintf "%.15g" x);
    check (Printf.sprintf "%.3g" x);
    check (Printf.sprintf "%.18e" x);
    Buffer.clear buf;
    (match Rng.int rng 3 with
    | 0 -> Buffer.add_char buf '-'
    | 1 -> Buffer.add_char buf '+'
    | _ -> ());
    let digits = 1 + Rng.int rng 25 in
    let point = Rng.int rng (digits + 2) in
    for d = 0 to digits - 1 do
      if d = point then Buffer.add_char buf '.';
      Buffer.add_char buf (Char.chr (48 + Rng.int rng 10))
    done;
    if point = digits then Buffer.add_char buf '.';
    if Rng.bool rng then
      Buffer.add_string buf
        (Printf.sprintf "%c%d"
           (if Rng.bool rng then 'e' else 'E')
           (Rng.int rng 801 - 400));
    check (Buffer.contents buf)
  done;
  Alcotest.(check bool) "at least 10^6 strings" true (!cases >= 1_000_000)

(* Exact naturals, little-endian base-2^24 limbs, enough to check the
   power-of-ten table. *)
module Nat = struct
  let limb = 1 lsl 24

  let norm a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do
      decr n
    done;
    Array.sub a 0 !n

  let of_int x = norm [| x land (limb - 1); (x lsr 24) land (limb - 1); x lsr 48 |]

  let add a b =
    let n = max (Array.length a) (Array.length b) + 1 in
    let get v i = if i < Array.length v then v.(i) else 0 in
    let r = Array.make n 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let t = get a i + get b i + !carry in
      r.(i) <- t land (limb - 1);
      carry := t lsr 24
    done;
    norm r

  let mul a b =
    let r = Array.make (Array.length a + Array.length b + 1) 0 in
    Array.iteri
      (fun i x ->
        let carry = ref 0 in
        Array.iteri
          (fun j y ->
            let t = r.(i + j) + (x * y) + !carry in
            r.(i + j) <- t land (limb - 1);
            carry := t lsr 24)
          b;
        r.(i + Array.length b) <- !carry)
      a;
    norm r

  let pow2 k = norm (Array.init ((k / 24) + 1) (fun i -> if i = k / 24 then 1 lsl (k mod 24) else 0))

  let bit_length a =
    let n = Array.length a in
    if n = 0 then 0
    else
      let top = ref a.(n - 1) and bits = ref (24 * (n - 1)) in
      while !top > 0 do
        incr bits;
        top := !top lsr 1
      done;
      !bits

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else
      let rec go i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then compare a.(i) b.(i)
        else go (i - 1)
      in
      go (la - 1)

  (* The unsigned 128-bit value [hi * 2^64 + lo]. *)
  let of_u128 hi lo =
    let half w = Int64.to_int (Int64.shift_right_logical w 32) in
    let low w = Int64.to_int (Int64.logand w 0xFFFF_FFFFL) in
    List.fold_left
      (fun acc x -> add (mul acc (pow2 32)) (of_int x))
      (of_int 0)
      [ half hi; low hi; half lo; low lo ]
end

(* Row e of the table is floor (10^e * 2^k) with the value in
   [2^127, 2^128): check r * den <= num * 2^k < (r + 1) * den with both
   sides scaled to integers. *)
let test_pow10_table () =
  let module P = Suu_harness.Pow10 in
  Alcotest.(check int) "rows" (16 * (P.max_exp10 - P.min_exp10 + 1))
    (String.length P.rows);
  let row e =
    let k = 16 * (e - P.min_exp10) in
    (String.get_int64_be P.rows k, String.get_int64_be P.rows (k + 8))
  in
  (* Go's strconv detailedPowersOfTen, 1e43 and 1e-348. *)
  Alcotest.(check bool) "1e43" true
    (row 43 = (0xE596B7B0C643C719L, 0x6D9CCD05D0000000L));
  Alcotest.(check bool) "1e-348" true
    (row (-348) = (0xFA8FD5A0081C0288L, 0x1732C869CD60E453L));
  let ten = Nat.of_int 10 and one = Nat.of_int 1 in
  (* pow.(q) = 10^q, out to the larger of the table's two ends. *)
  let top = max P.max_exp10 (-P.min_exp10) in
  let pow = Array.make (top + 1) one in
  for q = 1 to top do
    pow.(q) <- Nat.mul pow.(q - 1) ten
  done;
  for e = P.min_exp10 to P.max_exp10 do
    let hi, lo = row e in
    let r = Nat.of_u128 hi lo in
    if Nat.bit_length r <> 128 then Alcotest.failf "1e%d: not normalised" e;
    let num, den, k =
      if e >= 0 then (pow.(e), one, 128 - Nat.bit_length pow.(e))
      else (one, pow.(-e), 127 + Nat.bit_length pow.(-e))
    in
    let lhs r = Nat.mul (Nat.mul r den) (Nat.pow2 (max 0 (-k))) in
    let rhs = Nat.mul num (Nat.pow2 (max 0 k)) in
    if
      Nat.compare (lhs r) rhs > 0
      || Nat.compare rhs (lhs (Nat.add r one)) >= 0
    then Alcotest.failf "1e%d: row is not floor (10^e * 2^%d)" e k
  done

(* Fixed instance: 3 jobs, 2 machines, a 0 -> 1 -> 2 chain. Its pin is
   the MD5 of the 8-byte little-endian words 3, 2, 2, 0, 1, 1, 2 and
   then the bits of 0.5, 0.25, 1, 0.125, 0, 0.75. *)
let pinned_instance () =
  Instance.create
    ~p:[| [| 0.5; 0.25; 1. |]; [| 0.125; 0.; 0.75 |] |]
    ~dag:(Suu_dag.Dag.create ~n:3 [ (1, 2); (0, 1) ])

let test_digest_golden () =
  Alcotest.(check string) "golden" "2d7503fe666015a9b967e6f6c807bb9f" (Io.digest (pinned_instance ()))

let test_digest_spellings () =
  let text p = Printf.sprintf "suu 1\nn 2 m 1\nedges 0\nprobs\n%s 1\n" p in
  let d p = Io.digest (Io.of_string (text p)) in
  Alcotest.(check string) "5e-1" (d "0.5") (d "5e-1");
  Alcotest.(check string) "0.50" (d "0.5") (d "0.50")

let test_digest_separates () =
  let inst = pinned_instance () in
  let ulp =
    Instance.create
      ~p:[| [| Float.succ 0.5; 0.25; 1. |]; [| 0.125; 0.; 0.75 |] |]
      ~dag:(Instance.dag inst)
  in
  Alcotest.(check bool) "one ulp" false (Io.digest inst = Io.digest ulp);
  (* Same six probabilities in the same order, framed as 2x3 and 3x2. *)
  let flat = [| 0.5; 0.25; 1.; 0.125; 0.375; 0.75 |] in
  let shaped ~n ~m =
    Instance.independent
      ~p:(Array.init m (fun i -> Array.sub flat (i * n) n))
  in
  Alcotest.(check bool) "n and m swapped" false
    (Io.digest (shaped ~n:3 ~m:2) = Io.digest (shaped ~n:2 ~m:3))

let test_experiment_measure () =
  let inst = sample_instance 5 in
  let m =
    Experiment.measure ~trials:50 ~seed:1 ~lower_bound:2. inst
      (Suu_algo.Suu_i.policy inst)
  in
  Alcotest.(check string) "name" "suu-i-alg" m.Experiment.policy_name;
  Alcotest.(check int) "trials" 50 m.Experiment.trials;
  Alcotest.(check bool) "ratio consistent" true
    (Float.abs (m.Experiment.ratio -. (m.Experiment.mean /. 2.)) < 1e-9)

let test_experiment_rows () =
  let inst = sample_instance 6 in
  let ms =
    Experiment.compare_policies ~trials:20 ~seed:2 inst ~lower_bound:1.
      [ Suu_algo.Suu_i.policy inst; Suu_algo.Baselines.greedy_rate inst ]
  in
  Alcotest.(check int) "two rows" 2 (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check int) "row width"
        (List.length Experiment.row_header)
        (List.length (Experiment.row m)))
    ms

let test_schedule_roundtrip () =
  let sched =
    Suu_core.Oblivious.create ~m:2
      ~cycle:[| [| 1; 0 |] |]
      [| [| 0; -1 |]; [| 1; 1 |] |]
  in
  let again = Io.schedule_of_string (Io.schedule_to_string sched) in
  Alcotest.(check bool) "roundtrip" true (schedules_equal sched again)

let test_schedule_file_roundtrip () =
  let inst = sample_instance 7 in
  let sched = Suu_algo.Suu_i_obl.schedule inst in
  let path = Filename.temp_file "suu_plan" ".plan" in
  Io.save_schedule path sched;
  let again = Io.load_schedule path in
  Sys.remove path;
  Alcotest.(check bool) "roundtrip" true (schedules_equal sched again)

let test_schedule_rejects_garbage () =
  Alcotest.check_raises "garbage" (Failure "Io.schedule: bad header")
    (fun () -> ignore (Io.schedule_of_string "nope" : Suu_core.Oblivious.t))

let test_schedule_rejects_truncated () =
  let sched = Suu_core.Oblivious.finite ~m:3 [| [| 0; 1; 2 |]; [| 2; 1; 0 |] |] in
  let s = Io.schedule_to_string sched in
  match Io.schedule_of_string (String.sub s 0 (String.length s - 8)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted truncated plan"

let test_schedule_rejects_hostile_sizes () =
  let bad s =
    match Io.schedule_of_string s with
    | exception Failure _ -> ()
    | exception e ->
        Alcotest.fail ("wrong exception: " ^ Printexc.to_string e)
    | _ -> Alcotest.fail ("accepted hostile plan: " ^ s)
  in
  bad "suu-plan 1\nm 1\nprefix -1\ncycle 0";
  bad "suu-plan 1\nm 1\nprefix 0\ncycle -1";
  bad "suu-plan 1\nm 0\nprefix 0\ncycle 0";
  (* 10^18 steps are announced, one is present: nothing that size may be
     allocated on the way to the error. *)
  bad "suu-plan 1\nm 1000000000\nprefix 1000000000\n0\ncycle 0"

let test_gantt_of_trace () =
  let trace =
    [ (0, [| 0; -1 |], []); (1, [| 0; 1 |], [ 0 ]); (2, [| -1; 1 |], [ 1 ]) ]
  in
  let s = Suu_harness.Gantt.of_trace ~m:2 trace in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "machine 0 row" true (List.mem "m0  |00." lines);
  Alcotest.(check bool) "machine 1 row" true (List.mem "m1  |.11" lines);
  Alcotest.(check bool) "completion row" true (List.mem "done| **" lines)

let test_gantt_base36 () =
  let trace = [ (0, [| 10; 35; 36 |], []) ] in
  let s = Suu_harness.Gantt.of_trace ~m:3 trace in
  Alcotest.(check bool) "a" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "m0  |a"));
  Alcotest.(check bool) "z" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "m1  |z"));
  Alcotest.(check bool) "# overflow" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "m2  |#"))

let test_gantt_truncation () =
  let trace = List.init 50 (fun t -> (t, [| 0 |], [])) in
  let s = Suu_harness.Gantt.of_trace ~m:1 ~max_width:10 trace in
  Alcotest.(check bool) "ellipsis" true
    (String.split_on_char '\n' s
    |> List.exists (fun l -> l = "m0  |0000000000..."))

let test_gantt_of_oblivious () =
  let sched =
    Suu_core.Oblivious.create ~m:1 ~cycle:[| [| 1 |] |] [| [| 0 |] |]
  in
  let s = Suu_harness.Gantt.of_oblivious sched () in
  Alcotest.(check bool) "prefix+cycle" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "m0  |01"))

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"plan roundtrip on random schedules" ~count:50
    QCheck.(triple small_int (int_range 1 4) (int_range 0 6))
    (fun (seed, m, plen) ->
      let rng = Rng.create seed in
      let random_steps len =
        Array.init len (fun _ ->
            Array.init m (fun _ -> Rng.int rng 5 - 1))
      in
      let sched =
        Suu_core.Oblivious.create ~m
          ~cycle:(random_steps (Rng.int rng 4))
          (random_steps plen)
      in
      schedules_equal sched (Io.schedule_of_string (Io.schedule_to_string sched)))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"io roundtrip on random instances" ~count:50
    QCheck.(triple small_int (int_range 1 15) (int_range 1 5))
    (fun (seed, n, m) ->
      let rng = Rng.create seed in
      let dag = Suu_dag.Gen.random_dag (Rng.split rng) ~n ~edge_prob:0.3 in
      let inst =
        Instance.create
          ~p:(Array.init m (fun _ -> Array.init n (fun _ -> Rng.uniform rng 0.01 1.)))
          ~dag
      in
      instances_equal inst (Io.of_string (Io.to_string inst)))

let () =
  Alcotest.run "harness"
    [
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "write/append" `Quick test_csv_write_and_append;
        ] );
      ( "io",
        [
          Alcotest.test_case "string roundtrip" `Quick test_io_roundtrip_string;
          Alcotest.test_case "file roundtrip" `Quick test_io_roundtrip_file;
          Alcotest.test_case "comments" `Quick test_io_comments_ignored;
          Alcotest.test_case "garbage rejected" `Quick test_io_rejects_garbage;
          Alcotest.test_case "truncated rejected" `Quick test_io_rejects_truncated;
          Alcotest.test_case "hostile sizes rejected" `Quick
            test_io_rejects_hostile_sizes;
          Alcotest.test_case "scanner = token-list oracle" `Quick
            test_io_differential;
          Alcotest.test_case "float converter = float_of_string_opt" `Quick
            test_float_of_token_exact;
          Alcotest.test_case "power-of-ten table" `Quick test_pow10_table;
          Alcotest.test_case "digest golden" `Quick test_digest_golden;
          Alcotest.test_case "digest ignores spelling" `Quick
            test_digest_spellings;
          Alcotest.test_case "digest separates" `Quick test_digest_separates;
        ] );
      ( "plans",
        [
          Alcotest.test_case "string roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick
            test_schedule_file_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_schedule_rejects_garbage;
          Alcotest.test_case "truncated rejected" `Quick
            test_schedule_rejects_truncated;
          Alcotest.test_case "hostile sizes rejected" `Quick
            test_schedule_rejects_hostile_sizes;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "of_trace" `Quick test_gantt_of_trace;
          Alcotest.test_case "base36" `Quick test_gantt_base36;
          Alcotest.test_case "truncation" `Quick test_gantt_truncation;
          Alcotest.test_case "of_oblivious" `Quick test_gantt_of_oblivious;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "measure" `Quick test_experiment_measure;
          Alcotest.test_case "rows" `Quick test_experiment_rows;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
        ] );
    ]
