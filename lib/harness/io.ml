module Instance = Suu_core.Instance
module Dag = Suu_dag.Dag

let emit put inst =
  let n = Instance.n inst and m = Instance.m inst in
  let edges = Dag.edges (Instance.dag inst) in
  put "suu 1\n";
  put (Printf.sprintf "n %d m %d\n" n m);
  put (Printf.sprintf "edges %d\n" (List.length edges));
  List.iter (fun (u, v) -> put (Printf.sprintf "%d %d\n" u v)) edges;
  put "probs\n";
  for i = 0 to m - 1 do
    let row =
      String.concat " "
        (List.init n (fun j ->
             Printf.sprintf "%.17g" (Instance.prob inst ~machine:i ~job:j)))
    in
    put row;
    put "\n"
  done

let write oc inst = emit (output_string oc) inst

let to_string inst =
  let buf = Buffer.create 1024 in
  emit (Buffer.add_string buf) inst;
  Buffer.contents buf

(* One cursor over the text for both file formats. A token is a maximal
   run of bytes other than ' ', '\t', '\n' and '#'; '#' starts a comment
   that runs to the end of its line. After [next] returns [true] the
   current token is [text.[start] .. text.[pos - 1]]. The other mutable
   fields are [number]'s results: the number it last read is
   (-1)^neg * mant * 10^exp10, where [mant] holds the number's [digits]
   significant digits when there are at most 18 of them. [integral] says
   it was written with neither a point nor an exponent. *)
type scanner = {
  text : string;
  mutable start : int;
  mutable pos : int;
  mutable neg : bool;
  mutable mant : int;
  mutable digits : int;
  mutable exp10 : int;
  mutable integral : bool;
}

let scanner text =
  {
    text;
    start = 0;
    pos = 0;
    neg = false;
    mant = 0;
    digits = 0;
    exp10 = 0;
    integral = true;
  }

(* First byte at or after [i] that is not a separator or inside a
   comment, or [String.length s]. [skip] and [stop] are top-level, not
   local to [next], so reading a token allocates no closure: that
   garbage raised [suu serve]'s peak memory by about 5% under the
   servebench mc-heavy mix on a 2-vCPU x86-64 host. *)
let rec skip s i =
  if i >= String.length s then String.length s
  else
    match s.[i] with
    | ' ' | '\t' | '\n' -> skip s (i + 1)
    | '#' -> (
        match String.index_from_opt s i '\n' with
        | Some k -> skip s (k + 1)
        | None -> String.length s)
    | _ -> i

let ends_token s i =
  i = String.length s
  || match String.unsafe_get s i with ' ' | '\t' | '\n' | '#' -> true | _ -> false

(* End of the token starting at [i]. *)
let rec stop s i = if ends_token s i then i else stop s (i + 1)

let next sc =
  sc.start <- skip sc.text sc.pos;
  sc.pos <- stop sc.text sc.start;
  sc.pos > sc.start

let token sc = String.sub sc.text sc.start (sc.pos - sc.start)
let token_is sc word = String.equal (token sc) word

(* --- numbers, converted in place --- *)

let digit s i =
  i < String.length s
  && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false

(* Reads [[+-]d+[.d*][(e|E)[+-]d+]] at [i] into the scanner's number
   fields and returns the index just after it, or -1 when no digit
   follows the sign. An exponent marker without digits is left unread,
   so the byte at the returned index is the marker. Digits past the
   18th wrap [mant], which then goes unused. *)
let number sc i =
  let s = sc.text in
  let i = ref i and mant = ref 0 and digits = ref 0 and exp10 = ref 0 in
  let neg = !i < String.length s && String.unsafe_get s !i = '-' in
  if !i < String.length s && (neg || String.unsafe_get s !i = '+') then incr i;
  let first = !i and point = ref false and more = ref true in
  while !more && !i < String.length s do
    match String.unsafe_get s !i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if !digits > 0 || d > 0 then begin
          mant := (10 * !mant) + d;
          incr digits
        end;
        if !point then decr exp10;
        incr i
    | '.' when (not !point) && !i > first ->
        point := true;
        incr i
    | _ -> more := false
  done;
  if !i = first then -1
  else begin
    let integral = ref (not !point) in
    (if !i < String.length s then
       match String.unsafe_get s !i with
       | 'e' | 'E' ->
           let j = !i + 1 in
           let eneg = j < String.length s && String.unsafe_get s j = '-' in
           let j =
             if j < String.length s && (eneg || String.unsafe_get s j = '+')
             then j + 1
             else j
           in
           if digit s j then begin
             integral := false;
             (* Capped far outside the table, so it cannot overflow. *)
             let e = ref 0 in
             i := j;
             while digit s !i do
               if !e < 100_000 then
                 e := (10 * !e) + Char.code (String.unsafe_get s !i) - 48;
               incr i
             done;
             exp10 := !exp10 + if eneg then - !e else !e
           end
       | _ -> ());
    sc.neg <- neg;
    sc.mant <- !mant;
    sc.digits <- !digits;
    sc.exp10 <- !exp10;
    sc.integral <- !integral;
    !i
  end

(* The int that the token at [i] spells, as [int_of_string_opt] reads
   it; [fail] gets the "bad int" message. *)
let int_token sc ~fail i =
  let e = number sc i in
  if e >= 0 && ends_token sc.text e && sc.integral && sc.digits <= 18 then
    if sc.neg then -sc.mant else sc.mant
  else
    let tok = String.sub sc.text i (stop sc.text i - i) in
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail ("bad int " ^ tok)

(* 10^0 .. 10^22, each exact in a double. *)
let exact_pow10 =
  [|
    1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
    1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22;
  |]

(* Number of significant bits of [x > 0]. *)
let bit_length x =
  let n = ref 1 and x = ref x in
  if !x lsr 32 <> 0 then (n := !n + 32; x := !x lsr 32);
  if !x lsr 16 <> 0 then (n := !n + 16; x := !x lsr 16);
  if !x lsr 8 <> 0 then (n := !n + 8; x := !x lsr 8);
  if !x lsr 4 <> 0 then (n := !n + 4; x := !x lsr 4);
  if !x lsr 2 <> 0 then (n := !n + 2; x := !x lsr 2);
  if !x lsr 1 <> 0 then n := !n + 1;
  !n

(* Unsigned [a < b], and the high half of the unsigned 128-bit product
   [a * b] (the low half is [Int64.mul a b]). *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.add a Int64.min_int < Int64.add b Int64.min_int

let[@inline] mul_high a b =
  let open Int64 in
  let mask = 0xFFFF_FFFFL in
  let a0 = logand a mask and a1 = shift_right_logical a 32 in
  let b0 = logand b mask and b1 = shift_right_logical b 32 in
  let p01 = mul a0 b1 and p10 = mul a1 b0 in
  let mid =
    add
      (add (shift_right_logical (mul a0 b0) 32) (logand p01 mask))
      (logand p10 mask)
  in
  add
    (add (mul a1 b1) (shift_right_logical p01 32))
    (add (shift_right_logical p10 32) (shift_right_logical mid 32))

(* Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
   arXiv:2101.11408), as Go's strconv.eiselLemire64 writes it: the
   correctly rounded double nearest [mant * 10^exp10], stored in
   [row.(j)], or [false] when the 128-bit product cannot decide it or
   the result is subnormal or overflows. Needs 0 < mant < 2^63 and
   [exp10] inside the table. *)
let eisel_lemire sc (row : float array) j =
  let e10 = sc.exp10 in
  let clz = 64 - bit_length sc.mant in
  let man = Int64.shift_left (Int64.of_int sc.mant) clz in
  let k = 16 * (e10 - Pow10.min_exp10) in
  let hi = String.get_int64_be Pow10.rows k
  and lo = String.get_int64_be Pow10.rows (k + 8) in
  let x_hi = mul_high man hi and x_lo = Int64.mul man hi in
  (* When the top product's low bits are all ones, the low half of the
     power may carry into them: add its product in. *)
  let wide = Int64.logand x_hi 0x1FFL = 0x1FFL && ult (Int64.add x_lo man) man in
  let y_hi = if wide then mul_high man lo else 0L in
  let y_lo = if wide then Int64.mul man lo else 0L in
  let x_lo' = Int64.add x_lo y_hi in
  let x_hi = if ult x_lo' x_lo then Int64.succ x_hi else x_hi in
  let x_lo = x_lo' in
  if
    wide
    && Int64.logand x_hi 0x1FFL = 0x1FFL
    && x_lo = -1L
    && ult (Int64.add y_lo man) man
  then false
  else
    let msb = Int64.to_int (Int64.shift_right_logical x_hi 63) in
    let mant = Int64.to_int (Int64.shift_right_logical x_hi (msb + 9)) in
    let exp2 = ((217706 * e10) asr 16) + 64 + 1023 - clz - (1 lxor msb) in
    (* Exactly halfway between two doubles: leave the tie to strtod. *)
    if x_lo = 0L && Int64.logand x_hi 0x1FFL = 0L && mant land 3 = 1 then
      false
    else
      let mant = (mant + (mant land 1)) lsr 1 in
      let carry = mant lsr 53 in
      let mant = mant lsr carry and exp2 = exp2 + carry in
      if exp2 <= 0 || exp2 >= 0x7FF then false
      else
        let x =
          Int64.float_of_bits
            (Int64.logor
               (Int64.shift_left (Int64.of_int exp2) 52)
               (Int64.of_int (mant land 0xF_FFFF_FFFF_FFFF)))
        in
        row.(j) <- (if sc.neg then -.x else x);
        true

(* Stores the double that [number]'s result denotes in [row.(j)] when
   it can be decided exactly: zero; Clinger's fast path, where the
   mantissa and the power of ten are both exact doubles; else
   Eisel-Lemire. [false] leaves the number to [float_of_string_opt]. *)
let exact_float sc (row : float array) j =
  let e10 = sc.exp10 in
  if sc.digits > 18 then false
  else if sc.mant = 0 then begin
    row.(j) <- (if sc.neg then -0. else 0.);
    true
  end
  else if sc.mant <= 1 lsl 53 && e10 >= -22 && e10 <= 22 then begin
    let x = float_of_int sc.mant in
    let x =
      if e10 >= 0 then x *. exact_pow10.(e10) else x /. exact_pow10.(-e10)
    in
    row.(j) <- (if sc.neg then -.x else x);
    true
  end
  else
    e10 >= Pow10.min_exp10 && e10 <= Pow10.max_exp10 && eisel_lemire sc row j

(* Converts the token at [sc.start] into [row.(j)], exactly as
   [float_of_string_opt] reads it, and moves [sc.pos] to its end.
   [false] when the token is not a float. *)
let float_token sc row j =
  let e = number sc sc.start in
  if e >= 0 && ends_token sc.text e && exact_float sc row j then begin
    sc.pos <- e;
    true
  end
  else begin
    sc.pos <- stop sc.text sc.start;
    match float_of_string_opt (token sc) with
    | Some x ->
        row.(j) <- x;
        true
    | None -> false
  end

let float_of_token s =
  let sc = scanner s and cell = [| 0. |] in
  if number sc 0 = String.length s && exact_float sc cell 0 then Some cell.(0)
  else float_of_string_opt s

(* Whether [count * per] more tokens fit in the text after the current
   token. Each takes at least two bytes (a separator and one byte), so
   a count that a short text cannot hold is caught before anything of
   its size is allocated. Overflow-safe. *)
let fits sc ~count ~per =
  count = 0 || per <= (String.length sc.text - sc.pos) / 2 / count

(* Header steps. Every literal word of a header is checked before any
   of its numbers is converted, so a malformed header always reads as
   "bad header". [value] returns where its token starts. *)
let word sc w = if not (next sc && token_is sc w) then raise Exit
let value sc = if next sc then sc.start else raise Exit

let of_string text =
  let fail msg = failwith ("Io.read: " ^ msg) in
  let sc = scanner text in
  match
    word sc "suu";
    word sc "1";
    word sc "n";
    let n = value sc in
    word sc "m";
    let m = value sc in
    word sc "edges";
    (n, m, value sc)
  with
  | exception Exit -> fail "bad header"
  | n, m, ecount ->
      let n = int_token sc ~fail n
      and m = int_token sc ~fail m
      and ecount = int_token sc ~fail ecount in
      (* Validate before any allocation so hostile sizes fail with the
         structured [Failure] every caller already handles. A zero-job
         instance holds no probabilities, so its row count is bounded
         by the text instead: [write] spends a newline on every row. *)
      if n < 0 then fail "bad job count";
      if m < 1 || (n = 0 && m > String.length text) then
        fail "bad machine count";
      if ecount < 0 then fail "bad edge count";
      (* A count the rest of the text cannot hold is still scanned, for
         the first error in reading order, but nothing is stored. *)
      let keep = fits sc ~count:ecount ~per:2 in
      let edges = ref [] in
      for _ = 1 to ecount do
        if not (next sc) then fail "truncated edge list";
        let u = sc.start in
        if not (next sc) then fail "truncated edge list";
        (* [v] before [u], as the token-list parser's pair (evaluated
           right to left) did: which bad int is reported stays the same. *)
        let v = int_token sc ~fail sc.start in
        let u = int_token sc ~fail u in
        if keep then edges := (u, v) :: !edges
      done;
      if not (next sc && token_is sc "probs") then fail "expected 'probs'";
      let cells = if fits sc ~count:n ~per:m then n * m else -1 in
      let p =
        Array.init (if cells < 0 then 0 else m) (fun _ -> Array.make n 0.)
      in
      (* Every remaining token must be a float before the count is
         checked; those past [cells] land in [spill]. *)
      let spill = [| 0. |] in
      let count = ref 0 in
      sc.start <- skip text sc.pos;
      while sc.start < String.length text do
        let stored =
          if !count < cells then float_token sc p.(!count / n) (!count mod n)
          else float_token sc spill 0
        in
        if not stored then fail ("bad float " ^ token sc);
        incr count;
        sc.start <- skip text sc.pos
      done;
      if !count <> cells then fail "wrong probability count";
      (try Instance.create ~p ~dag:(Dag.create ~n (List.rev !edges))
       with
       | Instance.Invalid e -> fail (Instance.error_to_string e)
       | Invalid_argument msg -> fail msg)

let read ic = of_string (In_channel.input_all ic)

let save path inst =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc inst)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

module Oblivious = Suu_core.Oblivious

let schedule_to_string sched =
  let buf = Buffer.create 1024 in
  let add_steps steps =
    Array.iter
      (fun a ->
        Buffer.add_string buf
          (String.concat " " (Array.to_list (Array.map string_of_int a)));
        Buffer.add_char buf '\n')
      steps
  in
  Buffer.add_string buf "suu-plan 1\n";
  Buffer.add_string buf (Printf.sprintf "m %d\n" sched.Oblivious.m);
  Buffer.add_string buf
    (Printf.sprintf "prefix %d\n" (Array.length sched.Oblivious.prefix));
  add_steps sched.Oblivious.prefix;
  Buffer.add_string buf
    (Printf.sprintf "cycle %d\n" (Array.length sched.Oblivious.cycle));
  add_steps sched.Oblivious.cycle;
  Buffer.contents buf

let schedule_of_string s =
  let fail msg = failwith ("Io.schedule: " ^ msg) in
  let sc = scanner s in
  match
    word sc "suu-plan";
    word sc "1";
    word sc "m";
    let m = value sc in
    word sc "prefix";
    (m, value sc)
  with
  | exception Exit -> fail "bad header"
  | m, plen ->
      let m = int_token sc ~fail m and plen = int_token sc ~fail plen in
      if m < 1 then fail "bad machine count";
      if plen < 0 then fail "bad prefix length";
      let take_steps count =
        if count < 0 then fail "bad step count";
        let keep = fits sc ~count ~per:m in
        let steps =
          Array.init (if keep then count else 0) (fun _ -> Array.make m (-1))
        in
        for k = 0 to count - 1 do
          for i = 0 to m - 1 do
            if not (next sc) then fail "truncated step list";
            let v = int_token sc ~fail sc.start in
            if keep then steps.(k).(i) <- v
          done
        done;
        steps
      in
      let prefix = take_steps plen in
      if not (next sc && token_is sc "cycle" && next sc) then
        fail "expected 'cycle'";
      let cycle = take_steps (int_token sc ~fail sc.start) in
      if next sc then fail "trailing tokens";
      (try Oblivious.create ~m ~cycle prefix
       with Invalid_argument msg -> fail msg)

let save_schedule path sched =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (schedule_to_string sched))

let load_schedule path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> schedule_of_string (In_channel.input_all ic))
