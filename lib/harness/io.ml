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

(* MD5 over a framed binary image of the instance: n, m, the edge count
   and the edges in [Dag.edges] order as 64-bit little-endian integers,
   then the IEEE bits of every [p_ij] in machine-major order. *)
let digest inst =
  let n = Instance.n inst and m = Instance.m inst in
  let edges = Dag.edges (Instance.dag inst) in
  let ecount = List.length edges in
  let image = Bytes.create (8 * (3 + (2 * ecount) + (n * m))) in
  let at = ref 0 in
  let put w =
    Bytes.set_int64_le image !at w;
    at := !at + 8
  in
  put (Int64.of_int n);
  put (Int64.of_int m);
  put (Int64.of_int ecount);
  List.iter
    (fun (u, v) ->
      put (Int64.of_int u);
      put (Int64.of_int v))
    edges;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      put (Int64.bits_of_float (Instance.prob inst ~machine:i ~job:j))
    done
  done;
  Digest.to_hex (Digest.bytes image)

(* One cursor over the text for both file formats. A token is a maximal
   run of bytes other than ' ', '\t', '\n' and '#'; '#' starts a comment
   that runs to the end of its line. After [next] returns [true] the
   current token is [text.[start] .. text.[pos - 1]]. *)
type scanner = { text : string; mutable start : int; mutable pos : int }

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

(* End of the token starting at [i]. *)
let rec stop s i =
  if i = String.length s then i
  else match s.[i] with ' ' | '\t' | '\n' | '#' -> i | _ -> stop s (i + 1)

let next sc =
  sc.start <- skip sc.text sc.pos;
  sc.pos <- stop sc.text sc.start;
  sc.pos > sc.start

let token sc = String.sub sc.text sc.start (sc.pos - sc.start)
let token_is sc word = String.equal (token sc) word

(* Whether [count * per] more tokens fit in the text after the current
   token. Each takes at least two bytes (a separator and one byte), so
   a count that a short text cannot hold is caught before anything of
   its size is allocated. Overflow-safe. *)
let fits sc ~count ~per =
  count = 0 || per <= (String.length sc.text - sc.pos) / 2 / count

(* Header steps. Every literal word of a header is checked before any
   of its numbers is converted, so a malformed header always reads as
   "bad header". *)
let word sc w = if not (next sc && token_is sc w) then raise Exit
let value sc = if next sc then token sc else raise Exit

let of_string text =
  let fail msg = failwith ("Io.read: " ^ msg) in
  let int_of s =
    match int_of_string_opt s with Some v -> v | None -> fail ("bad int " ^ s)
  in
  let sc = { text; start = 0; pos = 0 } in
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
      let n = int_of n and m = int_of m and ecount = int_of ecount in
      (* Validate before any allocation so hostile sizes fail with the
         structured [Failure] every caller already handles. *)
      if n < 0 then fail "bad job count";
      if m < 1 then fail "bad machine count";
      if ecount < 0 then fail "bad edge count";
      (* A count the rest of the text cannot hold is still scanned, for
         the first error in reading order, but nothing is stored. *)
      let keep = fits sc ~count:ecount ~per:2 in
      let edges = ref [] in
      for _ = 1 to ecount do
        if not (next sc) then fail "truncated edge list";
        let u = token sc in
        if not (next sc) then fail "truncated edge list";
        (* [v] before [u], as the token-list parser's pair (evaluated
           right to left) did: which bad int is reported stays the same. *)
        let v = int_of (token sc) in
        let u = int_of u in
        if keep then edges := (u, v) :: !edges
      done;
      if not (next sc && token_is sc "probs") then fail "expected 'probs'";
      let cells = if fits sc ~count:n ~per:m then n * m else -1 in
      let p =
        Array.init (if cells < 0 then 0 else m) (fun _ -> Array.make n 0.)
      in
      (* Every remaining token must be a float before the count is
         checked. *)
      let count = ref 0 in
      while next sc do
        let tok = token sc in
        match float_of_string_opt tok with
        | None -> fail ("bad float " ^ tok)
        | Some x ->
            if !count < cells then p.(!count / n).(!count mod n) <- x;
            incr count
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
  let int_of tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail ("bad int " ^ tok)
  in
  let sc = { text = s; start = 0; pos = 0 } in
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
      let m = int_of m and plen = int_of plen in
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
            let v = int_of (token sc) in
            if keep then steps.(k).(i) <- v
          done
        done;
        steps
      in
      let prefix = take_steps plen in
      if not (next sc && token_is sc "cycle" && next sc) then
        fail "expected 'cycle'";
      let cycle = take_steps (int_of (token sc)) in
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
