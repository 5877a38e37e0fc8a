type site =
  | Crash
  | Transient
  | Stall
  | Slow
  | Truncate
  | Queue_delay
  | Kill
  | Refuse
  | Tear
  | Sock_stall

type spec = {
  seed : int;
  crash : float;
  transient : float;
  stall : float;
  stall_ms : float;
  slow : float;
  slow_ms : float;
  truncate : float;
  queue_delay : float;
  queue_ms : float;
  kill : float;
  refuse : float;
  tear : float;
  sock_stall : float;
  sock_stall_ms : float;
}

let none =
  {
    seed = 1;
    crash = 0.;
    transient = 0.;
    stall = 0.;
    stall_ms = 10.;
    slow = 0.;
    slow_ms = 5.;
    truncate = 0.;
    queue_delay = 0.;
    queue_ms = 2.;
    kill = 0.;
    refuse = 0.;
    tear = 0.;
    sock_stall = 0.;
    sock_stall_ms = 20.;
  }

let is_none s =
  s.crash = 0. && s.transient = 0. && s.stall = 0. && s.slow = 0.
  && s.truncate = 0. && s.queue_delay = 0. && s.kill = 0. && s.refuse = 0.
  && s.tear = 0. && s.sock_stall = 0.

exception Injected_crash
exception Transient_failure of string

(* Injected exceptions end up in wire-visible error messages; keep them
   readable rather than module-qualified constructor dumps. *)
let () =
  Printexc.register_printer (function
    | Injected_crash -> Some "injected crash"
    | Transient_failure msg -> Some ("transient failure: " ^ msg)
    | _ -> None)

(* --- deterministic decisions ---

   splitmix64's finalizer: full 64-bit avalanche, so consecutive keys
   (request sequence numbers, line numbers) draw independent-looking
   faults from any seed. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let site_salt = function
  | Crash -> 0x1
  | Transient -> 0x2
  | Stall -> 0x3
  | Slow -> 0x4
  | Truncate -> 0x5
  | Queue_delay -> 0x6
  | Kill -> 0x8
  | Refuse -> 0x9
  | Tear -> 0xA
  | Sock_stall -> 0xB

(* Uniform in [0,1): top 53 bits of a double avalanche over
   (seed, site, key). *)
let unit_float seed salt key =
  let h =
    mix64
      (Int64.logxor
         (mix64 (Int64.of_int ((seed * 0x2545F491) + salt)))
         (Int64.of_int key))
  in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let rate spec = function
  | Crash -> spec.crash
  | Transient -> spec.transient
  | Stall -> spec.stall
  | Slow -> spec.slow
  | Truncate -> spec.truncate
  | Queue_delay -> spec.queue_delay
  | Kill -> spec.kill
  | Refuse -> spec.refuse
  | Tear -> spec.tear
  | Sock_stall -> spec.sock_stall

let fires spec site ~key =
  let r = rate spec site in
  r > 0. && unit_float spec.seed (site_salt site) key < r

let attempt_key ~seq ~attempt = (seq * 0x3D) + attempt
let jitter spec ~key = unit_float spec.seed 0x7ea1 key

let backoff_s spec ~base_ms ~cap_ms ~key ~attempt =
  let capped = Float.min (base_ms *. (2. ** float_of_int attempt)) cap_ms in
  capped *. (0.5 +. jitter spec ~key) /. 1000.

(* --- spec strings --- *)

let of_string ?(default_seed = 1) text =
  let parse_field acc kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "fault-spec: expected key=value in %S" kv)
    | Some i -> (
        let k = String.trim (String.sub kv 0 i) in
        let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        let num () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "fault-spec: %s: bad number %S" k v)
        in
        let prob () =
          Result.bind (num ()) (fun f ->
              if f < 0. || f > 1. then
                Error (Printf.sprintf "fault-spec: %s: rate %g not in [0,1]" k f)
              else Ok f)
        in
        let dur () =
          Result.bind (num ()) (fun f ->
              if f < 0. then
                Error (Printf.sprintf "fault-spec: %s: negative duration" k)
              else Ok f)
        in
        Result.bind acc (fun s ->
            match k with
            | "seed" -> (
                match int_of_string_opt v with
                | Some seed -> Ok { s with seed }
                | None ->
                    Error (Printf.sprintf "fault-spec: seed: bad integer %S" v))
            | "crash" -> Result.map (fun crash -> { s with crash }) (prob ())
            | "transient" ->
                Result.map (fun transient -> { s with transient }) (prob ())
            | "stall" -> Result.map (fun stall -> { s with stall }) (prob ())
            | "stall_ms" ->
                Result.map (fun stall_ms -> { s with stall_ms }) (dur ())
            | "slow" -> Result.map (fun slow -> { s with slow }) (prob ())
            | "slow_ms" ->
                Result.map (fun slow_ms -> { s with slow_ms }) (dur ())
            | "truncate" ->
                Result.map (fun truncate -> { s with truncate }) (prob ())
            | "queue_delay" ->
                Result.map
                  (fun queue_delay -> { s with queue_delay })
                  (prob ())
            | "queue_ms" ->
                Result.map (fun queue_ms -> { s with queue_ms }) (dur ())
            | "kill" -> Result.map (fun kill -> { s with kill }) (prob ())
            | "refuse" -> Result.map (fun refuse -> { s with refuse }) (prob ())
            | "tear" -> Result.map (fun tear -> { s with tear }) (prob ())
            | "sock_stall" ->
                Result.map (fun sock_stall -> { s with sock_stall }) (prob ())
            | "sock_stall_ms" ->
                Result.map (fun sock_stall_ms -> { s with sock_stall_ms }) (dur ())
            | _ -> Error (Printf.sprintf "fault-spec: unknown key %S" k)))
  in
  let fields =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left parse_field (Ok { none with seed = default_seed }) fields

let to_string s =
  let b = Buffer.create 64 in
  let add k v =
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  add "seed" (string_of_int s.seed);
  let rate k v = if v > 0. then add k (Printf.sprintf "%g" v) in
  let dur k v = add k (Printf.sprintf "%g" v) in
  rate "crash" s.crash;
  rate "transient" s.transient;
  rate "stall" s.stall;
  if s.stall > 0. then dur "stall_ms" s.stall_ms;
  rate "slow" s.slow;
  if s.slow > 0. then dur "slow_ms" s.slow_ms;
  rate "truncate" s.truncate;
  rate "queue_delay" s.queue_delay;
  if s.queue_delay > 0. then dur "queue_ms" s.queue_ms;
  rate "kill" s.kill;
  rate "refuse" s.refuse;
  rate "tear" s.tear;
  rate "sock_stall" s.sock_stall;
  if s.sock_stall > 0. then dur "sock_stall_ms" s.sock_stall_ms;
  Buffer.contents b
