(* The load generator's side of the pipe: spawn a server, talk line JSON
   to it, keep a fixed number of requests outstanding, read its counters
   and its memory from outside. *)

module Json = Suu_service.Json

let now_ms = Suu_obs.Clock.now_ms

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type server = {
  pid : int;
  input : Unix.file_descr;  (** the server's stdin *)
  output : Unix.file_descr;  (** the server's stdout *)
  pending : Buffer.t;  (** bytes read past the last returned line *)
  chunk : Bytes.t;
}

let spawn exe args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  {
    pid;
    input = in_w;
    output = out_r;
    pending = Buffer.create 4096;
    chunk = Bytes.create 65536;
  }

let send s line =
  let data = Bytes.unsafe_of_string (line ^ "\n") in
  let len = Bytes.length data in
  let rec go off =
    if off < len then go (off + Unix.write s.input data off (len - off))
  in
  try go 0
  with Unix.Unix_error (e, _, _) ->
    failf "writing to the server: %s" (Unix.error_message e)

(* One response line; a server that says nothing for [timeout_s] is
   declared hung. *)
let recv ?(timeout_s = 60.) s =
  let rec go () =
    let b = Buffer.contents s.pending in
    match String.index_opt b '\n' with
    | Some k ->
        Buffer.clear s.pending;
        Buffer.add_substring s.pending b (k + 1) (String.length b - k - 1);
        String.sub b 0 k
    | None -> (
        match Unix.select [ s.output ] [] [] timeout_s with
        | [], _, _ -> failf "no answer from the server within %.0f s" timeout_s
        | _ ->
            let k = Unix.read s.output s.chunk 0 (Bytes.length s.chunk) in
            if k = 0 then failf "the server closed its output";
            Buffer.add_subbytes s.pending s.chunk 0 k;
            go ())
  in
  go ()

let request s line =
  send s line;
  recv s

let json_of line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> failf "unparseable answer (%s): %s" e line

let status line =
  match Json.member "status" (json_of line) with
  | Some (Json.Str st) -> st
  | _ -> "?"

(* Close the server's input, let it drain and exit; kill it if it does
   not within [grace_s]. Always reaps the process. *)
let stop ?(grace_s = 30.) s =
  (try Unix.close s.input with Unix.Unix_error _ -> ());
  let deadline = now_ms () +. (grace_s *. 1000.) in
  let rec drain () =
    let left = (deadline -. now_ms ()) /. 1000. in
    if left > 0. then
      match Unix.select [ s.output ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read s.output s.chunk 0 (Bytes.length s.chunk) with
          | 0 -> ()
          | _ -> drain ()
          | exception Unix.Unix_error _ -> ())
  in
  drain ();
  (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  try Unix.close s.output with Unix.Unix_error _ -> ()

let ping_line = {|{"op":"ping","id":"bench-ping"}|}
let stats_line = {|{"op":"stats","id":"bench-stats","format":"raw"}|}

let stats s =
  let line = request s stats_line in
  if status line <> "ok" then failf "stats request failed: %s" line;
  json_of line

(* Set-up: spawn to the first answered [ping] and raw [stats]. The
   coordinator answers [ping] itself but pulls [stats] from every shard,
   so for it the time also covers its shards coming up. *)
let start exe args =
  let t0 = now_ms () in
  let s = spawn exe args in
  match
    let pong = request s ping_line in
    if status pong <> "ok" then failf "ping failed: %s" pong;
    stats s
  with
  | st -> (s, (now_ms () -. t0) /. 1000., st)
  | exception e ->
      stop ~grace_s:1. s;
      raise e

(* --- closed loop --- *)

type loop = {
  answers : string array;  (** in request order *)
  sent_ms : float array;  (** when each line was written *)
  answered_ms : float array;  (** when its answer was read *)
}

(* Keep [window] requests outstanding for [seconds]; then stop sending
   and read what is still in flight. The server answers in request
   order, so the k-th answer belongs to the k-th line. *)
let closed_loop s ~window ~seconds ~line =
  let sent_at = ref (Array.make 1024 0.) in
  let answers = ref (Array.make 1024 "") in
  let grow a fill =
    let b = Array.make (2 * Array.length !a) fill in
    Array.blit !a 0 b 0 (Array.length !a);
    a := b
  in
  let sent = ref 0 and got = ref 0 in
  let push () =
    let l = line !sent in
    if !sent = Array.length !sent_at then grow sent_at 0.;
    !sent_at.(!sent) <- now_ms ();
    send s l;
    incr sent
  in
  let stop_at = now_ms () +. (seconds *. 1000.) in
  let answered_at = ref (Array.make 1024 0.) in
  for _ = 1 to window do
    push ()
  done;
  while !got < !sent do
    let a = recv s in
    let t = now_ms () in
    if !got = Array.length !answers then begin
      grow answers "";
      grow answered_at 0.
    end;
    !answers.(!got) <- a;
    !answered_at.(!got) <- t;
    incr got;
    if t < stop_at then push ()
  done;
  {
    answers = Array.sub !answers 0 !got;
    sent_ms = Array.sub !sent_at 0 !got;
    answered_ms = Array.sub !answered_at 0 !got;
  }

let latencies l = Array.mapi (fun i t -> t -. l.sent_ms.(i)) l.answered_ms

(* --- reading the program from outside --- *)

let int_at path j =
  let v =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  in
  Option.value (Option.bind v Json.to_int) ~default:0

(* Counter [path] of the end-of-run stats minus the start-of-run one. *)
let delta ~before ~after path = int_at path after - int_at path before

(* The service's own admission-to-emission histogram over the run: the
   raw stats carry bucket counts, so the run's share is the bucket-wise
   difference of the two snapshots. *)
let latency_hist j =
  match Json.member "latency_hist" j with
  | None -> None
  | Some h ->
      let num k = Option.bind (Json.member k h) Json.to_num in
      let counts =
        match Json.member "counts" h with
        | Some (Json.List l) ->
            List.filter_map
              (function
                | Json.List [ k; c ] -> (
                    match (Json.to_int k, Json.to_int c) with
                    | Some k, Some c -> Some (k, c)
                    | _ -> None)
                | _ -> None)
              l
        | _ -> []
      in
      Option.map (fun lo -> (lo, num "growth", num "buckets", counts)) (num "lo")

let service_p50_ms ~before ~after =
  match latency_hist after with
  | Some (lo, Some growth, Some buckets, counts) ->
      let prior =
        match latency_hist before with Some (_, _, _, c) -> c | None -> []
      in
      let occupied =
        List.filter_map
          (fun (k, c) ->
            let c = c - Option.value (List.assoc_opt k prior) ~default:0 in
            if c > 0 then Some (k, c) else None)
          counts
      in
      if occupied = [] then 0.
      else
        let h =
          Suu_obs.Histogram.import
            {
              Suu_obs.Histogram.layout_lo = lo;
              layout_growth = growth;
              layout_buckets = int_of_float buckets;
              occupied;
              total_sum = 0.;
              observed_min = 0.;
              observed_max = infinity;
            }
        in
        Suu_obs.Histogram.quantile h 0.5
  | _ -> 0.

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some text ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' text)

let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some p -> (
             match read_file (Printf.sprintf "/proc/%d/stat" p) with
             | None -> None
             | Some st -> (
                 (* "pid (comm) state ppid ...": comm may hold spaces. *)
                 match String.rindex_opt st ')' with
                 | None -> None
                 | Some k -> (
                     match
                       String.split_on_char ' '
                         (String.sub st (k + 2) (String.length st - k - 2))
                     with
                     | _ :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                         Some p
                     | _ -> None))))

(* Peak resident memory of the server and its shard children, in MB. *)
let peak_rss_mb s =
  let pids = s.pid :: children s.pid in
  float_of_int (List.fold_left (fun acc p -> acc + vm_hwm_kb p) 0 pids)
  /. 1024.
