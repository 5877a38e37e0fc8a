module Service = Suu_service.Service
module Fault = Suu_service.Fault
module Tcp = Suu_service.Tcp
module Work_queue = Suu_service.Work_queue

(* A peer is the raw line pipe to one worker: the client layer above it
   only ever needs these five operations, so subprocess workers,
   TCP-connected workers and in-process workers (a Service.serve in a
   domain, for tests and benchmarks) are interchangeable. Each client's
   reader is a thread of the caller's domain (Io_thread). *)
type peer = {
  send_line : string -> unit;
  recv_line : unit -> string option;
  kill_peer : unit -> unit;  (* abrupt loss: SIGKILL / drop the queues *)
  close_input : unit -> unit;  (* graceful EOF: worker drains and exits *)
  reap : unit -> unit;  (* after the reader saw EOF: waitpid / join *)
}

type t = {
  id : int;
  peer : peer;
  wlock : Mutex.t;
      (* serialises submit's push-callback + write pair, so the
         callback FIFO order always matches the line order on the
         pipe — the worker answers in request order, so FIFO popping
         pairs every response with its request *)
  qlock : Mutex.t;  (* guards pending / alive; never held across a
                       blocking pipe operation *)
  pending : (string option -> unit) Queue.t;
  mutable alive : bool;
  mutable reader : Io_thread.t option;
}

let id t = t.id

let alive t =
  Mutex.lock t.qlock;
  let a = t.alive in
  Mutex.unlock t.qlock;
  a

(* The reader: pops the oldest callback for each response line; on EOF
   (worker exit, kill, or torn pipe) marks the client dead and drains
   every outstanding callback with [None] exactly once. Only I/O-class
   failures are folded into EOF — Out_of_memory / Stack_overflow must
   not masquerade as worker loss. *)
let reader_loop t =
  let rec loop () =
    match
      try t.peer.recv_line ()
      with Unix.Unix_error _ | Sys_error _ | End_of_file -> None
    with
    | Some line ->
        Mutex.lock t.qlock;
        let cb = Queue.take_opt t.pending in
        Mutex.unlock t.qlock;
        (match cb with Some f -> f (Some line) | None -> ());
        loop ()
    | None ->
        Mutex.lock t.qlock;
        t.alive <- false;
        let orphans = Queue.fold (fun acc f -> f :: acc) [] t.pending in
        Queue.clear t.pending;
        Mutex.unlock t.qlock;
        List.iter (fun f -> f None) (List.rev orphans)
  in
  loop ()

let custom ~id peer =
  let t =
    {
      id;
      peer;
      wlock = Mutex.create ();
      qlock = Mutex.create ();
      pending = Queue.create ();
      alive = true;
      reader = None;
    }
  in
  t.reader <- Some (Io_thread.spawn (fun () -> reader_loop t));
  t

let submit t line cb =
  Mutex.lock t.wlock;
  Mutex.lock t.qlock;
  let admitted =
    if t.alive then begin
      Queue.push cb t.pending;
      true
    end
    else false
  in
  Mutex.unlock t.qlock;
  (* A failed write is not reported here: the reader will see EOF and
     drain this callback (with every other pending one) with [None]. *)
  if admitted then (
    try t.peer.send_line line with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.unlock t.wlock;
  admitted

let kill t =
  try t.peer.kill_peer () with Unix.Unix_error _ | Sys_error _ -> ()

let close_input t =
  try t.peer.close_input () with Unix.Unix_error _ | Sys_error _ -> ()

let join t =
  (match t.reader with
  | Some r ->
      t.reader <- None;
      Io_thread.join r
  | None -> ());
  try t.peer.reap () with Unix.Unix_error _ | Sys_error _ -> ()

(* -- subprocess workers (pipe transport) ------------------------------- *)

let process ~id ~prog ~argv =
  (* A SIGKILLed worker tears the pipe; without this, the coordinator's
     next write would die of SIGPIPE instead of raising (and being
     absorbed) as EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ((ic, oc) as ch) = Unix.open_process_args prog argv in
  let pid = Unix.process_pid ch in
  let wrote_eof = ref false in
  custom ~id
    {
      send_line =
        (fun l ->
          output_string oc l;
          output_char oc '\n';
          flush oc);
      recv_line = (fun () -> In_channel.input_line ic);
      kill_peer = (fun () -> Unix.kill pid Sys.sigkill);
      close_input =
        (fun () ->
          if not !wrote_eof then begin
            wrote_eof := true;
            close_out oc
          end);
      reap =
        (fun () ->
          if not !wrote_eof then begin
            wrote_eof := true;
            close_out_noerr oc
          end;
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid));
    }

(* -- TCP workers ------------------------------------------------------- *)

(* The connecting side of the socket transport. Unlike a pipe child,
   a TCP peer can *reconnect*: on a torn or timed-out connection the
   reader tears the old socket down, backs off (capped exponential with
   deterministic jitter, same splitmix64 discipline as every other
   delay in the system), dials again and re-sends every request line
   that has not been answered yet. Re-send is idempotent because the
   worker recomputes deterministically from the request line — the
   paper's engine seeds each trial from the request, not from worker
   state — so the answer lines come back byte-identical (modulo cache
   flags, which merge layers scrub). *)

type tcp_state = {
  pm : Mutex.t;  (* guards the fields below *)
  wm : Mutex.t;
      (* serialises all socket writes: a submit racing the reader's
         reconnect re-send must not interleave bytes on the new
         socket. Never held across a blocking read or a backoff
         sleep. Order: wm > pm. *)
  mutable conn : Tcp.conn option;
  unanswered : string Queue.t;
      (* sent but not answered, FIFO: head pairs with the next
         response line; the whole queue is replayed on reconnect *)
  mutable wrote_eof : bool;
  mutable killed : bool;
  mutable conn_epoch : int;  (* bumped per reconnect; salts jitter *)
  mutable reconnects_left : int;
}

let tcp_connect ~connect_timeout_s ~read_timeout_s addrtext =
  match Tcp.parse_addr addrtext with
  | Error e -> failwith e
  | Ok (addr, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         (* Nonblocking connect + select: a plain connect has no
            timeout and can hang on a half-dead peer. *)
         Unix.set_nonblock fd;
         (try Unix.connect fd (Unix.ADDR_INET (addr, port))
          with
         | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
           let _, w, _ = Unix.select [] [ fd ] [] connect_timeout_s in
           if w = [] then
             raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", addrtext));
           (match Unix.getsockopt_error fd with
           | None -> ()
           | Some e -> raise (Unix.Unix_error (e, "connect", addrtext))));
         Unix.clear_nonblock fd;
         if read_timeout_s > 0. then
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
         Tcp.conn_of_fd fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)

let tcp_peer ?(connect_timeout_s = 1.0) ?(read_timeout_s = 0.)
    ?(reconnects = 3) ?(backoff_ms = 5.) ?(fault = Fault.none) ?kill_pid
    ?(reap_extra = fun () -> ()) ~addr () =
  (* A write to a torn socket must raise EPIPE (absorbed by the
     reconnect policy), not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connect () = tcp_connect ~connect_timeout_s ~read_timeout_s addr in
  (* The initial dial raises on failure: a worker we never reached is a
     failed spawn, which the supervisor charges against the respawn
     budget, not the reconnect budget. *)
  let st =
    {
      pm = Mutex.create ();
      wm = Mutex.create ();
      conn = Some (connect ());
      unanswered = Queue.create ();
      wrote_eof = false;
      killed = false;
      conn_epoch = 0;
      reconnects_left = reconnects;
    }
  in
  let current_conn () =
    Mutex.lock st.pm;
    let c = st.conn in
    Mutex.unlock st.pm;
    c
  in
  let send_line l =
    Mutex.lock st.wm;
    Mutex.lock st.pm;
    Queue.push l st.unanswered;
    let c = st.conn in
    Mutex.unlock st.pm;
    (* A write into a dead socket is fine: the line is queued and will
       be replayed after the reader reconnects. *)
    (match c with
    | Some c -> (
        try Tcp.send_line c l with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    Mutex.unlock st.wm
  in
  (* Reconnect path (reader thread only). The dead socket is shut down
     but stays open — and stays in [st.conn] — until the swap under
     [wm], so a concurrent submit writes into the corpse (harmlessly)
     rather than into a recycled descriptor. *)
  let rec reconnect old =
    Tcp.shutdown_all old;
    Mutex.lock st.pm;
    let give_up =
      st.killed
      || (st.wrote_eof && Queue.is_empty st.unanswered)
      || st.reconnects_left <= 0
    in
    if give_up then begin
      Mutex.unlock st.pm;
      Mutex.lock st.wm;
      Mutex.lock st.pm;
      st.conn <- None;
      Mutex.unlock st.pm;
      Tcp.close old;
      Mutex.unlock st.wm;
      None
    end
    else begin
      st.reconnects_left <- st.reconnects_left - 1;
      st.conn_epoch <- st.conn_epoch + 1;
      let epoch = st.conn_epoch in
      let attempt = reconnects - st.reconnects_left in
      Mutex.unlock st.pm;
      (* [attempt] counts from 1: the first reconnect waits the base. *)
      Unix.sleepf
        (Fault.backoff_s fault ~base_ms:backoff_ms ~cap_ms:200.
           ~key:((epoch * 97) + attempt)
           ~attempt:(attempt - 1));
      match connect () with
      | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
          reconnect old
      | nc ->
          Mutex.lock st.wm;
          Mutex.lock st.pm;
          if st.killed then begin
            Mutex.unlock st.pm;
            Mutex.unlock st.wm;
            Tcp.close nc;
            None
          end
          else begin
            let replay = Queue.fold (fun acc l -> l :: acc) [] st.unanswered in
            st.conn <- Some nc;
            let eof = st.wrote_eof in
            Mutex.unlock st.pm;
            Tcp.close old;
            let ok =
              try
                List.iter (Tcp.send_line nc) (List.rev replay);
                if eof then Tcp.shutdown_send nc;
                true
              with Unix.Unix_error _ | Sys_error _ -> false
            in
            Mutex.unlock st.wm;
            if ok then Some nc else reconnect nc
          end
    end
  in
  let rec recv_line () =
    match current_conn () with
    | None -> None
    | Some c -> (
        match Tcp.recv_line c with
        | Some line ->
            Mutex.lock st.pm;
            if not (Queue.is_empty st.unanswered) then
              ignore (Queue.pop st.unanswered);
            (* A delivered answer is progress: the reconnect budget
               bounds *consecutive* failed cycles, so a flaky but
               functioning worker is not abandoned mid-stream. *)
            st.reconnects_left <- reconnects;
            Mutex.unlock st.pm;
            Some line
        | None -> after_drop c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            (* Read timeout. Only an *owed* answer that fails to arrive
               is a fault; an idle connection just keeps waiting. *)
            Mutex.lock st.pm;
            let idle = Queue.is_empty st.unanswered && not st.wrote_eof in
            Mutex.unlock st.pm;
            if idle then recv_line () else after_drop c
        | exception (Unix.Unix_error _ | Sys_error _) -> after_drop c)
  and after_drop c =
    Mutex.lock st.pm;
    let finished = st.killed || (st.wrote_eof && Queue.is_empty st.unanswered) in
    Mutex.unlock st.pm;
    if finished then begin
      Mutex.lock st.wm;
      Mutex.lock st.pm;
      st.conn <- None;
      Mutex.unlock st.pm;
      Tcp.close c;
      Mutex.unlock st.wm;
      None
    end
    else match reconnect c with None -> None | Some _ -> recv_line ()
  in
  let close_input () =
    Mutex.lock st.wm;
    Mutex.lock st.pm;
    st.wrote_eof <- true;
    let c = st.conn in
    Mutex.unlock st.pm;
    (match c with Some c -> Tcp.shutdown_send c | None -> ());
    Mutex.unlock st.wm
  in
  let kill_peer () =
    Mutex.lock st.pm;
    st.killed <- true;
    let c = st.conn in
    Mutex.unlock st.pm;
    (match kill_pid with
    | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    | None -> ());
    (* Wake the reader without closing: the fd stays reserved until
       reap, so nothing races a recycled descriptor. *)
    match c with Some c -> Tcp.shutdown_all c | None -> ()
  in
  let reap () =
    Mutex.lock st.pm;
    let c = st.conn in
    st.conn <- None;
    Mutex.unlock st.pm;
    (match c with Some c -> Tcp.close c | None -> ());
    (match kill_pid with
    | Some pid -> ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (pid, Unix.WEXITED 0))
    | None -> ());
    reap_extra ()
  in
  { send_line; recv_line; kill_peer; close_input; reap }

let tcp ~id ?connect_timeout_s ?read_timeout_s ?reconnects ?backoff_ms ?fault
    ~addr () =
  custom ~id
    (tcp_peer ?connect_timeout_s ?read_timeout_s ?reconnects ?backoff_ms
       ?fault ~addr ())

(* A subprocess worker reached over TCP: spawn [prog argv] (normally
   [suu serve --quiet --listen 127.0.0.1:0 …]), read its one-line
   announce "listening HOST:PORT" from its stdout, then dial. Any
   failure here kills and reaps the child and re-raises — a failed
   spawn, charged to the supervisor's respawn budget. *)
let tcp_process ~id ?connect_timeout_s ?read_timeout_s ?reconnects
    ?backoff_ms ?fault ~prog ~argv () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ((ic, oc) as ch) = Unix.open_process_args prog argv in
  let pid = Unix.process_pid ch in
  (* The worker in listen mode never reads stdin; close our end now so
     nothing holds a stray pipe open. *)
  close_out_noerr oc;
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    close_in_noerr ic;
    ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (pid, Unix.WEXITED 0));
    failwith msg
  in
  let addr =
    match In_channel.input_line ic with
    | Some line when String.length line > 10
                     && String.sub line 0 10 = "listening " ->
        String.sub line 10 (String.length line - 10)
    | Some line -> fail (Printf.sprintf "tcp worker: bad announce %S" line)
    | None -> fail "tcp worker: exited before announcing its address"
    | exception Sys_error e -> fail ("tcp worker: announce read failed: " ^ e)
  in
  match
    tcp_peer ?connect_timeout_s ?read_timeout_s ?reconnects ?backoff_ms
      ?fault ~kill_pid:pid ~reap_extra:(fun () -> close_in_noerr ic) ~addr ()
  with
  | peer -> custom ~id peer
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      fail "tcp worker: connect to announced address failed"

(* -- in-process workers ------------------------------------------------ *)

(* Two unbounded line queues: closing one lets its reader drain what is
   queued; wrecking it also drops that (abrupt loss). *)
let local ~id cfg =
  let chan () = Work_queue.create ~capacity:max_int () in
  let inq = chan () and outq = chan () in
  let push q l = ignore (Work_queue.push q l) in
  let svc =
    Domain.spawn (fun () ->
        let transport =
          (module struct
            let recv () = Work_queue.pop inq
            let send l = push outq l
          end : Service.TRANSPORT)
        in
        (try ignore (Service.serve cfg transport) with _ -> ());
        Work_queue.close outq)
  in
  let joined = ref false in
  custom ~id
    {
      send_line = push inq;
      recv_line = (fun () -> Work_queue.pop outq);
      kill_peer =
        (fun () ->
          Work_queue.wreck inq;
          Work_queue.wreck outq);
      close_input = (fun () -> Work_queue.close inq);
      reap =
        (fun () ->
          if not !joined then begin
            joined := true;
            Domain.join svc
          end);
    }
