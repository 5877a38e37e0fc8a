module Service = Suu_service.Service
module Work_queue = Suu_service.Work_queue

(* A peer is the raw line pipe to one worker: the client layer above it
   only ever needs these five operations, so subprocess workers and
   in-process workers (a Service.serve in a domain, for tests and
   benchmarks) are interchangeable. Each client's reader is a thread of
   the caller's domain (Io_thread). *)
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
