type t = {
  thread : Thread.t;
  escaped : (exn * Printexc.raw_backtrace) option ref;
}

(* The new thread is born with SIGINT and SIGTERM blocked: the kernel
   then delivers a stop signal to a thread that takes it, and the
   runtime runs its OCaml handler only on such a thread — in the CLI,
   the one blocked reading requests, which the handler must interrupt. *)
let spawn f =
  let escaped = ref None in
  let run () =
    try f () with e -> escaped := Some (e, Printexc.get_raw_backtrace ())
  in
  let mask = Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ] in
  let thread =
    Fun.protect
      ~finally:(fun () -> ignore (Thread.sigmask Unix.SIG_SETMASK mask))
      (fun () -> Thread.create run ())
  in
  { thread; escaped }

let join t =
  Thread.join t.thread;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !(t.escaped)
