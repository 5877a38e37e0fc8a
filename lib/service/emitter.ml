type t = {
  lock : Mutex.t;
  pending : (int, unit -> string) Hashtbl.t;
  mutable next_seq : int;
  send_line : string -> unit;
}

let create send_line =
  { lock = Mutex.create (); pending = Hashtbl.create 16; next_seq = 0; send_line }

let emit_lazy em seq make_line =
  Mutex.protect em.lock @@ fun () ->
  if seq >= em.next_seq then begin
    Hashtbl.replace em.pending seq make_line;
    let rec flush () =
      match Hashtbl.find_opt em.pending em.next_seq with
      | Some make ->
          Hashtbl.remove em.pending em.next_seq;
          em.send_line (make ());
          em.next_seq <- em.next_seq + 1;
          flush ()
      | None -> ()
    in
    flush ()
  end

let emit em seq line = emit_lazy em seq (fun () -> line)
