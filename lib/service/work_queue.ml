type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  buf : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable hwm : int;
  on_pop : unit -> unit;
}

let create ?(on_pop = fun () -> ()) ~capacity () =
  if capacity < 1 then invalid_arg "Work_queue.create: capacity < 1";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    buf = Queue.create ();
    capacity;
    closed = false;
    hwm = 0;
    on_pop;
  }

let with_lock q f = Mutex.protect q.lock f

let push q x =
  with_lock q (fun () ->
      if q.closed || Queue.length q.buf >= q.capacity then false
      else begin
        Queue.push x q.buf;
        if Queue.length q.buf > q.hwm then q.hwm <- Queue.length q.buf;
        Condition.signal q.nonempty;
        true
      end)

let pop q =
  (* Outside the lock: a chaos hook that sleeps (a slow consumer) must
     not stall the producers or the other consumers. *)
  q.on_pop ();
  with_lock q (fun () ->
      let rec wait () =
        if not (Queue.is_empty q.buf) then Some (Queue.pop q.buf)
        else if q.closed then None
        else begin
          Condition.wait q.nonempty q.lock;
          wait ()
        end
      in
      wait ())

let close q =
  with_lock q (fun () ->
      q.closed <- true;
      Condition.broadcast q.nonempty)

let wreck q =
  with_lock q (fun () ->
      q.closed <- true;
      Queue.clear q.buf;
      Condition.broadcast q.nonempty)

let length q = with_lock q (fun () -> Queue.length q.buf)
let high_water_mark q = with_lock q (fun () -> q.hwm)
