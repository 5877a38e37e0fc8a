(* Hashtbl + doubly-linked recency list; the list head is most recent.
   All mutation happens under [lock]. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards the head (more recent) *)
  mutable next : 'v node option;  (* towards the tail (less recent) *)
}

type 'v t = {
  cap : int;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  lock : Mutex.t;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: capacity < 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    lock = Mutex.create ();
  }

let with_lock c f = Mutex.protect c.lock f

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  node.prev <- None;
  (match c.head with Some h -> h.prev <- Some node | None -> ());
  c.head <- Some node;
  if c.tail = None then c.tail <- Some node

let find c key =
  with_lock c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some node ->
          c.hits <- c.hits + 1;
          unlink c node;
          push_front c node;
          Some node.value
      | None ->
          c.misses <- c.misses + 1;
          None)

let add c key value =
  if c.cap > 0 then
    with_lock c (fun () ->
        (match Hashtbl.find_opt c.table key with
        | Some node ->
            node.value <- value;
            unlink c node;
            push_front c node
        | None ->
            if Hashtbl.length c.table >= c.cap then (
              match c.tail with
              | Some lru ->
                  unlink c lru;
                  Hashtbl.remove c.table lru.key
              | None -> ());
            let node = { key; value; prev = None; next = None } in
            Hashtbl.replace c.table key node;
            push_front c node);
        ())

let length c = with_lock c (fun () -> Hashtbl.length c.table)
let capacity c = c.cap
let hits c = with_lock c (fun () -> c.hits)
let misses c = with_lock c (fun () -> c.misses)
