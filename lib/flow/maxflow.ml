(* Dinic's algorithm over a residual-edge representation: edge 2k is a
   forward edge and edge 2k+1 its residual twin, so the twin of edge [e] is
   [e lxor 1]. *)

type t = {
  n : int;
  mutable edge_count : int;
  mutable dst : int array; (* head vertex of each residual edge *)
  mutable cap : int array; (* remaining capacity of each residual edge *)
  mutable orig_cap : int array; (* capacity at creation (0 for twins) *)
  adj : int list array; (* vertex -> residual edge ids, in reverse order *)
  mutable adj_arr : int array array option; (* frozen adjacency for solving *)
}

type edge = int

let create n =
  {
    n;
    edge_count = 0;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    orig_cap = Array.make 16 0;
    adj = Array.make n [];
    adj_arr = None;
  }

let ensure_capacity t needed =
  let len = Array.length t.dst in
  if needed > len then begin
    let len' = max needed (2 * len) in
    let grow a = Array.append a (Array.make (len' - len) 0) in
    t.dst <- grow t.dst;
    t.cap <- grow t.cap;
    t.orig_cap <- grow t.orig_cap
  end

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  let e = t.edge_count in
  ensure_capacity t (e + 2);
  t.dst.(e) <- dst;
  t.cap.(e) <- cap;
  t.orig_cap.(e) <- cap;
  t.dst.(e + 1) <- src;
  t.cap.(e + 1) <- 0;
  t.orig_cap.(e + 1) <- 0;
  t.adj.(src) <- e :: t.adj.(src);
  t.adj.(dst) <- (e + 1) :: t.adj.(dst);
  t.edge_count <- e + 2;
  t.adj_arr <- None;
  e

let adjacency t =
  match t.adj_arr with
  | Some a -> a
  | None ->
      let a = Array.map Array.of_list t.adj in
      t.adj_arr <- Some a;
      a

(* BFS from the source over residual edges; fills [level] and reports
   whether the sink is reachable. *)
let bfs t adj level ~source ~sink =
  Array.fill level 0 t.n (-1);
  level.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  let reached = ref false in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun e ->
        let v = t.dst.(e) in
        if t.cap.(e) > 0 && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          if v = sink then reached := true;
          Queue.add v queue
        end)
      adj.(u)
  done;
  !reached

(* DFS augmentation along level-increasing residual edges, with the usual
   current-arc optimisation via [iter]. *)
let rec dfs t adj level iter u sink pushed =
  if u = sink then pushed
  else begin
    let result = ref 0 in
    while !result = 0 && iter.(u) < Array.length adj.(u) do
      let e = adj.(u).(iter.(u)) in
      let v = t.dst.(e) in
      if t.cap.(e) > 0 && level.(v) = level.(u) + 1 then begin
        let d = dfs t adj level iter v sink (min pushed t.cap.(e)) in
        if d > 0 then begin
          t.cap.(e) <- t.cap.(e) - d;
          t.cap.(e lxor 1) <- t.cap.(e lxor 1) + d;
          result := d
        end
        else iter.(u) <- iter.(u) + 1
      end
      else iter.(u) <- iter.(u) + 1
    done;
    !result
  end

let max_flow t ~source ~sink =
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg "Maxflow.max_flow: vertex out of range";
  if source = sink then invalid_arg "Maxflow.max_flow: source equals sink";
  let adj = adjacency t in
  let level = Array.make t.n (-1) in
  let total = ref 0 in
  while bfs t adj level ~source ~sink do
    let iter = Array.make t.n 0 in
    let continue = ref true in
    while !continue do
      let d = dfs t adj level iter source sink max_int in
      if d = 0 then continue := false else total := !total + d
    done
  done;
  !total

let flow t e =
  if e < 0 || e >= t.edge_count || e land 1 = 1 then
    invalid_arg "Maxflow.flow: not a forward edge";
  t.orig_cap.(e) - t.cap.(e)

let capacity t e =
  if e < 0 || e >= t.edge_count || e land 1 = 1 then
    invalid_arg "Maxflow.capacity: not a forward edge";
  t.orig_cap.(e)

let min_cut_side t ~source =
  let adj = adjacency t in
  let seen = Array.make t.n false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun e ->
        let v = t.dst.(e) in
        if t.cap.(e) > 0 && not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      adj.(u)
  done;
  seen
