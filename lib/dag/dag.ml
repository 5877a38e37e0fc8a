type t = {
  n : int;
  succs : int list array; (* sorted ascending *)
  preds : int list array; (* sorted ascending *)
  edge_count : int;
  topo : int array; (* cached topological order *)
}

let n t = t.n
let edge_count t = t.edge_count
let succs t u = t.succs.(u)
let preds t u = t.preds.(u)
let out_degree t u = List.length t.succs.(u)
let in_degree t u = List.length t.preds.(u)
let has_edge t u v = List.mem v t.succs.(u)

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) (List.rev t.succs.(u))
  done;
  !acc

(* Kahn's algorithm, smallest ready vertex first, so the order is
   deterministic. The ready set is a binary min-heap in one array of
   size [n]: no allocation per step. *)
let kahn_topo n succs preds =
  let indeg = Array.map List.length preds in
  let heap = Array.make n 0 and size = ref 0 in
  let rec sift_up i v =
    let parent = (i - 1) / 2 in
    if i > 0 && heap.(parent) > v then begin
      heap.(i) <- heap.(parent);
      sift_up parent v
    end
    else heap.(i) <- v
  in
  let rec sift_down i v =
    let l = (2 * i) + 1 in
    let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
    if c < !size && heap.(c) < v then begin
      heap.(i) <- heap.(c);
      sift_down c v
    end
    else heap.(i) <- v
  in
  let push v =
    incr size;
    sift_up (!size - 1) v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    sift_down 0 heap.(!size);
    top
  in
  let rec release = function
    | [] -> ()
    | v :: rest ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then push v;
        release rest
  in
  Array.iteri (fun v d -> if d = 0 then push v) indeg;
  let order = Array.make n 0 in
  let k = ref 0 in
  while !size > 0 do
    let u = pop () in
    order.(!k) <- u;
    incr k;
    release succs.(u)
  done;
  if !k < n then invalid_arg "Dag.create: graph contains a cycle";
  order

let create ~n:nv edge_list =
  if nv < 0 then invalid_arg "Dag.create: negative vertex count";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= nv || v < 0 || v >= nv then
        invalid_arg "Dag.create: vertex out of range";
      if u = v then invalid_arg "Dag.create: self-loop")
    edge_list;
  let succs = Array.make nv [] in
  let preds = Array.make nv [] in
  let seen = Hashtbl.create (List.length edge_list) in
  let count = ref 0 in
  List.iter
    (fun (u, v) ->
      if not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.add seen (u, v) ();
        succs.(u) <- v :: succs.(u);
        preds.(v) <- u :: preds.(v);
        incr count
      end)
    edge_list;
  (* [List.sort] allocates its merge closures even on a short list. *)
  let sort = function ([] | [ _ ]) as l -> l | l -> List.sort compare l in
  Array.iteri (fun i l -> succs.(i) <- sort l) succs;
  Array.iteri (fun i l -> preds.(i) <- sort l) preds;
  let topo = kahn_topo nv succs preds in
  { n = nv; succs; preds; edge_count = !count; topo }

let empty nv = create ~n:nv []

let topo_order t = Array.copy t.topo

let sources t =
  List.filter (fun v -> t.preds.(v) = []) (List.init t.n (fun i -> i))

let sinks t =
  List.filter (fun v -> t.succs.(v) = []) (List.init t.n (fun i -> i))

let depths t =
  let depth = Array.make t.n 1 in
  Array.iter
    (fun u ->
      List.iter
        (fun v -> if depth.(u) + 1 > depth.(v) then depth.(v) <- depth.(u) + 1)
        t.succs.(u))
    t.topo;
  depth

let longest_path t =
  if t.n = 0 then 0 else Array.fold_left max 1 (depths t)

let levels t =
  if t.n = 0 then []
  else begin
    let depth = depths t in
    let max_depth = Array.fold_left max 1 depth in
    let buckets = Array.make max_depth [] in
    for v = t.n - 1 downto 0 do
      buckets.(depth.(v) - 1) <- v :: buckets.(depth.(v) - 1)
    done;
    Array.to_list buckets
  end

let reachable t =
  let r = Array.make_matrix t.n t.n false in
  (* Process in reverse topological order so each vertex's row can absorb
     its successors' completed rows. *)
  for k = t.n - 1 downto 0 do
    let u = t.topo.(k) in
    List.iter
      (fun v ->
        r.(u).(v) <- true;
        for w = 0 to t.n - 1 do
          if r.(v).(w) then r.(u).(w) <- true
        done)
      t.succs.(u)
  done;
  r

let width t =
  if t.n = 0 then 0
  else begin
    (* Dilworth: max antichain = n - max matching in the bipartite graph of
       the strict reachability relation. *)
    let r = reachable t in
    let adj =
      Array.init t.n (fun u ->
          let rec collect v acc =
            if v < 0 then acc
            else collect (v - 1) (if r.(u).(v) then v :: acc else acc)
          in
          collect (t.n - 1) [])
    in
    let mate = Suu_flow.Matching.max_matching ~left:t.n ~right:t.n ~adj in
    t.n - Suu_flow.Matching.size mate
  end

let descendant_counts t =
  let ds = Array.make t.n 0 in
  for k = t.n - 1 downto 0 do
    let u = t.topo.(k) in
    ds.(u) <- 1 + List.fold_left (fun acc v -> acc + ds.(v)) 0 t.succs.(u)
  done;
  ds

let ancestor_counts t =
  let asc = Array.make t.n 0 in
  Array.iter
    (fun u ->
      asc.(u) <- 1 + List.fold_left (fun acc v -> acc + asc.(v)) 0 t.preds.(u))
    t.topo;
  asc

let underlying_forest t =
  (* A graph on n vertices with c undirected components is a forest iff it
     has exactly n - c edges (no parallel edges in either direction). *)
  let parent = Array.init t.n (fun i -> i) in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let acyclic = ref true in
  List.iter
    (fun (u, v) ->
      if has_edge t v u then acyclic := false (* antiparallel pair = 2-cycle undirected *)
      else begin
        let ru = find u and rv = find v in
        if ru = rv then acyclic := false else parent.(ru) <- rv
      end)
    (edges t);
  !acyclic

let pp fmt t =
  Format.fprintf fmt "@[<v>dag n=%d edges=%d" t.n t.edge_count;
  List.iter (fun (u, v) -> Format.fprintf fmt "@,%d -> %d" u v) (edges t);
  Format.fprintf fmt "@]"
