(* Dependence graph of a basic block.

   Nodes are the block's instructions; there is an edge j -> i (i depends on
   j) when

   - data: instruction i uses the value defined by j, or
   - memory: i and j access may-aliasing memory and at least one is a store
     (the earlier one is the dependency of the later one).

   Straight-line semantics is preserved by any topological order of this
   graph, which is what makes both bundle-schedulability checking and
   post-vectorization rescheduling sound.

   Built over a per-block [Arena]: positions and may-alias queries are
   array reads and int compares off the arena's precomputed address table,
   and reachability is one flat byte matrix instead of an array of
   arrays. *)

open Lslp_ir

type t = {
  arena : Arena.t;
  preds : int list array;   (* direct dependencies (positions) *)
  n : int;
  reach : Bytes.t;          (* reach[i*n+j]: i transitively depends on j *)
}

let direct_preds (arena : Arena.t) =
  let n = Arena.size arena in
  let preds = Array.make n [] in
  (* data dependencies — position-independent, so that rescheduling can
     repair blocks that temporarily contain a def after its use *)
  for i = 0 to n - 1 do
    List.iter
      (fun v ->
        match Instr.value_id v with
        | Some id ->
          let j = Arena.idx_of_id arena id in
          if j >= 0 && j <> i then preds.(i) <- j :: preds.(i)
        | None -> ())
      (Instr.operands (Arena.instr arena i))
  done;
  (* memory dependencies: store/store and store/load pairs that may alias,
     earlier access before later *)
  let mems = ref [] in
  for i = n - 1 downto 0 do
    if Arena.is_memory arena i then mems := i :: !mems
  done;
  let mems = !mems in
  List.iter
    (fun i ->
      let store_i = Instr.is_store (Arena.instr arena i) in
      List.iter
        (fun j ->
          if
            j < i
            && (store_i || Instr.is_store (Arena.instr arena j))
            && Arena.may_alias arena i j
          then preds.(i) <- j :: preds.(i))
        mems)
    mems;
  preds

let build (arena : Arena.t) =
  let n = Arena.size arena in
  let preds = direct_preds arena in
  (* transitive closure by memoized DFS (data edges may point forward in
     position, so a positional sweep is not enough) *)
  let reach = Bytes.make (n * n) '\000' in
  let visited = Bytes.make (max n 1) '\000' in
  let rec close i =
    if Bytes.unsafe_get visited i = '\000' then begin
      Bytes.unsafe_set visited i '\001';
      List.iter
        (fun j ->
          Bytes.unsafe_set reach ((i * n) + j) '\001';
          close j;
          let ri = i * n and rj = j * n in
          for k = 0 to n - 1 do
            if Bytes.unsafe_get reach (rj + k) <> '\000' then
              Bytes.unsafe_set reach (ri + k) '\001'
          done)
        preds.(i)
    end
  in
  for i = 0 to n - 1 do
    close i
  done;
  { arena; preds; n; reach }

let mem t (i : Instr.t) = Arena.mem t.arena i

let position t (i : Instr.t) =
  match Arena.idx t.arena i with
  | -1 -> invalid_arg "Depgraph: instruction not in block"
  | p -> p

let reaches t i j = Bytes.unsafe_get t.reach ((i * t.n) + j) <> '\000'

let depends t a ~on = reaches t (position t a) (position t on)

let independent t insts =
  let ps = List.map (position t) insts in
  List.for_all
    (fun p -> List.for_all (fun q -> p = q || not (reaches t p q)) ps)
    ps

(* Acyclicity after contracting each group to a single node: the real
   schedulability criterion for a whole SLP graph.  Groups must be disjoint
   lists of block instructions.  Group ids live in [0, 2n): the first are
   the caller's groups, instructions left alone keep singleton ids, so
   plain int arrays index everything — no hashed adjacency. *)
let schedulable_groups t groups =
  let n = t.n in
  let group_of = Array.init n (fun i -> i + n) (* singleton ids *) in
  List.iteri
    (fun gid members ->
      List.iter (fun m -> group_of.(position t m) <- gid) members)
    groups;
  let id_count = 2 * n in
  let adj = Array.make (max id_count 1) [] in
  let add_edge src dst =
    if src <> dst && not (List.mem src adj.(dst)) then
      adj.(dst) <- src :: adj.(dst)
  in
  for i = 0 to n - 1 do
    List.iter (fun j -> add_edge group_of.(j) group_of.(i)) t.preds.(i)
  done;
  (* cycle detection over the condensed graph: 0 unseen, 1 visiting, 2 done *)
  let state = Array.make (max id_count 1) 0 in
  let rec acyclic_from node =
    match state.(node) with
    | 1 -> false
    | 2 -> true
    | _ ->
      state.(node) <- 1;
      let ok = List.for_all acyclic_from adj.(node) in
      state.(node) <- 2;
      ok
  in
  let rec all_ok i = i >= n || (acyclic_from group_of.(i) && all_ok (i + 1)) in
  all_ok 0
