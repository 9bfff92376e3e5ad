(* Vector code generation (paper §2.2 steps 6-7).

   Replaces each vectorizable bundle with one wide instruction, emits
   gathers (buildvec/splat) for non-vectorizable operand columns and
   extracts for vectorized values that still have scalar users, and removes
   the replaced scalars.

   Scheduling: rather than reasoning about a single insertion point, the
   whole block is rebuilt.  Each graph node (group or whole multi-node) is a
   *unit*; every remaining scalar instruction is a singleton unit; unit
   dependences are induced from the instruction-level dependence graph (data
   + memory).  A stable topological order of the units is a valid schedule
   of the transformed block — and if the contraction is cyclic the bundles
   were not schedulable together, so we abort before mutating anything. *)

open Lslp_ir
open Lslp_analysis

type outcome = Vectorized | Not_schedulable | Failed of string

(* A malformed graph (bad node shapes, dangling references, ill-typed
   columns) is a *caller* bug from codegen's point of view, but one the
   pipeline must survive: emission may already have rewritten scalar
   operands when the problem surfaces, so the error is typed, caught at the
   [run] boundary, and surfaced as [Failed] for the transactional driver to
   roll back.  Genuine internal invariants (states excluded by
   [Bundle.classify] or by unit construction) stay as [invalid_arg]. *)
exception Error of string

let error fmt = Fmt.kstr (fun msg -> raise (Error msg)) fmt

(* A horizontal reduction being vectorized alongside the graph: the scalar
   chain [red_chain] (root included) is replaced by element-wise combines of
   the W-wide leaf chunks, one [Reduce], and a scalar fold of the leftover
   leaves; every scalar user of [red_root] is rewired to the final value. *)
type reduction = {
  red_op : Opcode.binop;
  red_root : Instr.t;
  red_chain : Instr.t list;
  red_chunks : Graph.node list;
  red_remainder : Instr.value list;
}

let node_members (n : Graph.node) =
  match n.Graph.shape with
  | Graph.Group insts -> Array.to_list insts
  | Graph.Multi m -> List.concat_map Array.to_list m.Graph.m_groups
  | Graph.Gather _ -> []

let element_scalar (i : Instr.t) =
  match Types.scalar_of i.Instr.ty with
  | Some s -> s
  | None -> (
    (* stores are void-typed; take the element from the address *)
    match Instr.address i with
    | Some a -> a.Instr.elt
    | None ->
      error "no element type for bundle member %%%d (%s)" i.Instr.id
        (Instr.opclass_name (Instr.opclass i)))

let run ?reduction ?(record = fun ~lanes:_ ~vector:_ -> ()) ?probe ?trace
    (graph : Graph.t) (analysis : Block_analysis.t) : outcome =
  let block = Block_analysis.block analysis in
  let deps = Block_analysis.deps analysis in
  let arena = Block_analysis.arena analysis in
  let n = Arena.size arena in
  (* ---- units ---------------------------------------------------- *)
  let vector_nodes =
    List.filter
      (fun (n : Graph.node) ->
        match n.Graph.shape with
        | Graph.Group _ | Graph.Multi _ -> true
        | Graph.Gather _ -> false)
      (Graph.nodes graph)
  in
  (* compact index -> unit; every block instruction gets exactly one *)
  let unit_of = Array.make (max n 1) (-1) in
  List.iteri
    (fun u node ->
      List.iter
        (fun (i : Instr.t) -> unit_of.(Arena.idx arena i) <- u)
        (node_members node))
    vector_nodes;
  let num_node_units = List.length vector_nodes in
  (* the reduction chain, if any, forms one additional unit *)
  let chain_unit =
    match reduction with
    | Some r ->
      List.iter
        (fun (i : Instr.t) -> unit_of.(Arena.idx arena i) <- num_node_units)
        r.red_chain;
      1
    | None -> 0
  in
  (* surviving scalars become singleton units, in program order *)
  let num_units = ref (num_node_units + chain_unit) in
  for k = 0 to n - 1 do
    if unit_of.(k) < 0 then begin
      unit_of.(k) <- !num_units;
      incr num_units
    end
  done;
  let num_units = !num_units in
  let members = Array.make (max num_units 1) [] in
  let key = Array.make (max num_units 1) max_int in
  for k = 0 to n - 1 do
    let u = unit_of.(k) in
    members.(u) <- Arena.instr arena k :: members.(u);
    if key.(u) = max_int then key.(u) <- k
  done;
  (* ---- unit dependence edges ------------------------------------ *)
  let preds = Array.make (max num_units 1) [] in
  let seen = Bytes.make (max (num_units * num_units) 1) '\000' in
  for i = 0 to n - 1 do
    let u = unit_of.(i) in
    for j = 0 to n - 1 do
      if unit_of.(j) <> u && Depgraph.reaches deps i j then begin
        let v = unit_of.(j) in
        let c = (u * num_units) + v in
        if Bytes.unsafe_get seen c = '\000' then begin
          Bytes.unsafe_set seen c '\001';
          preds.(u) <- v :: preds.(u)
        end
      end
    done
  done;
  (* ---- stable topological order (Kahn, min-key first) ------------ *)
  let emitted = Array.make num_units false in
  let order = ref [] in
  let remaining = ref num_units in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    let best = ref (-1) in
    for u = 0 to num_units - 1 do
      if (not emitted.(u))
         && List.for_all (fun p -> emitted.(p)) preds.(u)
         && (!best = -1 || key.(u) < key.(!best))
      then best := u
    done;
    if !best >= 0 then begin
      emitted.(!best) <- true;
      order := !best :: !order;
      decr remaining;
      progress := true
    end
  done;
  if !remaining > 0 then Not_schedulable
  else begin
    try
    let order = List.rev !order in
    (* ---- emission -------------------------------------------------- *)
    let out = ref [] in
    (* [push] is for freshly materialized instructions (vector ops, gathers,
       extracts) and records an [Emit] trace event; surviving scalars go
       through [repush] below, unrecorded. *)
    let repush i = out := i :: !out in
    let push (i : Instr.t) =
      Option.iter
        (fun tr ->
          let lanes =
            match i.Instr.ty with
            | Types.Vec (_, n) -> n
            | Types.Scalar _ | Types.Void -> (
              match Instr.address i with
              | Some a -> a.Instr.access_lanes
              | None -> 1)
          in
          Lslp_trace.Trace.record tr
            (Lslp_trace.Trace.Emit { instr = Printer.instr_to_string i; lanes }))
        trace;
      repush i
    in
    (* surviving scalars are re-pushed, not materialized; everything else in
       [out] is fresh — the probe's instrs_emitted, charged only on commit *)
    let scalar_repushes = ref 0 in
    (* node slot -> emitted vector value *)
    let vec_vals : Instr.value option array =
      Array.make (max (Graph.node_count graph) 1) None
    in
    (* compact index -> materialized extract / scalar replacement; keys are
       always pre-codegen block instructions, so the arena covers them *)
    let extracts : Instr.value option array = Array.make (max n 1) None in
    let replacements : Instr.value option array = Array.make (max n 1) None in
    let slot_of (i : Instr.t) = Arena.idx arena i in
    let rec subst (v : Instr.value) : Instr.value =
      match v with
      | Instr.Ins i when slot_of i >= 0 && replacements.(slot_of i) <> None
        ->
        Option.get replacements.(slot_of i)
      | Instr.Ins i when Graph.claimed graph i -> (
        match extracts.(slot_of i) with
        | Some e -> e
        | None -> (
          match Graph.lane_of graph i with
          | Some (node, lane) ->
            let vec =
              match vec_vals.(node.Graph.slot) with
              | Some v -> v
              | None ->
                error
                  "extract of lane %d (%%%d) before its defining node #%d \
                   was emitted"
                  lane i.Instr.id node.Graph.nid
            in
            let e =
              Instr.create ~name:"ext" (Instr.Extract (vec, lane))
                (Types.Scalar (element_scalar i))
            in
            push e;
            let ev = Instr.Ins e in
            extracts.(slot_of i) <- Some ev;
            ev
          | None ->
            error "claimed value %%%d escapes its multi-node (no lane)"
              i.Instr.id))
      | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> v
    and emit_node (n : Graph.node) : Instr.value =
      match vec_vals.(n.Graph.slot) with
      | Some v -> v
      | None ->
        let v =
          match n.Graph.shape with
          | Graph.Gather vs -> (
            match Graph.shuffle_pattern graph vs with
            | Some (src, idx) ->
              (* pure permutation of one vector value: a single shuffle *)
              let src_vec =
                match vec_vals.(src.Graph.slot) with
                | Some v -> v
                | None ->
                  error "shuffle before its source node #%d was emitted"
                    src.Graph.nid
              in
              let elt =
                match Instr.value_ty src_vec with
                | Some (Types.Vec (s, _)) -> s
                | Some _ | None ->
                  error "shuffle source node #%d is not vector-typed"
                    src.Graph.nid
              in
              let ty = Types.vec elt (Array.length vs) in
              let i =
                Instr.create ~name:"shuf" (Instr.Shuffle (src_vec, idx)) ty
              in
              push i;
              Instr.Ins i
            | None ->
              let values = List.map subst (Array.to_list vs) in
              let elt =
                match Instr.value_ty (List.hd values) with
                | Some (Types.Scalar s) -> s
                | Some _ | None ->
                  error "gather lane 0 of a %d-lane column is not scalar"
                    (Array.length vs)
              in
              let lanes = List.length values in
              let ty = Types.vec elt lanes in
              let i =
                match Lslp_costmodel.Model.classify_gather values with
                | Lslp_costmodel.Model.Gather_splat ->
                  Instr.create ~name:"splat" (Instr.Splat (List.hd values)) ty
                | Lslp_costmodel.Model.Gather_free
                | Lslp_costmodel.Model.Gather_insert ->
                  Instr.create ~name:"gath" (Instr.Buildvec values) ty
              in
              push i;
              Instr.Ins i)
          | Graph.Group insts -> (
            let lanes = Array.length insts in
            let i0 = insts.(0) in
            match i0.Instr.kind with
            | Instr.Load a ->
              let addr = { a with Instr.access_lanes = lanes } in
              let i =
                Instr.create ~name:"vload" (Instr.Load addr)
                  (Types.vec addr.Instr.elt lanes)
              in
              push i;
              record ~lanes:insts ~vector:i;
              Instr.Ins i
            | Instr.Store (a, _) ->
              let child =
                match Graph.children graph n with
                | [ c ] -> emit_node c
                | cs ->
                  error "%d-lane store group has %d operand node(s), want 1"
                    lanes (List.length cs)
              in
              let addr = { a with Instr.access_lanes = lanes } in
              let i =
                Instr.create ~name:"vstore" (Instr.Store (addr, child))
                  Types.Void
              in
              push i;
              record ~lanes:insts ~vector:i;
              Instr.Ins i
            | Instr.Binop (op, _, _) ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ a; b ] ->
                 let ty = Types.vec (element_scalar i0) lanes in
                 let i =
                   Instr.create ~name:"v" (Instr.Binop (op, a, b)) ty
                 in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error "%d-lane binop group has %d operand node(s), want 2"
                   lanes (List.length cs))
            | Instr.Unop (op, _) ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ a ] ->
                 let ty = Types.vec (element_scalar i0) lanes in
                 let i = Instr.create ~name:"v" (Instr.Unop (op, a)) ty in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error "%d-lane unop group has %d operand node(s), want 1"
                   lanes (List.length cs))
            | Instr.Cmp (op, _, _) ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ a; b ] ->
                 (* i0 is i1-typed, so element_scalar yields I1: the wide
                    compare produces the vector mask directly *)
                 let ty = Types.vec (element_scalar i0) lanes in
                 let i = Instr.create ~name:"vcmp" (Instr.Cmp (op, a, b)) ty in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error "%d-lane cmp group has %d operand node(s), want 2"
                   lanes (List.length cs))
            | Instr.Select _ ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ m; a; b ] ->
                 let ty = Types.vec (element_scalar i0) lanes in
                 let i =
                   Instr.create ~name:"vsel" (Instr.Select (m, a, b)) ty
                 in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error "%d-lane select group has %d operand node(s), want 3"
                   lanes (List.length cs))
            | Instr.Masked_load (a, _, _) ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ m; p ] ->
                 let addr = { a with Instr.access_lanes = lanes } in
                 let i =
                   Instr.create ~name:"vmload"
                     (Instr.Masked_load (addr, m, p))
                     (Types.vec addr.Instr.elt lanes)
                 in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error
                   "%d-lane masked-load group has %d operand node(s), want 2"
                   lanes (List.length cs))
            | Instr.Masked_store (a, _, _) ->
              let children = List.map emit_node (Graph.children graph n) in
              (match children with
               | [ v; m ] ->
                 let addr = { a with Instr.access_lanes = lanes } in
                 let i =
                   Instr.create ~name:"vmstore"
                     (Instr.Masked_store (addr, v, m))
                     Types.Void
                 in
                 push i;
                 record ~lanes:insts ~vector:i;
                 Instr.Ins i
               | cs ->
                 error
                   "%d-lane masked-store group has %d operand node(s), want 2"
                   lanes (List.length cs))
            | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _
            | Instr.Reduce _ | Instr.Shuffle _ ->
              (* unreachable: Bundle.classify rejects vector-only opcodes
                 as Unsupported_shape before a group node can be built *)
              invalid_arg "Codegen: vector-only opcode in a scalar group")
          | Graph.Multi m ->
            let lanes = Graph.lanes_of_node n in
            let elt =
              match m.Graph.m_groups with
              | g :: _ -> element_scalar g.(0)
              | [] -> error "multi-node #%d has no internal groups" n.Graph.nid
            in
            let ty = Types.vec elt lanes in
            let children = List.map emit_node (Graph.children graph n) in
            (match children with
             | [] -> error "multi-node #%d has no operand nodes" n.Graph.nid
             | first :: rest ->
               let v =
                 List.fold_left
                   (fun acc c ->
                     let i =
                       Instr.create ~name:"v"
                         (Instr.Binop (m.Graph.m_op, acc, c))
                         ty
                     in
                     push i;
                     Instr.Ins i)
                   first rest
               in
               (* the whole reassociated chain stands for the final combine:
                  every internal bundle's lanes map to it for provenance *)
               (match v with
                | Instr.Ins vi ->
                  List.iter
                    (fun g -> record ~lanes:g ~vector:vi)
                    m.Graph.m_groups
                | Instr.Const _ | Instr.Arg _ -> ());
               v)
        in
        vec_vals.(n.Graph.slot) <- Some v;
        v
    in
    let node_arr = Array.of_list vector_nodes in
    let emit_reduction (r : reduction) =
      let chunk_vecs = List.map emit_node r.red_chunks in
      let elt = element_scalar r.red_root in
      let lanes =
        match r.red_chunks with
        | c :: _ -> Graph.lanes_of_node c
        | [] ->
          error "reduction rooted at %%%d has no leaf chunks"
            r.red_root.Instr.id
      in
      let vty = Types.vec elt lanes in
      let combined =
        match chunk_vecs with
        | [] ->
          error "reduction rooted at %%%d emitted no chunk vectors"
            r.red_root.Instr.id
        | first :: rest ->
          List.fold_left
            (fun acc c ->
              let i =
                Instr.create ~name:"vacc" (Instr.Binop (r.red_op, acc, c)) vty
              in
              push i;
              Instr.Ins i)
            first rest
      in
      let red =
        Instr.create ~name:"hred" (Instr.Reduce (r.red_op, combined))
          (Types.Scalar elt)
      in
      push red;
      let final =
        List.fold_left
          (fun acc v ->
            let i =
              Instr.create ~name:"tail"
                (Instr.Binop (r.red_op, acc, subst v))
                (Types.Scalar elt)
            in
            push i;
            Instr.Ins i)
          (Instr.Ins red) r.red_remainder
      in
      replacements.(slot_of r.red_root) <- Some final
    in
    List.iter
      (fun u ->
        if u < num_node_units then ignore (emit_node node_arr.(u))
        else if u < num_node_units + chain_unit then
          emit_reduction (Option.get reduction)
        else
          match members.(u) with
          | [ i ] ->
            Instr.map_operands subst i;
            incr scalar_repushes;
            repush i
          | ms ->
            (* unreachable: scalar units are built as singletons above *)
            invalid_arg
              (Fmt.str "Codegen: scalar unit %d has %d members" u
                 (List.length ms)))
      order;
    Option.iter
      (fun p ->
        let c = Lslp_telemetry.Probe.counters p in
        c.Lslp_telemetry.Probe.instrs_emitted <-
          c.Lslp_telemetry.Probe.instrs_emitted
          + (List.length !out - !scalar_repushes))
      probe;
    Block.set_order block (List.rev !out);
    ignore (Dce.run_block block);
    (* the commit: the analysis described the scalar block *)
    Block_analysis.commit analysis;
    Vectorized
    with Error msg ->
      (* Emission may have half-rewritten the block (operand substitutions
         on surviving scalars happen in place); the transactional pipeline
         rolls the region back when it sees [Failed]. *)
      Failed msg
  end
