(* Cost evaluation of an SLP graph (paper §2.2 step 4).

   cost(graph) = Σ over vectorizable bundles of (vector_cost - Σ scalar
   costs) + Σ over gather nodes of their aggregation cost + one extract per
   vectorized value that still has scalar (external) users.

   Negative totals mean the vector code is cheaper; code generation proceeds
   iff total < threshold (usually 0). *)

open Lslp_ir

type node_cost = {
  nid : int;
  description : string;
  cost : int;
}

type summary = {
  per_node : node_cost list;
  extract_cost : int;
  total : int;
}

let bundle_cost model (insts : Instr.t array) =
  let lanes = Array.length insts in
  let vector = Lslp_costmodel.Model.vector_group_cost model insts.(0) ~lanes in
  let scalars =
    Array.fold_left
      (fun acc i -> acc + Lslp_costmodel.Model.scalar_instr_cost model i)
      0 insts
  in
  vector - scalars

(* plain concatenation: this runs once per node per evaluation, and
   [Fmt.str] is an order of magnitude slower than [^] here *)
let describe_bundle (insts : Instr.t array) =
  Instr.opclass_name (Instr.opclass insts.(0))
  ^ " x"
  ^ string_of_int (Array.length insts)

let evaluate ?(ignore_users = fun (_ : Instr.t) -> false) (config : Config.t)
    (graph : Graph.t) (analysis : Block_analysis.t) : summary =
  let model = config.Config.model in
  let per_node = ref [] in
  let note nid description cost =
    per_node := { nid; description; cost } :: !per_node
  in
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.shape with
      | Graph.Group insts ->
        note n.Graph.nid (describe_bundle insts) (bundle_cost model insts)
      | Graph.Multi m ->
        List.iter
          (fun insts ->
            note n.Graph.nid
              ("multi:" ^ describe_bundle insts)
              (bundle_cost model insts))
          m.Graph.m_groups
      | Graph.Gather vs -> (
        match Graph.shuffle_pattern graph vs with
        | Some _ ->
          (* a pure permutation of one vector value: a single shuffle *)
          note n.Graph.nid
            ("shuffle x" ^ string_of_int (Array.length vs))
            model.Lslp_costmodel.Model.shuffle
        | None ->
          note n.Graph.nid
            ("gather x" ^ string_of_int (Array.length vs))
            (Lslp_costmodel.Model.gather_cost model (Array.to_list vs))))
    (Graph.nodes graph);
  (* extract cost: vectorized values that still need a scalar copy — either
     they have scalar users outside the graph, or they appear inside a
     gather column (code generation materializes those lanes with extracts) *)
  let arena = Block_analysis.arena analysis in
  let needs_extract = Lslp_util.Int_table.create 16 in
  List.iter
    (fun (i : Instr.t) ->
      let external_users =
        Use_info.users_outside arena i
          ~inside:(fun u -> Graph.claimed graph u || ignore_users u)
      in
      if external_users <> [] then
        Lslp_util.Int_table.set needs_extract i.id 1)
    (Graph.claimed_insts graph);
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.shape with
      | Graph.Gather vs when Graph.shuffle_pattern graph vs = None ->
        Array.iter
          (fun v ->
            match v with
            | Instr.Ins i when Graph.claimed graph i ->
              Lslp_util.Int_table.set needs_extract i.Instr.id 1
            | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> ())
          vs
      | Graph.Gather _ | Graph.Group _ | Graph.Multi _ -> ())
    (Graph.nodes graph);
  let extract_cost =
    Lslp_util.Int_table.length needs_extract
    * model.Lslp_costmodel.Model.extract_element
  in
  let total =
    List.fold_left (fun acc nc -> acc + nc.cost) extract_cost !per_node
  in
  { per_node = List.rev !per_node; extract_cost; total }

let profitable config summary = summary.total < config.Config.threshold

let pp_summary ppf s =
  List.iter
    (fun nc -> Fmt.pf ppf "  node#%d %-14s %+d@." nc.nid nc.description nc.cost)
    s.per_node;
  if s.extract_cost <> 0 then Fmt.pf ppf "  extracts       %+d@." s.extract_cost;
  Fmt.pf ppf "  total          %+d" s.total
