(* Horizontal-reduction vectorization.

   The paper lists reduction trees among the seed idioms of bottom-up SLP
   (§2.2: "instructions that lead to idioms such as reduction trees").  A
   chain x1 ⊕ x2 ⊕ ... ⊕ xn of one commutative+associative opcode whose
   intermediate values do not escape is rewritten, when profitable, as

     W-wide chunks of leaves  →  element-wise ⊕ of the chunk vectors
                              →  one horizontal Reduce
                              →  scalar ⊕ of any leftover leaves.

   Leaf chunks are built through the regular graph machinery, so they get
   the full treatment: wide loads, nested groups, gathers, diamond reuse. *)

open Lslp_ir

type candidate = {
  cand_op : Opcode.binop;
  cand_root : Instr.t;
  cand_chain : Instr.t list;   (* chain ops, root first *)
  cand_leaves : Instr.value list;
}

(* Chain roots: commutative+associative ops that are not themselves
   absorbed into a parent chain of the same opcode (multi-use values are
   roots of their own chains; their parents treat them as leaves). *)
let collect_candidates (analysis : Block_analysis.t) : candidate list =
  let arena = Block_analysis.arena analysis in
  let absorbable ~op (v : Instr.value) =
    match v with
    | Instr.Ins i ->
      Instr.binop i = Some op && Use_info.has_single_use arena i
    | Instr.Const _ | Instr.Arg _ -> false
  in
  let is_root (i : Instr.t) =
    match Instr.binop i with
    | Some op when Opcode.is_commutative op && Opcode.is_associative op ->
      let users = Use_info.users arena i in
      (* not absorbed by a same-op parent *)
      not
        (Use_info.has_single_use arena i
         && List.exists (fun (u : Instr.t) -> Instr.binop u = Some op) users)
    | Some _ | None -> false
  in
  Block.fold
    (fun acc root ->
      if not (is_root root) then acc
      else
        let op = Option.get (Instr.binop root) in
        let chain = ref [ root ] in
        let leaves = ref [] in
        let rec go (i : Instr.t) =
          List.iter
            (fun v ->
              if absorbable ~op v then begin
                match v with
                | Instr.Ins child ->
                  chain := child :: !chain;
                  go child
                | Instr.Const _ | Instr.Arg _ -> assert false
              end
              else leaves := v :: !leaves)
            (Instr.operands i)
        in
        go root;
        if List.length !chain < 2 then acc (* a lone op is not a chain *)
        else
          {
            cand_op = op;
            cand_root = root;
            cand_chain = List.rev !chain;
            cand_leaves = List.rev !leaves;
          }
          :: acc)
    [] (Block_analysis.block analysis)
  |> List.rev

(* Chunk the leaves into W-wide bundles (in order) plus a scalar tail. *)
let chunk_leaves ~lanes leaves =
  let rec go acc current n = function
    | [] ->
      let tail = List.rev current in
      (List.rev acc, tail)
    | v :: rest ->
      if n + 1 = lanes then
        go (Array.of_list (List.rev (v :: current)) :: acc) [] 0 rest
      else go acc (v :: current) (n + 1) rest
  in
  go [] [] 0 leaves

type plan = {
  graph : Graph.t;
  reduction : Codegen.reduction;
  cost : int;
  lanes : int;
}

(* Net cost of vectorizing one candidate (negative = profitable):
   graph nodes (chunk trees and their gathers/extracts) + (chunks-1)
   element-wise vector ops + the horizontal reduce + tail scalar ops,
   minus the removed scalar chain ops. *)
let plan_candidate ?meter ?probe ?trace ?ids ~desc (config : Config.t)
    (analysis : Block_analysis.t) (c : candidate) : plan option =
  let model = config.Config.model in
  let elt =
    match Types.scalar_of c.cand_root.Instr.ty with
    | Some s -> s
    | None -> Types.F64
  in
  let lanes = Config.effective_max_lanes config elt in
  if List.length c.cand_leaves < lanes then None
  else begin
    let chunks, tail = chunk_leaves ~lanes c.cand_leaves in
    let graph, chunk_nodes =
      Graph_builder.build_columns ?meter ?probe ?trace ?ids ~desc config
        analysis chunks
    in
    let in_chain (u : Instr.t) =
      List.exists (fun (ci : Instr.t) -> Instr.equal ci u) c.cand_chain
    in
    let summary =
      Cost.evaluate ~ignore_users:in_chain config graph analysis
    in
    let op_costs = model.Lslp_costmodel.Model.binop_cost c.cand_op in
    let combine_cost = (List.length chunks - 1) * op_costs.vector lanes in
    let reduce_cost = model.Lslp_costmodel.Model.horizontal_reduce lanes in
    let tail_cost = List.length tail * op_costs.scalar in
    let removed_chain =
      List.length c.cand_chain * op_costs.scalar
    in
    let cost =
      summary.Cost.total + combine_cost + reduce_cost + tail_cost
      - removed_chain
    in
    Some
      {
        graph;
        reduction =
          {
            Codegen.red_op = c.cand_op;
            red_root = c.cand_root;
            red_chain = c.cand_chain;
            red_chunks = chunk_nodes;
            red_remainder = tail;
          };
        cost;
        lanes;
      }
  end

type region = {
  root_desc : string;
  lanes : int;
  cost : int;
  outcome : Lslp_check.Remark.outcome;
}

(* Vectorize every profitable reduction in one block, in program order.
   Returns one region record per candidate considered. *)
let run ?(config = Config.lslp) ?meter ?probe ?trace ?ids ?record
    ?(on_skipped = fun _ -> ()) (analysis : Block_analysis.t) : region list =
  let regions = ref [] in
  let continue_ = ref true in
  let consumed = Lslp_util.Int_table.create 16 in
  while !continue_ do
    continue_ := false;
    let fresh =
      List.filter
        (fun c ->
          not (Lslp_util.Int_table.mem consumed c.cand_root.Instr.id))
        (collect_candidates analysis)
    in
    match fresh with
    | [] -> ()
    | c :: _ -> (
      Lslp_util.Int_table.set consumed c.cand_root.Instr.id 1;
      continue_ := true;
      Option.iter Lslp_robust.Budget.spend_step meter;
      let desc =
        Fmt.str "reduce %s x%d"
          (Opcode.binop_name c.cand_op)
          (List.length c.cand_leaves)
      in
      match
        plan_candidate ?meter ?probe ?trace ?ids ~desc config analysis c
      with
      | None -> on_skipped c
      | Some plan ->
        let accepted = plan.cost < config.Config.threshold in
        Option.iter
          (fun tr ->
            Lslp_trace.Trace.record tr
              (Lslp_trace.Trace.Cost_computed
                 {
                   seed = desc;
                   nodes = List.length (Graph.nodes plan.graph);
                   total = plan.cost;
                   threshold = config.Config.threshold;
                   accepted;
                 }))
          trace;
        (* one decided candidate: its trace event and its region record *)
        let decided outcome =
          Option.iter
            (fun tr ->
              Lslp_trace.Trace.record tr
                (Lslp_trace.Trace.Region_outcome
                   { seed = desc; lanes = plan.lanes;
                     outcome = Lslp_check.Remark.trace_name outcome;
                     cost = Some plan.cost }))
            trace;
          regions :=
            { root_desc = desc; lanes = plan.lanes; cost = plan.cost; outcome }
            :: !regions
        in
        if accepted then begin
          Config.boundary config Lslp_robust.Inject.Reduction;
          match
            Codegen.run ~reduction:plan.reduction ?record ?probe ?trace
              plan.graph analysis
          with
          | Codegen.Vectorized -> decided Lslp_check.Remark.Vectorized
          | Codegen.Not_schedulable -> decided Lslp_check.Remark.Not_schedulable
          | Codegen.Failed msg ->
            (* the block may be half-rewritten; abort the transaction the
               caller wrapped around us so it rolls the region back *)
            raise
              (Lslp_robust.Transact.Check_failed
                 { pass = "reduction-codegen"; error = msg })
        end
        else decided Lslp_check.Remark.Unprofitable)
  done;
  List.rev !regions
