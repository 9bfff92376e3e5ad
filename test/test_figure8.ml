(* The paper's Figure 8: a 4-lane multi-node whose operand matrix exercises
   every reordering mode.

   Reconstruction of the figure's DAG: each lane stores a chain of three
   bit-wise-ands over four operands — a shift of B (the figure's light-blue
   shifts), a load of D, a constant (except lane 2, which has a load of E in
   that position — the event that flips the CONST slot to FAILED; as in the
   figure, which operand the failed slot then consumes depends on candidate
   order), and a
   shift of C (the green shifts).  Lanes associate and order the operands
   differently.

   Expected outcome, straight from the figure:
   - slot of B-shifts  -> vectorizable shl group over B[i..i+3]
   - slot of D loads   -> wide load D[i..i+3]
   - slot of constants -> FAILED at lane 2 (E[i] instead of a constant),
                          emitted as a mixed gather
   - slot of C-shifts  -> vectorizable shl group over C[i..i+3] *)

open Lslp_ir
open Lslp_core
open Helpers

let figure8_src = {|
kernel figure8(i64 A[], i64 B[], i64 C[], i64 D[], i64 E[], i64 i) {
  A[i+0] = ((B[i+0] << 1) & D[i+0]) & (7 & (C[i+0] << 2));
  A[i+1] = (D[i+1] & (B[i+1] << 3)) & ((C[i+1] << 4) & 7);
  A[i+2] = (E[i] & (C[i+2] << 5)) & ((B[i+2] << 6) & D[i+2]);
  A[i+3] = ((B[i+3] << 7) & 7) & (D[i+3] & (C[i+3] << 8));
}
|}

let build () =
  let f = compile figure8_src in
  let analysis = entry_analysis f in
  let seed = List.hd (Seeds.collect Config.lslp analysis) in
  let graph, root = Graph_builder.build Config.lslp analysis seed in
  (f, graph, root)

let multi_of graph =
  List.find_map
    (fun (n : Graph.node) ->
      match n.Graph.shape with
      | Graph.Multi m when m.Graph.m_op = Opcode.And -> Some (n, m)
      | _ -> None)
    (Graph.nodes graph)
  |> Option.get

let suite =
  [
    tc "the & chain coarsens into a 3-group multi-node" (fun () ->
        let _, graph, _ = build () in
        let _, m = multi_of graph in
        check_int "three & groups" 3 (List.length m.Graph.m_groups);
        List.iter
          (fun g -> check_int "4 lanes each" 4 (Array.length g))
          m.Graph.m_groups);
    tc "the multi-node has four operand slots" (fun () ->
        let _, graph, _ = build () in
        let node, _ = multi_of graph in
        check_int "slots" 4 (List.length (Graph.children graph node)));
    tc "slots sort into B-shifts, D loads, C-shifts, and a failed mix"
      (fun () ->
        let _, graph, _ = build () in
        let node, _ = multi_of graph in
        let shift_groups = ref 0 in
        let wide_d_loads = ref 0 in
        let mixed_gathers = ref 0 in
        List.iter
          (fun (child : Graph.node) ->
            match child.Graph.shape with
            | Graph.Multi { Graph.m_groups = [ insts ]; _ }
            | Graph.Group insts -> (
              match insts.(0).Instr.kind with
              | Instr.Binop (Opcode.Shl, _, _) -> incr shift_groups
              | Instr.Load _ -> incr wide_d_loads
              | _ -> ())
            | Graph.Multi _ -> ()
            | Graph.Gather vs ->
              let has_const =
                Array.exists
                  (fun v -> match v with Instr.Const _ -> true | _ -> false)
                  vs
              in
              let has_load =
                Array.exists
                  (fun v ->
                    match v with Instr.Ins i -> Instr.is_load i | _ -> false)
                  vs
              in
              if has_const && has_load then incr mixed_gathers)
          (Graph.children graph node);
        check_int "two shift groups (blue + green)" 2 !shift_groups;
        check_int "one wide D load" 1 !wide_d_loads;
        check_int "one failed const slot (mixed gather)" 1 !mixed_gathers);
    tc "shift groups pull consecutive B and C loads" (fun () ->
        let f, graph, _ = build () in
        ignore graph;
        (* end-to-end: the whole kernel vectorizes, with wide loads of B, C
           and D surviving in the output *)
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "vectorized" 1 report.Pipeline.vectorized_regions;
        let wide_bases =
          List.filter_map
            (fun (i : Instr.t) ->
              match i.Instr.kind with
              | Instr.Load a when a.Instr.access_lanes = 4 ->
                Some a.Instr.base
              | _ -> None)
            (Block.to_list (Func.entry f))
          |> List.sort_uniq String.compare
        in
        check (Alcotest.list Alcotest.string) "B, C, D wide"
          [ "B"; "C"; "D" ] wide_bases;
        assert_sound ~reference ~candidate:f ());
    tc "vanilla SLP only scratches figure 8" (fun () ->
        let slp = Pipeline.run ~config:Config.slp (compile figure8_src) in
        let lslp = Pipeline.run ~config:Config.lslp (compile figure8_src) in
        check_bool "LSLP much deeper" true
          (lslp.Pipeline.total_cost < slp.Pipeline.total_cost - 10));
    tc "multi-node size sweep is not monotone but full size wins" (fun () ->
        (* trimming a 3-op chain to 2 groups mispairs the leaves (the same
           non-monotonicity Figure 13 shows per kernel); the full chain is
           the best configuration *)
        let cost limit =
          let f = compile figure8_src in
          (Pipeline.run ~config:(Config.lslp_multi limit) f)
            .Pipeline.total_cost
        in
        let full =
          (Pipeline.run ~config:Config.lslp (compile figure8_src))
            .Pipeline.total_cost
        in
        check_bool "full beats every cap" true
          (List.for_all (fun l -> full <= cost l) [ 1; 2; 3 ]);
        check_int "3 groups = the whole chain" full (cost 3));
  ]
