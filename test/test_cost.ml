(* Cost-evaluation tests.  The crown jewels are the paper's worked examples:
   Figures 2, 3 and 4 print exact total costs for SLP and LSLP, and this
   implementation reproduces every one of them. *)

open Lslp_ir
open Lslp_core
open Helpers

let graph_cost key config =
  let f = kernel key in
  let analysis = entry_analysis f in
  let seed = List.hd (Seeds.collect config analysis) in
  let graph, _ = Graph_builder.build config analysis seed in
  (Cost.evaluate config graph analysis).Cost.total

let paper_figures =
  [
    tc "figure 2: SLP graph costs 0 (not profitable)" (fun () ->
        check_int "SLP" 0 (graph_cost "motivation-loads" Config.slp));
    tc "figure 2: LSLP graph costs -6" (fun () ->
        check_int "LSLP" (-6) (graph_cost "motivation-loads" Config.lslp));
    tc "figure 3: SLP graph costs +4" (fun () ->
        check_int "SLP" 4 (graph_cost "motivation-opcodes" Config.slp));
    tc "figure 3: LSLP graph costs -2" (fun () ->
        check_int "LSLP" (-2) (graph_cost "motivation-opcodes" Config.lslp));
    tc "figure 4: SLP graph costs -2 (partial vectorization)" (fun () ->
        check_int "SLP" (-2) (graph_cost "motivation-multi" Config.slp));
    tc "figure 4: LSLP graph costs -10 (full vectorization)" (fun () ->
        check_int "LSLP" (-10) (graph_cost "motivation-multi" Config.lslp));
    tc "SLP-NR matches SLP on figure 2 (rotation does not help)" (fun () ->
        check_int "SLP-NR" 0 (graph_cost "motivation-loads" Config.slp_nr));
  ]

let unit_costs =
  [
    tc "bundle_cost of a 2-wide ALU group is -1" (fun () ->
        let f = kernel "motivation-loads" in
        let ands =
          Block.find_all (fun i -> Instr.binop i = Some Opcode.And) (Func.entry f)
        in
        check_int "-1" (-1)
          (Cost.bundle_cost Lslp_costmodel.Model.skylake_avx2
             (Array.of_list ands)));
    tc "store group of 4 saves 3" (fun () ->
        let f = kernel "453.calc-z3" in
        let stores = Block.find_all Instr.is_store (Func.entry f) in
        check_int "-3" (-3)
          (Cost.bundle_cost Lslp_costmodel.Model.skylake_avx2
             (Array.of_list stores)));
    tc "external users add extract cost" (fun () ->
        (* the loads feeding the vector code are also used by a scalar
           store elsewhere -> one extract per externally-used lane value *)
        let f = compile {|
kernel k(f64 A[], f64 R[], f64 S[], i64 i) {
  f64 x0 = A[i+0];
  f64 x1 = A[i+1];
  R[i+0] = x0 * 2.0;
  R[i+1] = x1 * 2.0;
  S[i+4] = x0;
}
|} in
        let analysis = entry_analysis f in
        let seed =
          List.find (fun (s : Seeds.seed) ->
              match Instr.address s.(0) with
              | Some a -> String.equal a.Instr.base "R"
              | None -> false)
            (Seeds.collect Config.lslp analysis)
        in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let summary = Cost.evaluate Config.lslp graph analysis in
        check_int "one extract" 1 summary.Cost.extract_cost);
    tc "profitable iff below threshold" (fun () ->
        let summary = { Cost.per_node = []; extract_cost = 0; total = -1 } in
        check_bool "default" true (Cost.profitable Config.lslp summary);
        check_bool "zero not profitable" false
          (Cost.profitable Config.lslp { summary with Cost.total = 0 });
        check_bool "higher threshold accepts zero" true
          (Cost.profitable (Config.with_threshold 1 Config.lslp)
             { summary with Cost.total = 0 }));
    tc "multi-node internal groups are each costed" (fun () ->
        let f = kernel "motivation-multi" in
        let analysis = entry_analysis f in
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let summary = Cost.evaluate Config.lslp graph analysis in
        let multi_rows =
          List.filter
            (fun (r : Cost.node_cost) ->
              String.length r.description > 9
              && String.equal (String.sub r.description 0 9) "multi:and")
            summary.Cost.per_node
        in
        check_int "two & rows" 2 (List.length multi_rows));
    tc "gather rows carry the aggregation cost" (fun () ->
        let f = kernel "motivation-opcodes" in
        let analysis = entry_analysis f in
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let summary = Cost.evaluate Config.lslp graph analysis in
        let gathers =
          List.filter
            (fun (r : Cost.node_cost) ->
              String.length r.description > 6
              && String.equal (String.sub r.description 0 6) "gather")
            summary.Cost.per_node
        in
        (* figure 3(d): two +2 load gathers; the four constant columns
           ([0x11,0x14], [0x13,0x12], [1,4], [2,3]) gather for free *)
        check_int "six gathers" 6 (List.length gathers);
        check_int "sum +4" 4
          (List.fold_left (fun a (r : Cost.node_cost) -> a + r.cost) 0 gathers));
  ]

let suite = paper_figures @ unit_costs
