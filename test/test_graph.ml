(* Tests for bundles, graph construction and multi-node formation. *)

open Lslp_ir
open Lslp_analysis
open Lslp_core
open Helpers

let classify_in f bundle =
  let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
  Bundle.classify ~block:(Func.entry f) ~deps ~in_graph:(fun _ -> false) bundle

let bundle_tests =
  [
    tc "constants are not instructions" (fun () ->
        let f = kernel "motivation-loads" in
        match classify_in f [| Builder.iconst 1; Builder.iconst 2 |] with
        | Bundle.Rejected Bundle.Not_all_instructions -> ()
        | _ -> Alcotest.fail "expected rejection");
    tc "mixed opcodes rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = (A[i+4] + 1) + 0;
  A[i+1] = (A[i+5] * 2) + 0;
}
|} in
        let adds =
          Block.find_all
            (fun i -> Instr.binop i = Some Opcode.Add) (Func.entry f)
        in
        let mul =
          List.hd (Block.find_all (fun i -> Instr.binop i = Some Opcode.Mul)
                     (Func.entry f))
        in
        match classify_in f [| Instr.Ins (List.hd adds); Instr.Ins mul |] with
        | Bundle.Rejected Bundle.Not_isomorphic -> ()
        | _ -> Alcotest.fail "expected Not_isomorphic");
    tc "duplicate members rejected" (fun () ->
        let f = kernel "motivation-loads" in
        let ld = List.hd (Block.find_all Instr.is_load (Func.entry f)) in
        match classify_in f [| Instr.Ins ld; Instr.Ins ld |] with
        | Bundle.Rejected Bundle.Duplicate_member -> ()
        | _ -> Alcotest.fail "expected Duplicate_member");
    tc "dependent members rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = (A[i+4] + 1) + (A[i+5] + 2);
}
|} in
        let adds =
          Block.find_all (fun i -> Instr.binop i = Some Opcode.Add) (Func.entry f)
        in
        (* the root add depends on the two inner adds *)
        let root =
          List.find
            (fun (a : Instr.t) ->
              List.for_all
                (fun v -> match v with Instr.Const _ -> false | _ -> true)
                (Instr.operands a))
            adds
        in
        let inner = List.find (fun a -> not (Instr.equal a root)) adds in
        match classify_in f [| Instr.Ins inner; Instr.Ins root |] with
        | Bundle.Rejected Bundle.Not_schedulable -> ()
        | _ -> Alcotest.fail "expected Not_schedulable");
    tc "non-consecutive loads rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 i) {
  A[i+0] = B[i+0];
  A[i+1] = B[i+2];
}
|} in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        match classify_in f (Bundle.of_insts (Array.of_list loads)) with
        | Bundle.Rejected Bundle.Non_consecutive_loads -> ()
        | _ -> Alcotest.fail "expected Non_consecutive_loads");
    tc "consecutive loads accepted" (fun () ->
        let f = kernel "motivation-loads" in
        let loads =
          Block.find_all
            (fun i ->
              match Instr.address i with
              | Some a -> Instr.is_load i && String.equal a.Instr.base "B"
              | None -> false)
            (Func.entry f)
        in
        match classify_in f (Bundle.of_insts (Array.of_list loads)) with
        | Bundle.Vectorizable _ -> ()
        | Bundle.Rejected r -> Alcotest.failf "rejected: %s" (Bundle.reject_to_string r));
    tc "already-claimed members rejected" (fun () ->
        let f = kernel "motivation-loads" in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        match
          Bundle.classify ~block:(Func.entry f) ~deps ~in_graph:(fun _ -> true)
            (Bundle.of_insts (Array.of_list [ List.hd loads; List.nth loads 1 ]))
        with
        | Bundle.Rejected Bundle.Already_in_graph -> ()
        | _ -> Alcotest.fail "expected Already_in_graph");
    tc "operand_column extracts lanes" (fun () ->
        let f = kernel "motivation-loads" in
        let stores = Block.find_all Instr.is_store (Func.entry f) in
        let col =
          Bundle.operand_column (Array.of_list stores) ~index:0
        in
        check_int "two lanes" 2 (Array.length col));
  ]

let seeds_tests =
  [
    tc "adjacent store runs become seeds" (fun () ->
        let f = kernel "motivation-loads" in
        let seeds = Seeds.collect Config.lslp (entry_analysis f) in
        check_int "one seed" 1 (List.length seeds);
        check_int "two lanes" 2 (Array.length (List.hd seeds)));
    tc "runs split into power-of-two windows, widest first" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+2] = 2; A[i+3] = 3; A[i+4] = 4; A[i+5] = 5;
}
|} in
        let seeds = Seeds.collect Config.lslp (entry_analysis f) in
        check (Alcotest.list Alcotest.int) "window sizes" [ 4; 2 ]
          (List.map Array.length seeds));
    tc "gaps break runs" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+3] = 3; A[i+4] = 4;
}
|} in
        let seeds = Seeds.collect Config.lslp (entry_analysis f) in
        check_int "two seeds" 2 (List.length seeds));
    tc "stores to different arrays are separate" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 i) {
  A[i+0] = 0; B[i+0] = 1; A[i+1] = 2; B[i+1] = 3;
}
|} in
        let seeds = Seeds.collect Config.lslp (entry_analysis f) in
        check_int "two seeds" 2 (List.length seeds));
    tc "single store yields no seed" (fun () ->
        let f = compile "kernel k(i64 A[], i64 i) { A[i] = 1; }" in
        check_int "none" 0 (List.length (Seeds.collect Config.lslp (entry_analysis f))));
    tc "narrow target caps the window" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+2] = 2; A[i+3] = 3;
}
|} in
        let config = Config.with_model Lslp_costmodel.Model.sse_like Config.lslp in
        let seeds = Seeds.collect config (entry_analysis f) in
        check (Alcotest.list Alcotest.int) "2-wide windows" [ 2; 2 ]
          (List.map Array.length seeds));
    tc "max_lanes override caps below target" (fun () ->
        let config = Config.with_max_lanes 2 Config.lslp in
        check_int "capped" 2 (Config.effective_max_lanes config Lslp_ir.Types.I64));
  ]

let build_graph key config =
  let f = kernel key in
  let analysis = entry_analysis f in
  let seed = List.hd (Seeds.collect config analysis) in
  Graph_builder.build config analysis seed

let multinode_tests =
  [
    tc "figure 4 forms one & multi-node with two internal groups" (fun () ->
        let graph, _root = build_graph "motivation-multi" Config.lslp in
        (* frontier + columns also become (single-group) multi-nodes; the
           associativity fix shows up as the unique 2-group & multi-node *)
        let and_multis =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m when m.Graph.m_op = Opcode.And -> Some m
              | _ -> None)
            (Graph.nodes graph)
        in
        check_int "one & multi-node" 1 (List.length and_multis);
        check_int "two & groups" 2
          (List.length (List.hd and_multis).Graph.m_groups));
    tc "figure 4 multi-node has three operand slots" (fun () ->
        let graph, _ = build_graph "motivation-multi" Config.lslp in
        let multi =
          List.find
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> m.Graph.m_op = Opcode.And
              | _ -> false)
            (Graph.nodes graph)
        in
        check_int "slots" 3 (List.length (Graph.children graph multi)));
    tc "multi-node size limit truncates the chain" (fun () ->
        let graph, _ =
          build_graph "motivation-multi" (Config.lslp_multi 1)
        in
        let multi_sizes =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> Some (List.length m.Graph.m_groups)
              | _ -> None)
            (Graph.nodes graph)
        in
        List.iter (fun s -> check_int "max 1 group" 1 s) multi_sizes);
    tc "multi-use chain members are not absorbed (escape rule)" (fun () ->
        (* the inner + feeds both the chain and a separate store, so it
           must stay outside the multi-node *)
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 R[], i64 i) {
  i64 t0 = A[i+0] + B[i+0];
  i64 t1 = A[i+1] + B[i+1];
  R[i+0] = t0 + A[i+2];
  R[i+1] = t1 + A[i+3];
  B[i+8] = t0;
}
|} in
        let analysis = entry_analysis f in
        let seed =
          List.find
            (fun (s : Seeds.seed) -> Array.length s = 2)
            (Seeds.collect Config.lslp analysis)
        in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let multis =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> Some (List.length m.Graph.m_groups)
              | _ -> None)
            (Graph.nodes graph)
        in
        (* t0 escapes via B[i+8], so no lane may absorb its chain: every
           multi-node stays at one group *)
        List.iter (fun s -> check_int "no coarsening" 1 s) multis);
    tc "non-commutative roots do not form multi-nodes" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], i64 i) {
  A[i+0] = B[i+0] - 1.0;
  A[i+1] = B[i+1] - 1.0;
}
|} in
        let analysis = entry_analysis f in
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        check_bool "no multi" true
          (List.for_all
             (fun (n : Graph.node) ->
               match n.Graph.shape with Graph.Multi _ -> false | _ -> true)
             (Graph.nodes graph)));
    tc "lanes with different chain shapes are trimmed to the min" (fun () ->
        (* lane0 has a 3-op fadd chain, lane1 a 1-op chain *)
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i+0] + A[i+2] + A[i+4] + A[i+6];
  R[i+1] = A[i+1] + B[i+0];
}
|} in
        let analysis = entry_analysis f in
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let m =
          List.find_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with Graph.Multi m -> Some m | _ -> None)
            (Graph.nodes graph)
        in
        match m with
        | Some m -> check_int "trimmed to 1 group" 1 (List.length m.Graph.m_groups)
        | None -> Alcotest.fail "expected a multi-node");
    tc "diamond columns reuse one node" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  R[i+0] = A[i+0] * A[i+0];
  R[i+1] = A[i+1] * A[i+1];
}
|} in
        let analysis = entry_analysis f in
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        let loads =
          List.filter
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Group insts -> Instr.is_load insts.(0)
              | _ -> false)
            (Graph.nodes graph)
        in
        check_int "one shared load group" 1 (List.length loads));
    tc "graph claims exactly the vectorizable instructions" (fun () ->
        let graph, _ = build_graph "motivation-loads" Config.lslp in
        (* 2 stores + 2 ands + 4 shls + 4 loads = 12 claimed *)
        check_int "claimed" 12 (List.length (Graph.claimed_insts graph)));
    tc "SLP strategy builds plain groups for commutative ops" (fun () ->
        let graph, _ = build_graph "motivation-multi" Config.slp in
        check_bool "no multi-nodes" true
          (List.for_all
             (fun (n : Graph.node) ->
               match n.Graph.shape with Graph.Multi _ -> false | _ -> true)
             (Graph.nodes graph)));
  ]

let suite = bundle_tests @ seeds_tests @ multinode_tests
