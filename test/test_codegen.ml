(* Tests for vector code generation: shapes of the emitted code, extracts
   for external users, scheduling correctness, and abort-on-cycle. *)

open Lslp_ir
open Lslp_core
open Helpers

let codegen_tests =
  [
    tc "figure 2 LSLP emits 2 wide loads, 1 wide store, no scalars left"
      (fun () ->
        let f = kernel "motivation-loads" in
        let reference = Func.clone f in
        ignore (Pipeline.run ~config:Config.lslp f);
        check_int "wide loads" 2 (count_insts is_wide_load f);
        check_int "wide stores" 1 (count_insts is_wide_store f);
        check_int "scalar loads gone" 0
          (count_insts (fun i -> Instr.is_load i && not (is_wide_load i)) f);
        (* constants gathered: two buildvecs *)
        check_int "buildvecs" 2
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Buildvec _ -> true | _ -> false)
             f);
        assert_sound ~reference ~candidate:f ());
    tc "multi-node folds into k wide ops" (fun () ->
        let f = kernel "motivation-multi" in
        ignore (Pipeline.run ~config:Config.lslp f);
        let wide_ands =
          count_insts
            (fun i ->
              Instr.binop i = Some Opcode.And && Types.is_vector i.Instr.ty)
            f
        in
        check_int "two wide ands" 2 wide_ands);
    tc "splat operands become splat instructions" (fun () ->
        let f = kernel "453.calc-z3" in
        ignore (Pipeline.run ~config:Config.lslp f);
        check_bool "has splat" true
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Splat _ -> true | _ -> false)
             f
           > 0));
    tc "external scalar users get extracts" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], f64 S[], i64 i) {
  f64 x0 = A[i+0];
  f64 x1 = A[i+1];
  R[i+0] = x0 * 2.0;
  R[i+1] = x1 * 2.0;
  S[i+4] = x0;
}
|} in
        let reference = Func.clone f in
        ignore (Pipeline.run ~config:Config.lslp f);
        check_bool "vectorized" true (count_insts is_wide_store f > 0);
        check_int "one extract" 1
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Extract _ -> true | _ -> false)
             f);
        assert_sound ~reference ~candidate:f ());
    tc "gathered scalars stay live" (fun () ->
        let f = kernel "motivation-opcodes" in
        let reference = Func.clone f in
        ignore (Pipeline.run ~config:Config.lslp f);
        (* the non-consecutive B/C/D/E loads remain scalar, feeding gathers *)
        check_int "scalar loads" 4
          (count_insts (fun i -> Instr.is_load i && not (is_wide_load i)) f);
        assert_sound ~reference ~candidate:f ());
    tc "aliasing store between lanes is scheduled correctly" (fun () ->
        (* the scalar store to A[i+9] does not alias the vector region but
           sits between the seed stores in program order *)
        let f = compile {|
kernel k(f64 A[], f64 B[], i64 i) {
  A[i+0] = B[i+0] * 2.0;
  A[i+9] = 7.0;
  A[i+1] = B[i+1] * 2.0;
}
|} in
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "vectorized" 1 report.Pipeline.vectorized_regions;
        assert_sound ~reference ~candidate:f ());
    tc "read of a lane between the seed stores blocks vectorization"
      (fun () ->
        (* A[i+0] is stored, then read, then A[i+1] stored: contracting the
           two stores would move the store of A[i+0] past its reader *)
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  A[i+0] = B[i+0] * 2.0;
  R[i+4] = A[i+0];
  A[i+1] = B[i+1] * 2.0;
}
|} in
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        (* either the bundle was rejected as unschedulable up front, or
           codegen aborted; in both cases semantics must hold *)
        ignore report;
        assert_sound ~reference ~candidate:f ());
    tc "overlapping second seed is left alone" (fun () ->
        (* after vectorizing the first window, its stores are consumed *)
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 i) {
  A[i+0] = B[i+0] + 1;
  A[i+1] = B[i+1] + 1;
  A[i+2] = B[i+2] + 1;
  A[i+3] = B[i+3] + 1;
}
|} in
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "one 4-wide region" 1 report.Pipeline.vectorized_regions;
        check_int "one wide store" 1 (count_insts is_wide_store f);
        assert_sound ~reference ~candidate:f ());
    tc "dead scalar code is swept after vectorization" (fun () ->
        let f = kernel "motivation-multi" in
        ignore (Pipeline.run ~config:Config.lslp f);
        let arena = Arena.of_block (Func.entry f) in
        Block.iter
          (fun i ->
            if not (Instr.has_side_effect i) then
              check_bool "live" true (Use_info.num_uses arena i > 0))
          (Func.entry f));
    tc "codegen output always verifies (all kernels x all configs)"
      (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            List.iter
              (fun config ->
                let f = Lslp_kernels.Catalog.compile k in
                ignore (Pipeline.run ~config f);
                match Verifier.check_func f with
                | [] -> ()
                | e :: _ ->
                  Alcotest.failf "%s/%s: %s" k.key config.Config.name
                    (Verifier.error_to_string e))
              [ Config.slp_nr; Config.slp; Config.lslp ])
          Lslp_kernels.Catalog.all);
  ]

(* The block analysis is built once per block state: every pass reads the
   same arena until code generation commits a rewrite. *)
let analysis_tests =
  [
    tc "one analysis per block state; a Vectorized commit drops it"
      (fun () ->
        let f = kernel "motivation-loads" in
        let block = Func.entry f in
        let analysis = Block_analysis.create block in
        let before = Block_analysis.arena analysis in
        check_bool "two reads, one arena" true
          (before == Block_analysis.arena analysis);
        let deps = Block_analysis.deps analysis in
        check_bool "two reads, one dependence graph" true
          (deps == Block_analysis.deps analysis);
        let seed = List.hd (Seeds.collect Config.lslp analysis) in
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        ignore (Cost.evaluate Config.lslp graph analysis);
        check_bool "seeds, graph and cost read the same analysis" true
          (before == Block_analysis.arena analysis
           && deps == Block_analysis.deps analysis);
        let scalar = Block.to_list block in
        (match Codegen.run graph analysis with
         | Codegen.Vectorized -> ()
         | Codegen.Not_schedulable | Codegen.Failed _ ->
           Alcotest.fail "expected Vectorized");
        let after = Block_analysis.arena analysis in
        check_bool "the commit dropped the arena" false (after == before);
        Block.iter
          (fun i ->
            check_bool (Fmt.str "%%%d is a member" i.Instr.id) true
              (Arena.mem after i))
          block;
        let removed = List.filter (fun i -> not (Block.mem block i)) scalar in
        check_bool "codegen removed the scalar chain" true (removed <> []);
        List.iter
          (fun (i : Instr.t) ->
            check_bool (Fmt.str "old %%%d is not a member" i.Instr.id) false
              (Arena.mem after i))
          removed;
        let deps' = Block_analysis.deps analysis in
        check_bool "the commit dropped the dependence graph" false
          (deps' == deps);
        Block.iter
          (fun i ->
            check_bool (Fmt.str "%%%d has dependences" i.Instr.id) true
              (Lslp_analysis.Depgraph.mem deps' i))
          block);
  ]

let suite = codegen_tests @ analysis_tests
