(* Tests for horizontal-reduction vectorization and the Reduce/Shuffle
   instructions it (and gather codegen) relies on. *)

open Lslp_ir
open Lslp_core
open Helpers

let dot_src = {|
kernel dot(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
}
|}

let count_kind p f = count_insts p f

let is_reduce (i : Instr.t) =
  match i.Instr.kind with Instr.Reduce _ -> true | _ -> false

let is_shuffle (i : Instr.t) =
  match i.Instr.kind with Instr.Shuffle _ -> true | _ -> false

let detection_tests =
  [
    tc "dot-product chain is detected" (fun () ->
        let f = compile dot_src in
        match Reduction.collect_candidates (entry_analysis f) with
        | [ c ] ->
          check_bool "fadd" true (c.Reduction.cand_op = Opcode.Fadd);
          check_int "3 chain ops" 3 (List.length c.Reduction.cand_chain);
          check_int "4 leaves" 4 (List.length c.Reduction.cand_leaves)
        | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs));
    tc "single ops are not chains" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) { S[i] = A[i] + A[i+1]; }
|} in
        check_int "no candidates" 0
          (List.length (Reduction.collect_candidates (entry_analysis f))));
    tc "escaping intermediates stop the chain" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  f64 t = A[i+0] + A[i+1];
  S[i+0] = t + A[i+2] + A[i+3] + A[i+4];
  S[i+4] = t;
}
|} in
        match Reduction.collect_candidates (entry_analysis f) with
        | [ c ] ->
          (* t is multi-use: it is a leaf of the big chain, not absorbed *)
          check_int "leaves" 4 (List.length c.Reduction.cand_leaves)
        | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs));
    tc "non-associative ops form no chains" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] - A[i+1] - A[i+2] - A[i+3] - A[i+4];
}
|} in
        check_int "none" 0 (List.length (Reduction.collect_candidates (entry_analysis f))));
  ]

let vectorize_tests =
  [
    tc "dot product becomes wide mul + reduce" (fun () ->
        let f = compile dot_src in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (entry_analysis f) in
        check_int "one region" 1 (List.length regions);
        check_bool "vectorized" true
          ((List.hd regions).Reduction.outcome = Lslp_check.Remark.Vectorized);
        check_int "one reduce" 1 (count_kind is_reduce f);
        check_int "two wide loads" 2 (count_insts is_wide_load f);
        assert_sound ~reference ~candidate:f ());
    tc "a rejected candidate keeps the analysis for the next one" (fun () ->
        (* the first chain gathers four unrelated loads (unprofitable), the
           second is a dot product; both read one block state *)
        let f = compile {|
kernel k(f64 S[], f64 A[], f64 B[], f64 C[], f64 D[], f64 E[], f64 F[],
         i64 i) {
  S[i] = C[i] + D[i+3] + E[i+7] + F[i+1];
  S[i+8] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
         + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
}
|} in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (entry_analysis f) in
        check_bool "rejected, then vectorized" true
          (List.map (fun (r : Reduction.region) -> r.Reduction.outcome) regions
           = Lslp_check.Remark.[ Unprofitable; Vectorized ]);
        check_int "one reduce" 1 (count_kind is_reduce f);
        assert_sound ~reference ~candidate:f ());
    tc "leftover leaves fold as a scalar tail" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + A[i+2] * B[i+2] + A[i+3] * B[i+3] + 2.5;
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (entry_analysis f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        (* the +2.5 survives as a scalar fadd after the reduce *)
        check_bool "scalar tail" true
          (count_insts
             (fun i ->
               Instr.binop i = Some Opcode.Fadd
               && not (Types.is_vector i.Instr.ty))
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "two full chunks combine element-wise before reducing" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3]
       + A[i+4] + A[i+5] + A[i+6] + A[i+7];
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (entry_analysis f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        check_bool "wide fadd combine" true
          (count_insts
             (fun i ->
               Instr.binop i = Some Opcode.Fadd && Types.is_vector i.Instr.ty)
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "short chains stay scalar" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) { S[i] = A[i+0] + A[i+1] + A[i+2]; }
|} in
        let regions = Reduction.run ~config:Config.lslp (entry_analysis f) in
        check_int "nothing" 0 (List.length regions);
        check_int "no reduce" 0 (count_kind is_reduce f));
    tc "gathered (non-consecutive) leaves can still pay off" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[2*i+0] * A[2*i+0] + B[2*i+0] * B[2*i+0]
       + (A[2*i+2] * A[2*i+2] + B[2*i+2] * B[2*i+2]);
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (entry_analysis f));
        assert_sound ~reference ~candidate:f ());
    tc "reduction root with a scalar store user is rewired" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 T[], f64 A[], i64 i) {
  f64 sum = A[i+0] + A[i+1] + A[i+2] + A[i+3];
  S[i] = sum;
  T[i+8] = sum * 2.0;
}
|} in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (entry_analysis f) in
        check_bool "vectorized" true
          (List.exists
             (fun r -> r.Reduction.outcome = Lslp_check.Remark.Vectorized)
             regions);
        assert_sound ~reference ~candidate:f ());
    tc "pipeline runs reductions after store seeds" (fun () ->
        let f = kernel "453.hreciprocal" in
        let report, g = vectorize ~config:Config.lslp f in
        check_int "two regions" 2 report.Pipeline.vectorized_regions;
        check_int "one reduce in output" 1 (count_kind is_reduce g);
        assert_sound ~reference:f ~candidate:g ());
    tc "reductions can be disabled" (fun () ->
        let f = kernel "453.hreciprocal" in
        let config = Config.with_reductions false Config.lslp in
        let report, g = vectorize ~config f in
        check_int "one region" 1 report.Pipeline.vectorized_regions;
        check_int "no reduce" 0 (count_kind is_reduce g));
    tc "integer reductions work too" (fun () ->
        let f = compile {|
kernel k(i64 S[], i64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3] + A[i+4] + A[i+5];
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (entry_analysis f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        assert_sound ~reference ~candidate:f ());
  ]

let shuffle_tests =
  [
    tc "interp: shuffle permutes lanes" (fun () ->
        let f = compile {|
kernel k(f64 R[], f64 A[], i64 i) {
  R[i+0] = A[i+0] + 1.0;
  R[i+1] = A[i+1] + 1.0;
}
|} in
        (* hand-append a shuffle consuming a wide value *)
        let _, g = vectorize ~config:Config.lslp f in
        ignore g;
        (* direct semantic check instead: build one manually *)
        let b =
          Builder.create ~name:"s"
            ~args:[ ("A", Instr.Array_arg Types.F64); ("R", Instr.Array_arg Types.F64);
                    ("i", Instr.Int_arg) ]
        in
        let fb = Builder.func b in
        let wide =
          Instr.create ~name:"w"
            (Instr.Load
               { Instr.base = "A"; elt = Types.F64; index = Affine.sym "i";
                 access_lanes = 2 })
            (Types.vec Types.F64 2)
        in
        let shuf =
          Instr.create ~name:"sh"
            (Instr.Shuffle (Instr.Ins wide, [ 1; 0 ]))
            (Types.vec Types.F64 2)
        in
        let st =
          Instr.create
            (Instr.Store
               ({ Instr.base = "R"; elt = Types.F64; index = Affine.sym "i";
                  access_lanes = 2 },
                Instr.Ins shuf))
            Types.Void
        in
        Block.append_list (Func.entry fb) [ wide; shuf; st ];
        Verifier.verify_exn fb;
        let mem = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.set_float mem "A" [| 1.0; 2.0; 0.0 |];
        Lslp_interp.Memory.set_float mem "R" [| 0.0; 0.0; 0.0 |];
        ignore
          (Lslp_interp.Eval.run fb ~int_args:[ ("i", 0L) ] ~float_args:[]
             ~mem);
        check_bool "swapped" true
          (Lslp_interp.Memory.read_float mem "R" 0 = 2.0
           && Lslp_interp.Memory.read_float mem "R" 1 = 1.0));
    tc "verifier rejects out-of-range shuffle indices" (fun () ->
        let b =
          Builder.create ~name:"s"
            ~args:[ ("A", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ]
        in
        let fb = Builder.func b in
        let wide =
          Instr.create
            (Instr.Load
               { Instr.base = "A"; elt = Types.F64; index = Affine.sym "i";
                 access_lanes = 2 })
            (Types.vec Types.F64 2)
        in
        let bad =
          Instr.create
            (Instr.Shuffle (Instr.Ins wide, [ 0; 5 ]))
            (Types.vec Types.F64 2)
        in
        Block.append_list (Func.entry fb) [ wide; bad ];
        check_bool "rejected" true (not (Verifier.is_valid fb)));
    tc "permuted reuse of a vectorized column becomes one shuffle" (fun () ->
        (* both lanes multiply the same two sums, in swapped order: the
           second operand column is a pure permutation of the first (which
           vectorizes), so it must be emitted as a single shuffle *)
        let f = compile {|
kernel k(f64 R[], f64 A[], f64 B[], i64 i) {
  R[i+0] = (A[i+0] + B[i+0]) * 2.0 + (A[i+1] + B[i+1]) * 3.0;
  R[i+1] = (A[i+1] + B[i+1]) * 2.0 + (A[i+0] + B[i+0]) * 3.0;
}
|} in
        let reference = Func.clone f in
        let _, g = vectorize ~config:Config.lslp f in
        check_bool "has shuffle" true (count_kind is_shuffle g > 0);
        check_int "no extracts needed" 0
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Extract _ -> true | _ -> false)
             g);
        assert_sound ~reference ~candidate:g ());
    tc "interp: reduce folds all lanes" (fun () ->
        check_bool "sum" true
          (let v = Lslp_interp.Eval.VF 0.0 in
           ignore v;
           true);
        (* semantic check through a kernel *)
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3];
}
|} in
        ignore (Reduction.run ~config:Config.lslp (entry_analysis f));
        let mem = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.set_float mem "A" [| 1.0; 2.0; 3.0; 4.0 |];
        Lslp_interp.Memory.set_float mem "S" [| 0.0 |];
        ignore
          (Lslp_interp.Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
        check_bool "10.0" true (Lslp_interp.Memory.read_float mem "S" 0 = 10.0));
  ]

let suite = detection_tests @ vectorize_tests @ shuffle_tests
