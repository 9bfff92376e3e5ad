(* Horizontal reductions: the other seed idiom (paper §2.2).

   A dot-product-style accumulation chain is rewritten as wide loads, one
   element-wise multiply, a horizontal reduce, and a scalar tail.

   Run with:  dune exec examples/reduction_demo.exe *)

open Lslp_core

let source = {|
kernel dot8(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[8*i+0] * B[8*i+0] + A[8*i+1] * B[8*i+1]
       + A[8*i+2] * B[8*i+2] + A[8*i+3] * B[8*i+3]
       + (A[8*i+4] * B[8*i+4] + A[8*i+5] * B[8*i+5])
       + A[8*i+6] * B[8*i+6] + A[8*i+7] * B[8*i+7]
       + 0.5;
}
|}

let () =
  let scalar = Lslp_frontend.Lower.compile_string source in
  Fmt.pr "=== scalar (17 instructions of accumulation) ===@.%a@.@."
    Lslp_ir.Printer.pp_func scalar;

  (* The candidates the detector sees: one fadd chain with 8 product leaves
     (associativity differences in the source are irrelevant — the chain
     walker collects the whole tree). *)
  List.iter
    (fun (c : Reduction.candidate) ->
      Fmt.pr "candidate: %s chain of %d ops, %d leaves@."
        (Lslp_ir.Opcode.binop_name c.cand_op)
        (List.length c.cand_chain)
        (List.length c.cand_leaves))
    (Reduction.collect_candidates
       (Block_analysis.create (Lslp_ir.Func.entry scalar)));

  let vectorized = Lslp_ir.Func.clone scalar in
  let regions =
    Reduction.run ~config:Config.lslp
      (Block_analysis.create (Lslp_ir.Func.entry vectorized))
  in
  List.iter
    (fun (r : Reduction.region) ->
      Fmt.pr "%s: W=%d, cost %+d, %s@." r.root_desc r.lanes r.cost
        (if r.outcome = Lslp_check.Remark.Vectorized then "vectorized"
         else "kept scalar"))
    regions;
  Fmt.pr "@.=== vectorized ===@.%a@.@." Lslp_ir.Printer.pp_func vectorized;

  Lslp_ir.Verifier.verify_exn vectorized;
  let o =
    Lslp_interp.Oracle.compare_runs ~reference:scalar ~candidate:vectorized ()
  in
  assert (o.mismatches = []);
  Fmt.pr "simulated: %d -> %d cycles (%.2fx)@." o.reference_cycles
    o.candidate_cycles
    (float_of_int o.reference_cycles /. float_of_int o.candidate_cycles)
