(* The paper's three motivating examples (Section 3), reproduced.

   For each example we run SLP-NR, SLP and LSLP and print the static cost
   each algorithm assigns to the region.  The expected numbers are the ones
   printed in Figures 2-4 of the paper:

     Figure 2 (load address mismatch):  SLP  0 (not vectorized), LSLP  -6
     Figure 3 (opcode mismatch):        SLP +4 (not vectorized), LSLP  -2
     Figure 4 (associativity mismatch): SLP -2 (partial),        LSLP -10

   Run with:  dune exec examples/motivating_examples.exe *)

open Lslp_core
open Lslp_kernels

let show key expected_slp expected_lslp =
  let kernel = Catalog.find key in
  Fmt.pr "==================================================@.";
  Fmt.pr "%s (%s, %s)@." kernel.key kernel.benchmark kernel.origin;
  Fmt.pr "%s@." kernel.source;
  let scalar = Catalog.compile kernel in
  List.iter
    (fun config ->
      let report, transformed = Pipeline.run_cloned ~config scalar in
      let cost =
        List.fold_left
          (fun acc (r : Pipeline.region) -> acc + r.cost.Cost.total)
          0 report.regions
      in
      Fmt.pr "%-8s cost %+d  %s@." config.Config.name cost
        (if report.vectorized_regions > 0 then "vectorized" else "kept scalar");
      Lslp_ir.Verifier.verify_exn transformed;
      assert (Lslp_interp.Oracle.equivalent ~reference:scalar
                ~candidate:transformed ()))
    [ Config.slp_nr; Config.slp; Config.lslp ];
  Fmt.pr "(paper: SLP %+d, LSLP %+d)@.@." expected_slp expected_lslp

let () =
  show "motivation-loads" 0 (-6);
  show "motivation-opcodes" 4 (-2);
  show "motivation-multi" (-2) (-10);
  (* And the graphs themselves, for the LSLP runs: *)
  List.iter
    (fun key ->
      let f = Catalog.compile_key key in
      let analysis = Block_analysis.create (Lslp_ir.Func.entry f) in
      match Seeds.collect Config.lslp analysis with
      | [ seed ] ->
        let graph, _ = Graph_builder.build Config.lslp analysis seed in
        Fmt.pr "=== LSLP graph for %s ===@.%a@.@." key Graph.pp graph
      | _ -> assert false)
    [ "motivation-loads"; "motivation-opcodes"; "motivation-multi" ]
