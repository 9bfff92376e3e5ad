(* Shared helpers for the test suites. *)

open Lslp_ir

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(* Compile a kernel-language snippet. *)
let compile = Lslp_frontend.Lower.compile_string

(* Compile a catalog kernel. *)
let kernel = Lslp_kernels.Catalog.compile_key

(* Run a config on a clone, returning (report, transformed). *)
let vectorize ?(config = Lslp_core.Config.lslp) f =
  Lslp_core.Pipeline.run_cloned ~config f

(* Assert the transformed function verifies and is observationally
   equivalent to the reference on seeded random inputs. *)
let assert_sound ?(seeds = [ 1; 7; 42 ]) ~reference ~candidate () =
  (match Verifier.check_func candidate with
   | [] -> ()
   | errors ->
     Alcotest.failf "verifier rejected transformed IR: %s"
       (String.concat "; " (List.map Verifier.error_to_string errors)));
  List.iter
    (fun seed ->
      let outcome =
        Lslp_interp.Oracle.compare_runs ~seed ~reference ~candidate ()
      in
      match outcome.mismatches with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "semantic mismatch (seed %d): %s" seed
          (Fmt.str "%a" Lslp_interp.Memory.pp_mismatch m))
    seeds

(* Total static cost of the regions a config actually vectorizes (the
   Figure 10 metric: rejected regions stay scalar, contributing nothing). *)
let total_cost config f =
  let report, _ = vectorize ~config f in
  report.Lslp_core.Pipeline.total_cost

let vectorized_regions config f =
  let report, _ = vectorize ~config f in
  report.Lslp_core.Pipeline.vectorized_regions

(* Count instructions matching a predicate across every block. *)
let count_insts p (f : Func.t) =
  Func.fold_instrs (fun acc i -> if p i then acc + 1 else acc) 0 f

let is_vector_op (i : Instr.t) = Types.is_vector i.Instr.ty

let is_wide_store (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Store (a, _) -> a.Instr.access_lanes > 1
  | _ -> false

let is_wide_load (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Load a -> a.Instr.access_lanes > 1
  | _ -> false

(* The analysis of a single-block function's entry block, as the pipeline
   builds it: one value shared by every pass that reads the block. *)
let entry_analysis (f : Func.t) = Lslp_core.Block_analysis.create (Func.entry f)
