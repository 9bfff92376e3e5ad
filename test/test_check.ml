(* The legality validator and the remarks engine.

   Mutation coverage: each way of corrupting a transformed function (lanes
   that were dependent, a schedule violating the original dependences, a
   lane-count lie in the provenance) must produce a diagnostic — and the
   genuine pipeline output must produce none, across the whole catalog. *)

open Lslp_ir
open Lslp_core
open Lslp_check
open Helpers

let has_rule rule diags =
  List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.rule = rule) diags

let show_diags diags =
  String.concat "; " (List.map Diagnostic.to_string diags)

let find_binop op f =
  Block.find_all (fun i -> Instr.binop i = Some op) (Func.entry f)

let vec2_of op a b =
  Instr.create ~name:"v"
    (Instr.Binop (op, Instr.Ins a, Instr.Ins b))
    (Types.vec Types.F64 2)

let swap_in_block (b : Block.t) x y =
  Block.set_order b
    (List.map
       (fun i ->
         if Instr.equal i x then y else if Instr.equal i y then x else i)
       (Block.to_list b))

(* ---- mutation tests: seeded corruptions must be caught ------------- *)

let test_dependent_lanes () =
  let f = compile
      "kernel k(f64 A[], f64 B[], f64 C[], f64 D[], i64 i) {\n\
      \  A[i] = (B[i] + C[i]) + D[i];\n\
       }"
  in
  let snap = Legality.snapshot f in
  match find_binop Opcode.Fadd f with
  | [ inner; outer ] ->
    let provenance =
      [ { Legality.lanes = [| inner; outer |];
          vector = vec2_of Opcode.Fadd inner outer } ]
    in
    let diags = Legality.validate ~provenance snap f in
    check_bool "dependent lanes flagged" true
      (has_rule "lane-independence" diags)
  | adds -> Alcotest.failf "expected 2 adds, got %d" (List.length adds)

let two_lane_src =
  "kernel k(f64 A[], f64 B[], f64 C[], i64 i) {\n\
  \  A[i] = B[i] + C[i];\n\
  \  A[i+1] = B[i+1] + C[i+1];\n\
   }"

let test_independent_lanes_clean () =
  let f = compile two_lane_src in
  let snap = Legality.snapshot f in
  match find_binop Opcode.Fadd f with
  | [ a1; a2 ] ->
    let provenance =
      [ { Legality.lanes = [| a1; a2 |]; vector = vec2_of Opcode.Fadd a1 a2 } ]
    in
    let diags = Legality.validate ~provenance snap f in
    check_string "no diagnostics" "" (show_diags diags)
  | adds -> Alcotest.failf "expected 2 adds, got %d" (List.length adds)

let test_broken_schedule () =
  let f = compile
      "kernel k(f64 A[], f64 B[], f64 C[], i64 i) {\n\
      \  A[i] = B[i] + C[i];\n\
      \  A[i+1] = B[i+1] + C[i+1];\n\
      \  C[i+9] = B[i+9] * 3.0;\n\
       }"
  in
  let g = Func.clone f in
  let snap = Legality.snapshot g in
  ignore (Pipeline.run ~config:Config.lslp g);
  check_string "clean before corruption" ""
    (show_diags (Legality.validate snap g));
  (* the surviving scalar chain: swap the store with the mul it consumes *)
  let store =
    List.hd
      (Block.find_all
         (fun i ->
           Instr.is_store i
           && match Instr.address i with
              | Some a -> a.Instr.base = "C"
              | None -> false)
         (Func.entry g))
  in
  let mul = List.hd (find_binop Opcode.Fmul g) in
  swap_in_block (Func.entry g) store mul;
  let diags = Legality.validate snap g in
  check_bool "violated order flagged" true (has_rule "dependence-order" diags)

let test_wrong_lane_count () =
  let f = compile two_lane_src in
  let snap = Legality.snapshot f in
  match find_binop Opcode.Fadd f with
  | [ a1; a2 ] ->
    let wide =
      Instr.create ~name:"v"
        (Instr.Binop (Opcode.Fadd, Instr.Ins a1, Instr.Ins a2))
        (Types.vec Types.F64 4)
    in
    let provenance = [ { Legality.lanes = [| a1; a2 |]; vector = wide } ] in
    let diags = Legality.validate ~provenance snap f in
    check_bool "lane-count lie flagged" true (has_rule "bundle-typing" diags)
  | adds -> Alcotest.failf "expected 2 adds, got %d" (List.length adds)

let test_mismatched_opcode () =
  let f = compile two_lane_src in
  let snap = Legality.snapshot f in
  let deps = Lslp_analysis.Depgraph.build (Arena.of_block (Func.entry f)) in
  let add = List.hd (find_binop Opcode.Fadd f) in
  (* a load the add does not consume, so only the opcode check can fire *)
  let load =
    List.hd
      (List.filter
         (fun i -> not (Lslp_analysis.Depgraph.depends deps add ~on:i))
         (Block.find_all Instr.is_load (Func.entry f)))
  in
  let provenance =
    [ { Legality.lanes = [| add; load |]; vector = vec2_of Opcode.Fadd add load } ]
  in
  let diags = Legality.validate ~provenance snap f in
  check_bool "opcode mismatch flagged" true (has_rule "bundle-typing" diags)

(* ---- mutation tests: masked IR ------------------------------------- *)

let cond_src =
  "kernel k(f64 g[], f64 a[], f64 y[], i64 i) {\n\
  \  if (g[i] < 0.0) { a[i] = 1.5; }\n\
  \  y[i] = a[i] * 2.0;\n\
   }"

let find_masked_store f =
  List.hd
    (Block.find_all
       (fun i ->
         match i.Instr.kind with Instr.Masked_store _ -> true | _ -> false)
       (Func.entry f))

let test_corrupt_mask_operand () =
  (* swap the masked store's i1 mask for an i64 constant: the verifier
     must reject the function with a typed message, not misexecute it *)
  let f = compile cond_src in
  Verifier.verify_exn f;
  let ms = find_masked_store f in
  (match ms.Instr.kind with
   | Instr.Masked_store (a, v, _) ->
     Instr.set_kind ms
       (Instr.Masked_store (a, v, Instr.Const (Instr.Cint 1L)))
   | _ -> assert false);
  match Verifier.check_func f with
  | [] -> Alcotest.fail "corrupt mask accepted"
  | e :: _ ->
    let msg = Verifier.error_to_string e in
    check_bool (Fmt.str "names the mask (%s)" msg) true
      (String.length msg > 0)

let test_corrupt_select_mask () =
  let f =
    compile
      "kernel k(f64 x[], f64 y[], i64 i) {\n\
      \  if (x[i] < 0.5) { f64 t = 1.0; } else { f64 t = 2.0; }\n\
      \  y[i] = t;\n\
       }"
  in
  Verifier.verify_exn f;
  let sel =
    List.hd
      (Block.find_all
         (fun i ->
           match i.Instr.kind with Instr.Select _ -> true | _ -> false)
         (Func.entry f))
  in
  (match sel.Instr.kind with
   | Instr.Select (_, a, b) ->
     Instr.set_kind sel
       (Instr.Select (Instr.Const (Instr.Cfloat 1.0), a, b))
   | _ -> assert false);
  check_bool "non-mask selector rejected" true (Verifier.check_func f <> [])

let test_masked_store_reordered_past_load () =
  (* a masked store is a may-write: moving it past a load of the same
     array must violate the recorded dependence order *)
  let f = compile cond_src in
  let snap = Legality.snapshot f in
  check_string "clean before corruption" ""
    (show_diags (Legality.validate snap f));
  let ms = find_masked_store f in
  let load =
    List.hd
      (Block.find_all
         (fun i ->
           Instr.is_load i
           && match Instr.address i with
              | Some a -> a.Instr.base = "a"
              | None -> false)
         (Func.entry f))
  in
  swap_in_block (Func.entry f) ms load;
  let diags = Legality.validate snap f in
  check_bool "violated order flagged" true (has_rule "dependence-order" diags)

(* ---- the genuine pipeline must validate cleanly -------------------- *)

let main_configs = [ Config.slp_nr; Config.slp; Config.lslp ]

let test_catalog_clean () =
  List.iter
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      List.iter
        (fun config ->
          let config = Config.with_validate true config in
          let report, _ =
            Pipeline.run_cloned ~config (Lslp_kernels.Catalog.compile k)
          in
          match report.Pipeline.diagnostics with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s under %s: %s" k.key config.Config.name
              (show_diags ds))
        main_configs)
    Lslp_kernels.Catalog.all

(* ---- verifier checkpoints ------------------------------------------ *)

let test_checkpoints_silent () =
  (* with validation on, the per-pass structural checkpoints must stay
     silent on well-formed input — and the report must carry them as
     diagnostics, not exceptions, if they ever fire *)
  let f = kernel "453.vsumsqr" in
  let config = Config.with_validate true Config.lslp in
  let report, g = Pipeline.run_cloned ~config f in
  check_string "no checkpoint diagnostics" ""
    (show_diags report.Pipeline.diagnostics);
  assert_sound ~reference:f ~candidate:g ()

(* ---- remarks engine ------------------------------------------------ *)

let analyze ?(config = Config.lslp) f =
  let config = Config.(config |> with_remarks true |> with_validate true) in
  Pipeline.run_cloned ~config f

let test_remark_vectorized () =
  let report, _ = analyze (kernel "motivation-multi") in
  match report.Pipeline.remarks with
  | r :: _ ->
    check_bool "vectorized outcome" true (r.Remark.outcome = Remark.Vectorized);
    check_bool "cost recorded" true (r.Remark.cost <> None);
    let lines = Remark.explain r in
    check_bool "outcome rule fires" true
      (List.mem_assoc "outcome" lines)
  | [] -> Alcotest.fail "no remarks"

let test_remark_seed_rejected () =
  (* the second store reads the first one's output: the seed bundle's lanes
     depend on one another, so the region never vectorizes *)
  let f = compile
      "kernel dep(i64 A[], i64 B[], i64 i) {\n\
      \  A[i] = B[i] << 1;\n\
      \  A[i+1] = A[i] << 1;\n\
       }"
  in
  let report, _ = analyze f in
  match report.Pipeline.remarks with
  | r :: _ ->
    check_bool "kept scalar" true (r.Remark.outcome = Remark.Unprofitable);
    check_bool "seed rejection noted" true
      (List.exists
         (function Remark.Seed_rejected _ -> true | _ -> false)
         r.Remark.notes)
  | [] -> Alcotest.fail "no remarks"

let test_remark_gathered_columns () =
  let report, _ = analyze ~config:Config.slp_nr (kernel "motivation-opcodes") in
  match report.Pipeline.remarks with
  | r :: _ ->
    check_bool "column rejections noted" true
      (List.exists
         (function Remark.Column_rejected _ -> true | _ -> false)
         r.Remark.notes)
  | [] -> Alcotest.fail "no remarks"

let test_remarks_cover_regions () =
  (* one remark per region considered, across the catalog *)
  List.iter
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      let report, _ = analyze (Lslp_kernels.Catalog.compile k) in
      let seed_remarks =
        List.filter
          (fun (r : Remark.t) ->
            match r.Remark.outcome with
            | Remark.Reduction_unmatched _ -> false
            | _ -> true)
          report.Pipeline.remarks
      in
      check_int
        (Fmt.str "%s: remark per region" k.key)
        (List.length report.Pipeline.regions)
        (List.length seed_remarks))
    Lslp_kernels.Catalog.all

let test_json_escaping () =
  let r =
    {
      Remark.region = "weird \"name\"\n";
      block = "entry";
      lanes = 2;
      cost = None;
      threshold = 0;
      outcome = Remark.Not_schedulable;
      notes = [];
    }
  in
  let json =
    Remark.report_to_json ~config_name:"LSLP" ~func_name:"f" ~diagnostics:[]
      [ r ]
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s
                   && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "quotes escaped" true
    (contains ~sub:{|weird \"name\"\n|} json);
  check_bool "null cost" true (contains ~sub:{|"cost":null|} json);
  check_bool "outcome tagged" true
    (contains ~sub:{|"outcome":"not-schedulable"|} json)

(* ---- properties: validator holds over random inputs ---------------- *)

let gen_config =
  let open QCheck2.Gen in
  oneof
    [
      oneofl [ Config.slp_nr; Config.slp; Config.lslp ];
      (let* d = int_bound 8 in
       return (Config.lslp_la d));
      (let* m = int_range 1 4 in
       return (Config.lslp_multi m));
    ]

let validates_and_equivalent config reference =
  let config = Config.with_validate true config in
  let report, candidate = Pipeline.run_cloned ~config reference in
  report.Pipeline.diagnostics = []
  && Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate ()

let qcheck_catalog =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"catalog kernels validate and stay equivalent under random \
              configs"
       ~print:(fun (key, (config : Config.t)) ->
         Fmt.str "%s under %s" key config.Config.name)
       QCheck2.Gen.(
         pair
           (oneofl
              (List.map
                 (fun (k : Lslp_kernels.Catalog.kernel) -> k.key)
                 Lslp_kernels.Catalog.all))
           gen_config)
       (fun (key, config) -> validates_and_equivalent config (kernel key)))

let qcheck_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"random kernels validate and stay equivalent under random \
              configs"
       ~print:(fun (d, (config : Config.t)) ->
         Fmt.str "%s under %s" (Test_qcheck.print_kdesc d) config.Config.name)
       QCheck2.Gen.(pair Test_qcheck.gen_kdesc gen_config)
       (fun (d, config) ->
         validates_and_equivalent config (Test_qcheck.build_kernel d)))

let suite =
  [
    tc "fabricated dependent lanes are flagged" test_dependent_lanes;
    tc "independent lanes validate cleanly" test_independent_lanes_clean;
    tc "broken schedule is flagged" test_broken_schedule;
    tc "provenance lane-count lie is flagged" test_wrong_lane_count;
    tc "mismatched lane opcode is flagged" test_mismatched_opcode;
    tc "corrupt masked-store mask operand is flagged" test_corrupt_mask_operand;
    tc "non-mask select selector is flagged" test_corrupt_select_mask;
    tc "masked store reordered past an overlapping load is flagged"
      test_masked_store_reordered_past_load;
    tc "whole catalog validates cleanly under all main configs"
      test_catalog_clean;
    tc "verifier checkpoints stay silent on well-formed input"
      test_checkpoints_silent;
    tc "vectorized region gets an outcome remark with its cost"
      test_remark_vectorized;
    tc "rejected seed names its rejection reason" test_remark_seed_rejected;
    tc "gathered operand columns are noted" test_remark_gathered_columns;
    tc "one remark per region across the catalog" test_remarks_cover_regions;
    tc "JSON output escapes strings and encodes null costs"
      test_json_escaping;
    qcheck_catalog;
    qcheck_random;
  ]
