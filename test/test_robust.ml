(* Fail-soft pipeline tests: fault injection at every pass boundary,
   transactional rollback, resource budgets and the differential fuzzer.

   The load-bearing property, checked against every catalog kernel: no
   injected fault ever escapes [Pipeline.run], and whatever the pipeline
   leaves behind is structurally valid and observationally equivalent to
   the scalar reference. *)

open Lslp_ir
open Lslp_core
open Helpers
module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

let inject_point ?(seed = 3) p = Inject.make ~points:[ p ] ~rate:1.0 ~seed ()
let config_with p = Config.with_inject (inject_point p) Config.lslp

(* The reference keeps its loops; the candidate goes through region
   formation (unrolling) exactly like the lslpc driver. *)
let load key =
  let reference = kernel key in
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:4 candidate);
  (reference, candidate)

(* A kernel with a profitable reduction chain, for the reduction boundary. *)
let dot_src = {|
kernel dot(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
}
|}

(* ---- injection spec parsing and determinism ------------------------ *)

let inject_tests =
  [
    tc "parse accepts point, rate and seed forms" (fun () ->
        List.iter
          (fun spec ->
            match Inject.parse spec with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s rejected: %s" spec e)
          [ "codegen"; "all"; "reorder:0.5"; "all:0.25:7"; "corrupt:1.0:0" ]);
    tc "parse rejects junk" (fun () ->
        List.iter
          (fun spec ->
            match Inject.parse spec with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s accepted" spec)
          [ "bogus"; "codegen:nope"; "all:0.5:x"; "" ]);
    tc "point names round-trip" (fun () ->
        List.iter
          (fun p ->
            match Inject.point_of_name (Inject.point_name p) with
            | Some q -> check_bool (Inject.point_name p) true (p = q)
            | None -> Alcotest.fail "name did not round-trip")
          Inject.all_points);
    tc "same seed, same dice" (fun () ->
        let roll () =
          let i = Inject.make ~rate:0.5 ~seed:9 () in
          List.init 32 (fun _ -> Inject.fires i Inject.Codegen)
        in
        check_bool "deterministic" true (roll () = roll ()));
    tc "reseed keeps the spec, changes the dice" (fun () ->
        match Inject.parse "codegen:0.5:1" with
        | Error e -> Alcotest.fail e
        | Ok i ->
          let rolls j = List.init 64 (fun _ -> Inject.fires j Inject.Codegen) in
          let a = rolls (Inject.reseed i ~seed:1) in
          let b = rolls (Inject.reseed i ~seed:1) in
          let c = rolls (Inject.reseed i ~seed:2) in
          check_bool "same seed agrees" true (a = b);
          check_bool "different seed differs" true (a <> c));
    tc "corrupt_block damage is verifier-visible" (fun () ->
        let f = compile {|
kernel k(f64 R[], f64 A[], i64 i) { R[i] = A[i] + A[i+1]; }
|} in
        check_bool "corrupted" true (Inject.corrupt_block (Func.entry f));
        check_bool "verifier rejects it" false (Verifier.is_valid f));
    tc "corrupt_block on an empty block is a no-op" (fun () ->
        let f = compile "kernel k() {}" in
        check_bool "nothing to damage" false
          (Inject.corrupt_block (Func.entry f)));
  ]

(* ---- transactions -------------------------------------------------- *)

let transact_tests =
  [
    tc "protect restores the snapshot on failure" (fun () ->
        let f = kernel "motivation-loads" in
        let before = Printer.func_to_string f in
        let snapshot = Transact.snapshot_func f in
        (match
           Transact.protect ~snapshot ~pass:(fun () -> "test") (fun () ->
               ignore (Inject.corrupt_block (Func.entry f));
               failwith "boom")
         with
        | Ok () -> Alcotest.fail "expected a failure"
        | Error fl ->
          check_string "pass" "test" fl.Transact.pass;
          check_bool "error mentions boom" true (contains fl.Transact.error "boom");
          check_bool "not budget" false fl.Transact.budget_exhausted);
        check_string "rolled back" before (Printer.func_to_string f));
    tc "protect passes successful results through" (fun () ->
        let f = kernel "motivation-loads" in
        let snapshot = Transact.snapshot_func f in
        match
          Transact.protect ~snapshot ~pass:(fun () -> "test") (fun () -> 17)
        with
        | Ok v -> check_int "value" 17 v
        | Error _ -> Alcotest.fail "unexpected failure");
    tc "restore is idempotent" (fun () ->
        let f = kernel "motivation-loads" in
        let before = Printer.func_to_string f in
        let snapshot = Transact.snapshot_func f in
        Transact.restore snapshot;
        Transact.restore snapshot;
        check_string "unchanged" before (Printer.func_to_string f));
    tc "failure_of_exn classifies budget exhaustion" (fun () ->
        let fl =
          Transact.failure_of_exn ~pass:"graph-build"
            (Budget.Exhausted "fuel cap of 4")
        in
        check_bool "budget" true fl.Transact.budget_exhausted;
        check_string "pass" "graph-build" fl.Transact.pass);
    tc "failure_of_exn keeps Check_failed attribution" (fun () ->
        let fl =
          Transact.failure_of_exn ~pass:"outer"
            (Transact.Check_failed { pass = "verify"; error = "bad use" })
        in
        check_string "pass" "verify" fl.Transact.pass;
        check_string "error" "bad use" fl.Transact.error);
  ]

(* ---- rollback under injection, every boundary x every kernel ------- *)

let catalog_keys =
  List.map
    (fun (k : Lslp_kernels.Catalog.kernel) -> k.Lslp_kernels.Catalog.key)
    Lslp_kernels.Catalog.all

let rollback_tests =
  List.map
    (fun p ->
      tc
        (Fmt.str "inject %s: every catalog kernel stays sound"
           (Inject.point_name p))
        (fun () ->
          List.iter
            (fun key ->
              let reference, candidate = load key in
              let report = Pipeline.run ~config:(config_with p) candidate in
              check_bool
                (Fmt.str "%s: degraded count sane" key)
                true
                (report.Pipeline.degraded_regions >= 0);
              assert_sound ~reference ~candidate ())
            catalog_keys))
    Inject.all_points
  @ [
      tc "every main-path boundary produces a degraded region" (fun () ->
          List.iter
            (fun p ->
              let _, candidate = load "motivation-loads" in
              let report = Pipeline.run ~config:(config_with p) candidate in
              check_bool (Inject.point_name p) true
                (report.Pipeline.degraded_regions >= 1))
            [
              Inject.Graph_build; Inject.Reorder; Inject.Codegen;
              Inject.Verify; Inject.Corrupt; Inject.Cse; Inject.Dce;
            ]);
      tc "reduction boundary degrades the dot-product kernel" (fun () ->
          let f = compile dot_src in
          let reference = Func.clone f in
          let report =
            Pipeline.run ~config:(config_with Inject.Reduction) f
          in
          check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
          assert_sound ~reference ~candidate:f ());
      tc "all-points injection rolls every kernel back to scalar" (fun () ->
          List.iter
            (fun key ->
              let _, candidate = load key in
              let before = Printer.func_to_string candidate in
              let inject = Inject.make ~rate:1.0 ~seed:11 () in
              let config = Config.with_inject inject Config.lslp in
              let report = Pipeline.run ~config candidate in
              check_int
                (Fmt.str "%s: nothing vectorized" key)
                0 report.Pipeline.vectorized_regions;
              check_string
                (Fmt.str "%s: scalar-identical" key)
                before
                (Printer.func_to_string candidate))
            catalog_keys);
      tc "degraded regions carry the failing pass" (fun () ->
          let _, candidate = load "motivation-loads" in
          let report =
            Pipeline.run ~config:(config_with Inject.Codegen) candidate
          in
          let degraded =
            List.filter_map
              (fun r ->
                match r.Pipeline.outcome with
                | Lslp_check.Remark.Degraded { pass; _ } -> Some pass
                | _ -> None)
              report.Pipeline.regions
          in
          check_bool "at least one" true (degraded <> []);
          check_bool "names codegen" true (List.mem "codegen" degraded));
      tc "injection under validation produces no legality errors" (fun () ->
          let _, candidate = load "motivation-multi" in
          let config =
            Config.(
              lslp |> with_validate true
              |> with_inject (inject_point Inject.Corrupt))
          in
          let report = Pipeline.run ~config candidate in
          check_int "no diagnostics" 0
            (List.length
               (Lslp_check.Diagnostic.errors report.Pipeline.diagnostics)));
    ]

(* ---- resource budgets ---------------------------------------------- *)

let budget_tests =
  [
    tc "look-ahead fuel cap degrades, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.lookahead_fuel = 4 } in
        let config = Config.(lslp |> with_budget budget |> with_remarks true) in
        let reference, candidate = load "motivation-loads" in
        let report = Pipeline.run ~config candidate in
        check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
        check_bool "budget remark" true
          (List.exists
             (fun r ->
               match r.Lslp_check.Remark.outcome with
               | Lslp_check.Remark.Budget_exhausted _ -> true
               | _ -> false)
             report.Pipeline.remarks);
        check_bool "budget marker in the report" true
          (contains (Fmt.str "%a" Pipeline.pp_report report) " [budget]]");
        assert_sound ~reference ~candidate ());
    tc "graph-node cap degrades, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.max_graph_nodes = 1 } in
        let config = Config.with_budget budget Config.lslp in
        let reference, candidate = load "motivation-multi" in
        let report = Pipeline.run ~config candidate in
        check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
        assert_sound ~reference ~candidate ());
    tc "region-step cap caps the work, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.max_region_steps = 1 } in
        let config = Config.with_budget budget Config.lslp in
        let reference, candidate = load "453.boy-surface" in
        let _report = Pipeline.run ~config candidate in
        assert_sound ~reference ~candidate ());
    tc "default budget never fires on the catalog" (fun () ->
        List.iter
          (fun key ->
            let _, candidate = load key in
            let config = Config.with_budget Budget.default Config.lslp in
            let report = Pipeline.run ~config candidate in
            check_int (Fmt.str "%s: no degradation" key) 0
              report.Pipeline.degraded_regions)
          catalog_keys);
  ]

(* ---- reporting ----------------------------------------------------- *)

let report_tests =
  [
    tc "pp_report shows the degraded count and marker" (fun () ->
        let _, candidate = load "motivation-loads" in
        let report =
          Pipeline.run ~config:(config_with Inject.Graph_build) candidate
        in
        let s = Fmt.str "%a" Pipeline.pp_report report in
        check_bool "degraded visible" true (contains s "degraded"));
    tc "pp_report is unchanged on healthy runs" (fun () ->
        let _, candidate = load "motivation-loads" in
        let report = Pipeline.run ~config:Config.lslp candidate in
        let s = Fmt.str "%a" Pipeline.pp_report report in
        check_bool "no degraded chatter" false (contains s "degraded"));
    tc "degraded outcome renders in JSON remarks" (fun () ->
        let _, candidate = load "motivation-loads" in
        let config =
          Config.(
            lslp |> with_remarks true
            |> with_inject (inject_point Inject.Codegen))
        in
        let report = Pipeline.run ~config candidate in
        let json =
          Lslp_check.Remark.report_to_json ~config_name:"LSLP"
            ~func_name:"k" ~diagnostics:[] report.Pipeline.remarks
        in
        check_bool "mentions degraded" true (contains json "degraded"));
  ]

(* ---- differential fuzzer smoke ------------------------------------- *)

let fuzz_tests =
  [
    tc "fuzz: 60 pinned-seed cases, zero failures" (fun () ->
        let stats = Lslp_fuzz.Fuzz.run ~cases:60 ~seed:20260705 () in
        check_int "cases" 60 stats.Lslp_fuzz.Fuzz.cases;
        (match stats.Lslp_fuzz.Fuzz.failures with
        | [] -> ()
        | f :: _ -> Alcotest.failf "%a" Lslp_fuzz.Fuzz.pp_outcome f);
        check_bool "ok" true (Lslp_fuzz.Fuzz.ok stats));
    tc "fuzz: generation is deterministic per seed" (fun () ->
        let gen seed =
          let st = Random.State.make [| seed |] in
          List.init 10 (fun _ -> Lslp_fuzz.Gen.describe (Lslp_fuzz.Gen.generate st))
        in
        check_bool "same seed" true (gen 5 = gen 5);
        check_bool "different seed" true (gen 5 <> gen 6));
    tc "fuzz: forced faults everywhere, still zero failures" (fun () ->
        match Inject.parse "all:0.9:1" with
        | Error e -> Alcotest.fail e
        | Ok spec ->
          let stats =
            Lslp_fuzz.Fuzz.run ~cases:40 ~seed:7 ~inject_spec:spec ()
          in
          check_bool "ok" true (Lslp_fuzz.Fuzz.ok stats));
  ]

(* ---- rollback and analysis reuse ------------------------------------ *)

let reuse_tests =
  [
    tc "rate-0.5 injection: rollbacks keep the analysis, kernels stay sound"
      (fun () ->
        (* a fault before codegen's commit rolls the block back to the
           state its analysis describes, and the next seed reuses it; a
           graph-build or codegen Degraded row followed by a Vectorized
           row in one block shows that path ran *)
        let runs =
          List.concat_map
            (fun key ->
              List.concat_map
                (fun base ->
                  List.concat_map
                    (fun p ->
                      List.map (fun seed -> (key, base, p, seed)) [ 1; 2; 3 ])
                    [ Inject.Graph_build; Inject.Codegen; Inject.Verify;
                      Inject.Corrupt ])
                [ Config.lslp; Config.slp ])
            catalog_keys
        in
        let reused = ref 0 in
        List.iter
          (fun (key, base, p, seed) ->
            let reference, candidate = load key in
            let inject = Inject.make ~points:[ p ] ~rate:0.5 ~seed () in
            let report =
              Pipeline.run ~config:(Config.with_inject inject base) candidate
            in
            assert_sound ~reference ~candidate ();
            ignore
              (List.fold_left
                 (fun rolled_back (r : Pipeline.region) ->
                   match r.Pipeline.outcome with
                   | Lslp_check.Remark.Degraded
                       { pass = "graph-build" | "codegen"; _ } ->
                     r.Pipeline.region_id :: rolled_back
                   | Lslp_check.Remark.Vectorized ->
                     if List.mem r.Pipeline.region_id rolled_back then
                       incr reused;
                     rolled_back
                   | _ -> rolled_back)
                 [] report.Pipeline.regions))
          runs;
        check_bool "a block vectorized after a rollback" true (!reused > 0));
  ]

let suite =
  inject_tests @ transact_tests @ rollback_tests @ budget_tests
  @ report_tests @ fuzz_tests @ reuse_tests
