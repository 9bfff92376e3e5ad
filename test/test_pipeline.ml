(* End-to-end pipeline tests: the Figure-1 driver loop, thresholds,
   configuration presets and reports. *)

open Lslp_core
open Helpers
module Inject = Lslp_robust.Inject

let pipeline_tests =
  [
    tc "unprofitable regions stay scalar and unchanged" (fun () ->
        let f = kernel "motivation-loads" in
        let n = Lslp_ir.Block.length (Lslp_ir.Func.entry f) in
        let report = Pipeline.run ~config:Config.slp f in
        check_int "no vectorization" 0 report.Pipeline.vectorized_regions;
        check_int "block unchanged" n
          (Lslp_ir.Block.length (Lslp_ir.Func.entry f)));
    tc "threshold moves the profitability bar" (fun () ->
        (* figure 2 under SLP costs exactly 0: threshold 1 accepts it *)
        let f = kernel "motivation-loads" in
        let config = Config.with_threshold 1 Config.slp in
        let report = Pipeline.run ~config f in
        check_int "vectorized at threshold 1" 1
          report.Pipeline.vectorized_regions);
    tc "regions report their seed description" (fun () ->
        let f = kernel "motivation-loads" in
        let report = Pipeline.run ~config:Config.lslp f in
        match report.Pipeline.regions with
        | [ r ] ->
          check_bool "mentions A" true
            (String.length r.Pipeline.seed_desc > 0
             && r.Pipeline.seed_desc.[0] = 'A');
          check_int "VL" 2 r.Pipeline.lanes
        | _ -> Alcotest.fail "expected one region");
    tc "total_cost sums only vectorized regions" (fun () ->
        let f = kernel "motivation-loads" in
        let report = Pipeline.run ~config:Config.slp f in
        check_int "nothing vectorized -> 0" 0 report.Pipeline.total_cost);
    tc "run_cloned leaves the input untouched" (fun () ->
        let f = kernel "motivation-multi" in
        let before = Lslp_ir.Printer.func_to_string f in
        let _report, _g = Pipeline.run_cloned ~config:Config.lslp f in
        check_string "unchanged" before (Lslp_ir.Printer.func_to_string f));
    tc "multiple independent regions all vectorize" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 R[], i64 S[], i64 i) {
  R[i+0] = A[i+0] + B[i+0];
  R[i+1] = A[i+1] + B[i+1];
  S[i+0] = A[i+2] * B[i+2];
  S[i+1] = A[i+3] * B[i+3];
}
|} in
        let reference = Lslp_ir.Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "two regions" 2 report.Pipeline.vectorized_regions;
        assert_sound ~reference ~candidate:f ());
    tc "empty function is a no-op" (fun () ->
        let f = compile "kernel k() {}" in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "no regions" 0 (List.length report.Pipeline.regions));
  ]

let config_tests =
  [
    tc "preset names" (fun () ->
        check_string "lslp" "LSLP" Config.lslp.Config.name;
        check_string "slp" "SLP" Config.slp.Config.name;
        check_string "slp-nr" "SLP-NR" Config.slp_nr.Config.name;
        check_string "la" "LSLP-LA2" (Config.lslp_la 2).Config.name;
        check_string "multi" "LSLP-Multi3" (Config.lslp_multi 3).Config.name);
    tc "lslp_la keeps multi-nodes unlimited" (fun () ->
        check_bool "unlimited" true
          ((Config.lslp_la 0).Config.max_multinode_groups = None));
    tc "lslp_multi keeps look-ahead at 8" (fun () ->
        check_int "depth" 8 (Config.lslp_multi 2).Config.lookahead_depth);
    tc "multinode_limit clamps to >= 1" (fun () ->
        check_int "zero clamps" 1
          (Config.multinode_limit (Config.lslp_multi 0)));
    tc "effective_max_lanes respects the model" (fun () ->
        check_int "avx2" 4 (Config.effective_max_lanes Config.lslp Lslp_ir.Types.I64));
  ]

let sensitivity_tests =
  [
    tc "LA0 loses figure 2 (ties unbroken)" (fun () ->
        let f = kernel "motivation-loads" in
        let r0 = Pipeline.run ~config:(Config.lslp_la 0) (Lslp_ir.Func.clone f) in
        let r8 = Pipeline.run ~config:Config.lslp (Lslp_ir.Func.clone f) in
        check_bool "LA8 strictly better" true
          (r8.Pipeline.total_cost < r0.Pipeline.total_cost));
    tc "Multi1 loses figure 4 (chain not coarsened)" (fun () ->
        let f = kernel "motivation-multi" in
        let r1 =
          Pipeline.run ~config:(Config.lslp_multi 1) (Lslp_ir.Func.clone f)
        in
        let full = Pipeline.run ~config:Config.lslp (Lslp_ir.Func.clone f) in
        check_bool "full better" true
          (full.Pipeline.total_cost < r1.Pipeline.total_cost));
    tc "deeper look-ahead never hurts the motivating examples" (fun () ->
        List.iter
          (fun key ->
            let f = kernel key in
            let costs =
              List.map
                (fun d ->
                  (Pipeline.run ~config:(Config.lslp_la d)
                     (Lslp_ir.Func.clone f))
                    .Pipeline.total_cost)
                [ 1; 2; 4; 8 ]
            in
            let rec non_increasing = function
              | a :: (b :: _ as rest) -> a >= b && non_increasing rest
              | _ -> true
            in
            check_bool (key ^ " monotone") true (non_increasing costs))
          [ "motivation-loads"; "motivation-opcodes"; "motivation-multi" ]);
    tc "score-combine ablation: max also solves figure 2" (fun () ->
        let f = kernel "motivation-loads" in
        let config = Config.with_score_combine Config.Score_max Config.lslp in
        let report = Pipeline.run ~config f in
        check_int "vectorized" 1 report.Pipeline.vectorized_regions);
  ]

(* One region decision reaches four channels — the report row, its remark,
   the trace's [Region_outcome] and the block's committed-outcome counters.
   They are written at one site and must agree on every catalog kernel,
   with and without injected faults. *)
let channel_tests =
  let module Remark = Lslp_check.Remark in
  let module Trace = Lslp_trace.Trace in
  let agree what name expected got =
    let show rows =
      String.concat "; "
        (List.map
           (fun (block, seed, lanes, o) ->
             Fmt.str "[%s] %s VL=%d %s" block seed lanes (name o))
           rows)
    in
    if expected <> got then
      Alcotest.failf "%s:@.  expected %s@.  got      %s" what (show expected)
        (show got)
  in
  let one_run (k : Lslp_kernels.Catalog.kernel) base inject =
    let config = Config.(base |> with_remarks true |> with_trace true) in
    let config =
      match inject with
      | Some i -> Config.with_inject i config
      | None -> config
    in
    let what =
      Fmt.str "%s/%s/%s" k.key config.Config.name
        (if inject = None then "clean" else "injected")
    in
    let f = kernel k.key in
    ignore (Lslp_frontend.Unroll.run ~factor:4 f);
    let report = Pipeline.run ~config f in
    let rows =
      List.map
        (fun (r : Pipeline.region) ->
          (r.Pipeline.region_id, r.Pipeline.seed_desc, r.Pipeline.lanes,
           r.Pipeline.outcome))
        report.Pipeline.regions
    in
    let remarks =
      List.filter_map
        (fun (m : Remark.t) ->
          match m.Remark.outcome with
          | Remark.Reduction_unmatched _ -> None
          | o -> Some (m.Remark.block, m.Remark.region, m.Remark.lanes, o))
        report.Pipeline.remarks
    in
    agree (what ^ ": remarks") Remark.trace_name rows remarks;
    (* a rolled-back reduction keeps the events it recorded before the
       failure, so the trace matches the rows only on clean runs *)
    if inject = None then
      agree (what ^ ": trace") Fun.id
        (List.map (fun (b, s, l, o) -> (b, s, l, Remark.trace_name o)) rows)
        (List.filter_map
           (fun (e : Trace.event) ->
             match e.Trace.payload with
             | Trace.Region_outcome { seed; lanes; outcome; _ } ->
               Some (e.Trace.region, seed, lanes, outcome)
             | _ -> None)
           report.Pipeline.trace_events);
    let count block p =
      List.length (List.filter (fun (b, _, _, o) -> b = block && p o) rows)
    in
    List.iter
      (fun (block, (snap : Lslp_telemetry.Probe.snapshot)) ->
        let c = snap.Lslp_telemetry.Probe.s_counters in
        check_int
          (Fmt.str "%s [%s] vec" what block)
          (count block (fun o -> o = Remark.Vectorized))
          c.Lslp_telemetry.Probe.regions_vectorized;
        check_int
          (Fmt.str "%s [%s] degraded" what block)
          (count block (function
            | Remark.Degraded _ | Remark.Budget_exhausted _ -> true
            | _ -> false))
          c.Lslp_telemetry.Probe.regions_degraded)
      report.Pipeline.telemetry.Lslp_telemetry.Report.blocks
  in
  [
    tc "one decision, every channel agrees" (fun () ->
        List.iter
          (fun k ->
            List.iter
              (fun base ->
                one_run k base None;
                one_run k base (Some (Inject.make ~rate:0.5 ~seed:7 ())))
              Config.[ lslp; slp; slp_nr; lslp_la 2; lslp_multi 2 ])
          Lslp_kernels.Catalog.all);
  ]

let suite = pipeline_tests @ config_tests @ sensitivity_tests @ channel_tests
