(* Telemetry: the probe counters and timers, their aggregation into
   per-function reports and the renderers over them, plus the counter
   shape of one real kernel and a budget rollback that must leave no
   trace in a later run. *)

open Lslp_ir
open Lslp_core
open Helpers
module Probe = Lslp_telemetry.Probe
module Report = Lslp_telemetry.Report
module Budget = Lslp_robust.Budget

let unroll_factor = 4

(* Region formation + pipeline on a clone, like the lslpc driver; returns
   the report and the canonical printed IR (instruction labels embed a
   process-global counter, so raw text never matches across runs). *)
let run_with ?(config = Config.lslp) reference =
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
  let report = Pipeline.run ~config candidate in
  (report, Printer.canonical candidate)

let total (report : Pipeline.report) =
  Report.total_counters report.Pipeline.telemetry

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

(* ---- probe counters and timers ------------------------------------ *)

let probe_tests =
  [
    tc "fresh counters are zero under every projection" (fun () ->
        let c = Probe.zero_counters () in
        check_int "field count" 7 (List.length Probe.counter_fields);
        List.iter
          (fun (label, proj) -> check_int label 0 (proj c))
          Probe.counter_fields);
    tc "add_counters sums pointwise" (fun () ->
        let a = Probe.zero_counters () and b = Probe.zero_counters () in
        a.Probe.score_evals <- 3;
        a.Probe.regions_vectorized <- 1;
        b.Probe.score_evals <- 4;
        b.Probe.graph_nodes <- 2;
        Probe.add_counters ~into:a b;
        check_int "evals" 7 a.Probe.score_evals;
        check_int "nodes" 2 a.Probe.graph_nodes;
        check_int "vectorized" 1 a.Probe.regions_vectorized;
        (* the source operand is left alone *)
        check_int "source evals" 4 b.Probe.score_evals);
    tc "span charges time and a call even when the thunk raises" (fun () ->
        let p = Probe.create () in
        (try Probe.span p "doomed" (fun () -> raise Exit)
         with Exit -> ());
        ignore (Probe.span p "doomed" (fun () -> 42));
        match (Probe.snapshot p).Probe.s_timers with
        | [ ("doomed", secs, calls) ] ->
          check_int "calls" 2 calls;
          check_bool "non-negative time" true (secs >= 0.0)
        | other ->
          Alcotest.failf "unexpected timer rows: %d" (List.length other));
    tc "merge sums snapshots and keeps first-seen timer order" (fun () ->
        let mk pass evals =
          let p = Probe.create () in
          (Probe.counters p).Probe.score_evals <- evals;
          ignore (Probe.span p pass (fun () -> ()));
          Probe.snapshot p
        in
        let m = Probe.merge [ mk "alpha" 2; mk "beta" 3; mk "alpha" 5 ] in
        check_int "evals" 10 m.Probe.s_counters.Probe.score_evals;
        check
          Alcotest.(list string)
          "timer order" [ "alpha"; "beta" ]
          (List.map (fun (name, _, _) -> name) m.Probe.s_timers);
        match m.Probe.s_timers with
        | [ (_, _, alpha_calls); (_, _, beta_calls) ] ->
          check_int "alpha calls" 2 alpha_calls;
          check_int "beta calls" 1 beta_calls
        | _ -> Alcotest.fail "expected two timer rows");
  ]

(* ---- report aggregation -------------------------------------------- *)

let report_tests =
  [
    tc "make totals the per-block snapshots" (fun () ->
        let snap evals nodes =
          let p = Probe.create () in
          (Probe.counters p).Probe.score_evals <- evals;
          (Probe.counters p).Probe.graph_nodes <- nodes;
          Probe.snapshot p
        in
        let r =
          Report.make ~func:"f" ~config:"LSLP"
            [ ("entry", snap 2 1); ("loop", snap 5 4) ]
        in
        check_int "evals" 7 (Report.total_counters r).Probe.score_evals;
        check_int "nodes" 5 (Report.total_counters r).Probe.graph_nodes);
    tc "empty report totals to zero" (fun () ->
        let r = Report.empty ~func:"f" ~config:"LSLP" in
        List.iter
          (fun (label, proj) ->
            check_int label 0 (proj (Report.total_counters r)))
          Probe.counter_fields);
    tc "counter table is deterministic and names every block" (fun () ->
        let reference = kernel "453.vsumsqr" in
        let report, _ = run_with reference in
        let render () =
          Fmt.str "%a" Report.pp_counters report.Pipeline.telemetry
        in
        let table = render () in
        check_string "stable across renders" table (render ());
        List.iter
          (fun (label, _) ->
            check_bool (label ^ " row present") true (contains table label))
          report.Pipeline.telemetry.Report.blocks;
        check_bool "total row" true (contains table "total"));
    tc "json carries func, config, blocks and counters" (fun () ->
        let reference = kernel "453.vsumsqr" in
        let report, _ = run_with reference in
        let json = Report.to_json report.Pipeline.telemetry in
        List.iter
          (fun key -> check_bool key true (contains json key))
          [ "\"function\""; "\"config\""; "\"blocks\""; "\"evals\"";
            "\"timers\""; "\"total\"" ]);
  ]

(* ---- one kernel's counters, and budget rollback ------------------ *)

let pipeline_tests =
  [
    tc "vsumsqr telemetry shape" (fun () ->
        let report, _ = run_with (kernel "453.vsumsqr") in
        let c = total report in
        check_int "one region vectorized" 1 c.Probe.regions_vectorized;
        check_int "none degraded" 0 c.Probe.regions_degraded;
        check_bool "graph nodes built" true (c.Probe.graph_nodes > 0);
        check_bool "instructions emitted" true (c.Probe.instrs_emitted > 0));
    tc "an exhausted region leaves no stale state behind" (fun () ->
        let reference = kernel "453.vsumsqr" in
        (* control run first, then an exhausting run, then the probe run:
           if any state outlived the rollback, the probe run would differ
           from the control *)
        let control_report, control_ir = run_with reference in
        let tight =
          Config.with_budget
            { Budget.default with Budget.lookahead_fuel = 10 }
            Config.lslp
        in
        let exhausted, _ = run_with ~config:tight reference in
        check_bool "tight run actually degraded" true
          (exhausted.Pipeline.degraded_regions > 0);
        let probe_report, probe_ir = run_with reference in
        check_string "same IR" control_ir probe_ir;
        List.iter
          (fun (label, proj) ->
            check_int label
              (proj (total control_report))
              (proj (total probe_report)))
          Probe.counter_fields);
  ]

let suite = probe_tests @ report_tests @ pipeline_tests
