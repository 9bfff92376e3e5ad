(* Telemetry and the memoized look-ahead scorer.

   The load-bearing property is differential: for any program and any
   configuration, running the pipeline with [Config.score_cache] on and
   off produces identical IR (modulo instruction-id renaming), identical
   remarks and identical region outcomes — the cache is an observable
   no-op.  On top of that, the catalog run asserts the cache actually
   pays: at the default look-ahead depth it must at least halve the
   number of score evaluations, measured by the counters themselves. *)

open Lslp_ir
open Lslp_core
open Helpers
module Probe = Lslp_telemetry.Probe
module Report = Lslp_telemetry.Report
module Score_cache = Lslp_telemetry.Score_cache
module Budget = Lslp_robust.Budget
module Catalog = Lslp_kernels.Catalog
module Gen = Lslp_fuzz.Gen

let unroll_factor = 4

(* Region formation + pipeline on a clone, like the lslpc driver; returns
   the report and the canonical printed IR (instruction labels embed a
   process-global counter, so raw text never matches across runs). *)
let run_with ~cache ?(config = Config.lslp) reference =
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
  let report =
    Pipeline.run ~config:(Config.with_score_cache cache config) candidate
  in
  (report, Printer.canonical candidate)

let total (report : Pipeline.report) =
  Report.total_counters report.Pipeline.telemetry

let remark_strings (report : Pipeline.report) =
  List.map (Fmt.str "%a" Lslp_check.Remark.pp) report.Pipeline.remarks

let vectorized_ids (report : Pipeline.report) =
  List.sort_uniq String.compare
    (List.filter_map
       (fun r ->
         if r.Pipeline.vectorized then Some r.Pipeline.region_id else None)
       report.Pipeline.regions)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

(* ---- probe counters and timers ------------------------------------ *)

let probe_tests =
  [
    tc "fresh counters are zero under every projection" (fun () ->
        let c = Probe.zero_counters () in
        check_int "field count" 9 (List.length Probe.counter_fields);
        List.iter
          (fun (label, proj) -> check_int label 0 (proj c))
          Probe.counter_fields);
    tc "add_counters sums pointwise" (fun () ->
        let a = Probe.zero_counters () and b = Probe.zero_counters () in
        a.Probe.score_evals <- 3;
        a.Probe.regions_vectorized <- 1;
        b.Probe.score_evals <- 4;
        b.Probe.score_hits <- 2;
        Probe.add_counters ~into:a b;
        check_int "evals" 7 a.Probe.score_evals;
        check_int "hits" 2 a.Probe.score_hits;
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

(* ---- the score cache ----------------------------------------------- *)

let cache_tests =
  [
    tc "store/find round-trips, misses stay misses" (fun () ->
        let c = Score_cache.create () in
        check_bool "initial miss" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = None);
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        check_bool "hit" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = Some 7);
        check_int "size" 1 (Score_cache.size c));
    tc "every key component discriminates" (fun () ->
        let c = Score_cache.create () in
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        List.iter
          (fun (a, b, level, mode) ->
            check_bool "distinct key misses" true
              (Score_cache.find c ~a ~b ~level ~mode = None))
          [ (2, 1, 3, 0); (1, 2, 2, 0); (1, 2, 3, 1); (9, 2, 3, 0) ]);
    tc "clear empties the table" (fun () ->
        let c = Score_cache.create () in
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        Score_cache.clear c;
        check_int "size" 0 (Score_cache.size c);
        check_bool "miss after clear" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = None));
  ]

(* ---- report aggregation -------------------------------------------- *)

let report_tests =
  [
    tc "make totals the per-block snapshots" (fun () ->
        let snap evals hits =
          let p = Probe.create () in
          (Probe.counters p).Probe.score_evals <- evals;
          (Probe.counters p).Probe.score_hits <- hits;
          Probe.snapshot p
        in
        let r =
          Report.make ~func:"f" ~config:"LSLP"
            [ ("entry", snap 2 1); ("loop", snap 5 4) ]
        in
        check_int "evals" 7 (Report.total_counters r).Probe.score_evals;
        check_int "hits" 5 (Report.total_counters r).Probe.score_hits);
    tc "empty report totals to zero" (fun () ->
        let r = Report.empty ~func:"f" ~config:"LSLP" in
        List.iter
          (fun (label, proj) ->
            check_int label 0 (proj (Report.total_counters r)))
          Probe.counter_fields);
    tc "counter table is deterministic and names every block" (fun () ->
        let reference = kernel "453.vsumsqr" in
        let report, _ = run_with ~cache:true reference in
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
        let report, _ = run_with ~cache:true reference in
        let json = Report.to_json report.Pipeline.telemetry in
        List.iter
          (fun key -> check_bool key true (contains json key))
          [ "\"function\""; "\"config\""; "\"blocks\""; "\"evals\"";
            "\"timers\""; "\"total\"" ]);
  ]

(* ---- memoization pays, and is invisible (acceptance criterion) ----- *)

let memo_tests =
  [
    tc "catalog: cache at least halves score evaluations, IR unchanged"
      (fun () ->
        let cached_total = ref 0 and uncached_total = ref 0 in
        List.iter
          (fun (k : Catalog.kernel) ->
            let reference = Catalog.compile k in
            let rc, irc = run_with ~cache:true reference in
            let ru, iru = run_with ~cache:false reference in
            check_string (k.Catalog.key ^ " IR") iru irc;
            check_int (k.Catalog.key ^ " uncached runs cacheless") 0
              ((total ru).Probe.score_hits + (total ru).Probe.score_misses);
            cached_total := !cached_total + (total rc).Probe.score_evals;
            uncached_total := !uncached_total + (total ru).Probe.score_evals)
          Catalog.all;
        check_bool "cache saw work" true (!cached_total > 0);
        check_bool
          (Fmt.str "2x fewer evals (cached %d vs uncached %d)" !cached_total
             !uncached_total)
          true
          (2 * !cached_total <= !uncached_total));
    tc "vsumsqr telemetry shape" (fun () ->
        let report, _ = run_with ~cache:true (kernel "453.vsumsqr") in
        let c = total report in
        check_int "one region vectorized" 1 c.Probe.regions_vectorized;
        check_int "none degraded" 0 c.Probe.regions_degraded;
        check_bool "cache hits observed" true (c.Probe.score_hits > 0);
        check_bool "graph nodes built" true (c.Probe.graph_nodes > 0);
        check_bool "instructions emitted" true (c.Probe.instrs_emitted > 0));
  ]

(* ---- differential equivalence over generated programs -------------- *)

let qcheck_cache_diff =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"cached and uncached scoring are observationally identical"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Gen.generate st in
         let reference = Gen.build prog in
         Array.for_all
           (fun base ->
             let config = Config.with_remarks true base in
             let rc, irc = run_with ~cache:true ~config reference in
             let ru, iru = run_with ~cache:false ~config reference in
             irc = iru
             && remark_strings rc = remark_strings ru
             && rc.Pipeline.vectorized_regions
                = ru.Pipeline.vectorized_regions
             && rc.Pipeline.degraded_regions = ru.Pipeline.degraded_regions)
           config_pool))

(* ---- cache vs fuel budget ------------------------------------------ *)

(* Cache hits burn no fuel, so at every point of the (identical) search
   the cached run has spent no more fuel than the uncached one: any
   region the uncached run finishes, the cached run finishes identically.
   Vectorized regions can only be gained, degradations only lost. *)
let qcheck_budget_superset =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"under tight fuel the cache never loses a region"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Gen.generate st in
         let reference = Gen.build prog in
         let fuel = 5 + Random.State.int st 150 in
         let tight =
           Config.with_budget
             { Budget.default with Budget.lookahead_fuel = fuel }
             Config.lslp
         in
         let rc, _ = run_with ~cache:true ~config:tight reference in
         let ru, _ = run_with ~cache:false ~config:tight reference in
         subset (vectorized_ids ru) (vectorized_ids rc)
         && rc.Pipeline.degraded_regions <= ru.Pipeline.degraded_regions))

let budget_tests =
  [
    tc "tight fuel over the catalog: cached keeps every uncached region"
      (fun () ->
        List.iter
          (fun fuel ->
            let tight =
              Config.with_budget
                { Budget.default with Budget.lookahead_fuel = fuel }
                Config.lslp
            in
            List.iter
              (fun (k : Catalog.kernel) ->
                let reference = Catalog.compile k in
                let rc, _ = run_with ~cache:true ~config:tight reference in
                let ru, _ = run_with ~cache:false ~config:tight reference in
                check_bool
                  (Fmt.str "%s fuel=%d superset" k.Catalog.key fuel)
                  true
                  (subset (vectorized_ids ru) (vectorized_ids rc));
                check_bool
                  (Fmt.str "%s fuel=%d degradations" k.Catalog.key fuel)
                  true
                  (rc.Pipeline.degraded_regions
                   <= ru.Pipeline.degraded_regions))
              Catalog.all)
          [ 20; 60; 150 ]);
    tc "an exhausted region leaves no stale cache state behind" (fun () ->
        let reference = kernel "453.vsumsqr" in
        (* control run first, then an exhausting run, then the probe run:
           if any cache entry outlived the rollback, the probe run would
           differ from the control *)
        let control_report, control_ir = run_with ~cache:true reference in
        let tight =
          Config.with_budget
            { Budget.default with Budget.lookahead_fuel = 10 }
            Config.lslp
        in
        let exhausted, _ = run_with ~cache:true ~config:tight reference in
        check_bool "tight run actually degraded" true
          (exhausted.Pipeline.degraded_regions > 0);
        let probe_report, probe_ir = run_with ~cache:true reference in
        check_string "same IR" control_ir probe_ir;
        List.iter
          (fun (label, proj) ->
            check_int label
              (proj (total control_report))
              (proj (total probe_report)))
          Probe.counter_fields);
  ]

let suite =
  probe_tests @ cache_tests @ report_tests @ memo_tests
  @ [ qcheck_cache_diff; qcheck_budget_superset ]
  @ budget_tests
