(* The decision-trace layer (lib/trace).

   Two load-bearing properties:

   - {b zero-cost-when-off}: with [Config.trace] off (every stock
     configuration) the pipeline allocates no sink and the report's
     [trace_events] is empty — and, differentially, turning tracing on
     changes nothing observable: identical IR (modulo instruction-id
     renaming), identical remarks, identical deterministic counters.

   - {b the stream is well-formed}: logical timestamps are the sink's own
     monotone sequence, spans nest, graph events reference only nodes
     they introduced, and all three exporters accept every stream the
     pipeline can produce (the Chrome one re-parsed through the project's
     own JSON reader). *)

open Lslp_ir
open Lslp_core
open Helpers
module Trace = Lslp_trace.Trace
module Json = Lslp_util.Json
module Probe = Lslp_telemetry.Probe
module Report = Lslp_telemetry.Report
module Inject = Lslp_robust.Inject
module Catalog = Lslp_kernels.Catalog
module Gen = Lslp_fuzz.Gen

let unroll_factor = 4

let run_with ?(trace = false) ?(config = Config.lslp) reference =
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
  let report = Pipeline.run ~config:(Config.with_trace trace config) candidate in
  (report, Printer.canonical candidate)

let traced ?config key =
  let report, _ = run_with ~trace:true ?config (kernel key) in
  report.Pipeline.trace_events

let remark_strings (report : Pipeline.report) =
  List.map (Fmt.str "%a" Lslp_check.Remark.pp) report.Pipeline.remarks

let payload_names events =
  List.map (fun (e : Trace.event) -> Trace.payload_name e.Trace.payload) events

let count name events =
  List.length (List.filter (fun n -> n = name) (payload_names events))

(* ---- sink ---------------------------------------------------------- *)

let sink_tests =
  [
    tc "timestamps are the sink's own monotone sequence" (fun () ->
        let tr = Trace.create () in
        Trace.set_region tr "b0";
        for _ = 1 to 5 do
          Trace.record tr (Trace.Span_begin { pass = "p" });
          Trace.record tr (Trace.Span_end { pass = "p" })
        done;
        let events = Trace.events tr in
        check_int "count" 10 (List.length events);
        List.iteri
          (fun i (e : Trace.event) ->
            check_int "ts" i e.Trace.ts;
            check_string "region" "b0" e.Trace.region)
          events);
    tc "set_region stamps subsequent events only" (fun () ->
        let tr = Trace.create () in
        Trace.set_region tr "first";
        Trace.record tr (Trace.Seed_tried { seed = "s"; lanes = 4 });
        Trace.set_region tr "second";
        Trace.record tr (Trace.Seed_tried { seed = "s"; lanes = 4 });
        (match Trace.events tr with
         | [ a; b ] ->
           check_string "first" "first" a.Trace.region;
           check_string "second" "second" b.Trace.region
         | other -> Alcotest.failf "expected 2 events, got %d"
                      (List.length other)));
    tc "fresh_gid never repeats" (fun () ->
        let tr = Trace.create () in
        let gids = List.init 8 (fun _ -> Trace.fresh_gid tr) in
        check_int "distinct" 8 (List.length (List.sort_uniq compare gids)));
  ]

(* ---- stream well-formedness over real pipeline runs ----------------- *)

(* Spans must nest: every Span_end closes the innermost open Span_begin
   of the same pass name, and nothing stays open at the end. *)
let check_well_nested events =
  let stack =
    List.fold_left
      (fun stack (e : Trace.event) ->
        match e.Trace.payload with
        | Trace.Span_begin { pass } -> pass :: stack
        | Trace.Span_end { pass } -> (
          match stack with
          | top :: rest when top = pass -> rest
          | top :: _ ->
            Alcotest.failf "span %s closed while %s open" pass top
          | [] -> Alcotest.failf "span %s closed with none open" pass)
        | _ -> stack)
      [] events
  in
  check_int "all spans closed" 0 (List.length stack)

(* Graph events may only reference node ids their own graph introduced. *)
let check_graph_refs events =
  let nodes : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.payload with
      | Trace.Graph_node { gid; nid; _ } -> Hashtbl.replace nodes (gid, nid) ()
      | Trace.Graph_edge { gid; parent; child; _ } ->
        check_bool "edge parent known" true (Hashtbl.mem nodes (gid, parent));
        check_bool "edge child known" true (Hashtbl.mem nodes (gid, child))
      | Trace.Dep_edge { gid; src; dst } ->
        check_bool "dep src known" true (Hashtbl.mem nodes (gid, src));
        check_bool "dep dst known" true (Hashtbl.mem nodes (gid, dst))
      | _ -> ())
    events

let check_get_best_shape events =
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.payload with
      | Trace.Get_best { candidates; levels; chosen; _ } ->
        (match chosen with
         | Some c -> check_bool "chosen is a candidate" true
                       (List.mem c candidates)
         | None -> ());
        List.iter
          (fun (_, scores) ->
            (* scores cover the tied subset of the candidates *)
            check_bool "scores non-empty" true (scores <> []);
            check_bool "no more scores than candidates" true
              (List.length scores <= List.length candidates))
          levels
      | _ -> ())
    events

let stream_tests =
  [
    tc "saxpy stream: shape, nesting, references" (fun () ->
        let events = traced "loop.saxpy" in
        check_bool "non-empty" true (events <> []);
        List.iteri
          (fun i (e : Trace.event) -> check_int "monotone ts" i e.Trace.ts)
          events;
        check_well_nested events;
        check_graph_refs events;
        check_get_best_shape events;
        (* one seed-collect per block the driver visits *)
        check_bool "seeds recorded" true (count "seeds-found" events > 0);
        check_bool "get_best recorded" true (count "get-best" events > 0);
        check_bool "cost recorded" true (count "cost" events > 0);
        check_bool "emits recorded" true (count "emit" events > 0);
        check_bool "region outcome recorded" true
          (count "region-outcome" events > 0));
    tc "every catalog kernel yields a well-formed stream" (fun () ->
        List.iter
          (fun (k : Catalog.kernel) ->
            let events = traced k.Catalog.key in
            check_well_nested events;
            check_graph_refs events;
            check_get_best_shape events)
          Catalog.all);
    tc "an injected fault surfaces as a rollback and keeps spans nested"
      (fun () ->
        let config =
          Config.with_inject
            (Inject.make ~rate:1.0 ~seed:7 ())
            Config.lslp
        in
        let report, _ = run_with ~trace:true ~config (kernel "loop.saxpy") in
        let events = report.Pipeline.trace_events in
        check_bool "rollback recorded" true (count "rollback" events > 0);
        check_well_nested events;
        check_bool "degraded outcome recorded" true
          (List.exists
             (fun (e : Trace.event) ->
               match e.Trace.payload with
               | Trace.Region_outcome { outcome = "degraded"; _ } -> true
               | _ -> false)
             events));
    tc "trace is deterministic per (input, configuration)" (fun () ->
        let a = traced "453.vsumsqr" and b = traced "453.vsumsqr" in
        check_int "same length" (List.length a) (List.length b);
        (* labels embed the global instruction-id counter, so compare the
           payload-name sequence (the decision structure) *)
        check_bool "same decision sequence" true
          (payload_names a = payload_names b));
  ]

(* ---- exporters ------------------------------------------------------ *)

let exporter_tests =
  [
    tc "chrome export is valid JSON with balanced spans" (fun () ->
        let events = traced "motivation-multi" in
        let s = Trace.chrome_string ~meta:[ ("function", "f") ] events in
        (match Json.of_string s with
         | Error e -> Alcotest.failf "chrome export unparseable: %s" e
         | Ok j ->
           let trace_events =
             match Json.member "traceEvents" j with
             | Some arr -> Option.get (Json.to_list_opt arr)
             | None -> Alcotest.fail "no traceEvents field"
           in
           let ph p =
             List.length
               (List.filter
                  (fun ev ->
                    match Json.member "ph" ev with
                    | Some (Json.Str s) -> s = p
                    | _ -> false)
                  trace_events)
           in
           check_bool "has events" true (List.length trace_events > 0);
           check_int "begin/end balanced" (ph "B") (ph "E")));
    tc "dot export is brace-balanced and one cluster per graph" (fun () ->
        let events = traced "motivation-multi" in
        let s = Trace.to_dot events in
        let balance =
          String.fold_left
            (fun d c -> if c = '{' then d + 1 else if c = '}' then d - 1 else d)
            0 s
        in
        check_int "balanced braces" 0 balance;
        check_bool "digraph" true (String.length s >= 7
                                   && String.sub s 0 7 = "digraph");
        let occurrences sub =
          let n = String.length s and m = String.length sub in
          let rec go k acc =
            if k + m > n then acc
            else go (k + 1) (if String.sub s k m = sub then acc + 1 else acc)
          in
          go 0 0
        in
        check_int "one subgraph per graph build"
          (count "graph-start" events)
          (occurrences "subgraph cluster_g"));
    tc "log export covers every event" (fun () ->
        let events = traced "loop.saxpy" in
        let s = Trace.to_log events in
        (* each event renders with its zero-padded logical timestamp *)
        List.iter
          (fun (e : Trace.event) ->
            let stamp = Fmt.str "%04d " e.Trace.ts in
            let n = String.length s and m = String.length stamp in
            let rec mem k = k + m <= n && (String.sub s k m = stamp || mem (k + 1)) in
            check_bool (Fmt.str "ts %d present" e.Trace.ts) true (mem 0))
          events;
        (* one line per event: no payload wraps, whatever its width *)
        List.iter
          (fun (k : Catalog.kernel) ->
            let events = traced k.Catalog.key in
            let log = Trace.to_log events in
            let lines =
              String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 log
            in
            check_int k.Catalog.key (List.length events) lines)
          Catalog.all);
    tc "empty stream exports cleanly in all three formats" (fun () ->
        (match Json.of_string (Trace.chrome_string []) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "chrome: %s" e);
        check_bool "dot" true (String.length (Trace.to_dot []) > 0);
        check_string "log" "" (Trace.to_log []));
  ]

(* ---- zero-cost-when-off --------------------------------------------- *)

let off_tests =
  [
    tc "stock configurations carry no trace events" (fun () ->
        List.iter
          (fun (k : Catalog.kernel) ->
            let report, _ = run_with (Catalog.compile k) in
            check_int k.Catalog.key 0
              (List.length report.Pipeline.trace_events))
          Catalog.all);
  ]

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

let qcheck_trace_transparent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"tracing on and off are observationally identical"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Gen.generate st in
         let reference = Gen.build prog in
         Array.for_all
           (fun base ->
             let config = Config.with_remarks true base in
             let ron, iron = run_with ~trace:true ~config reference in
             let roff, iroff = run_with ~trace:false ~config reference in
             let counters (r : Pipeline.report) =
               List.map
                 (fun (_, proj) ->
                   proj (Report.total_counters r.Pipeline.telemetry))
                 Probe.counter_fields
             in
             iron = iroff
             && remark_strings ron = remark_strings roff
             && counters ron = counters roff
             && ron.Pipeline.vectorized_regions
                = roff.Pipeline.vectorized_regions
             && ron.Pipeline.degraded_regions
                = roff.Pipeline.degraded_regions
             && roff.Pipeline.trace_events = []
             && ron.Pipeline.trace_events <> [])
           config_pool))

let suite =
  sink_tests @ stream_tests @ exporter_tests @ off_tests
  @ [ qcheck_trace_transparent ]
