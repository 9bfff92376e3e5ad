(* lslpc: the kernel-language compiler driver.

   Subcommands:
     compile  parse a kernel, run a vectorizer configuration, dump IR /
              graphs / costs
     run      compile and execute scalar vs vectorized in the simulator,
              reporting cycles, speedup and an equivalence check
     analyze  explain the vectorizer's decisions: one remark per region
              considered, plus the output of the legality validator
     trace    record the decision trace and export it as Chrome trace-event
              JSON (Perfetto), Graphviz DOT or a decision log; the only
              trace exporter
     stats    run the whole kernel catalog and tabulate the telemetry
              counters (score evaluations, graph nodes, regions, ...)
     kernels  list the built-in kernel catalog
     show     print a catalog kernel's source and IR
     fuzz     differential fuzzing: random kernels vs the scalar oracle
     batch    compile the catalog on the fault-isolated Domain-pool
              service: per-job deadlines, retries with backoff,
              backpressure and a verified result cache
     domains  domain-pool determinism smoke: the whole catalog on N
              concurrent pool domains must reproduce the sequential IR,
              remarks and counters (modulo id alpha-renaming)
     profile  deterministic compile-cost profile: catalog x N compiles
              into per-pass step histograms and folded stacks
     metrics-verify
              parse a --metrics-out dump and gate on its degradation
              counters (the CI half of make metrics-smoke)

   Example:
     lslpc compile --config lslp --dump-ir examples/kernels/foo.k
     lslpc run --kernel 453.boy-surface --config slp
     lslpc analyze --kernel 464.motivation-multi --config lslp --stats
     lslpc compile --kernel 453.boy-surface --inject codegen:1.0:7
     lslpc trace examples/kernels/loop_saxpy.k --trace-format chrome
     lslpc trace --kernel motivation-multi --trace-format dot | dot -Tsvg
     lslpc stats --config lslp
     lslpc fuzz --cases 200 --config cond
*)

open Cmdliner

let config_of_string = function
  | "slp-nr" -> Ok Lslp_core.Config.slp_nr
  | "slp" -> Ok Lslp_core.Config.slp
  | "lslp" -> Ok Lslp_core.Config.lslp
  | s -> (
    match String.index_opt s ':' with
    | Some k -> (
      let name = String.sub s 0 k in
      let arg = String.sub s (k + 1) (String.length s - k - 1) in
      match (name, int_of_string_opt arg) with
      | "lslp-la", Some d -> Ok (Lslp_core.Config.lslp_la d)
      | "lslp-multi", Some m -> Ok (Lslp_core.Config.lslp_multi m)
      | _ -> Error (Fmt.str "unknown configuration %s" s))
    | None -> Error (Fmt.str "unknown configuration %s" s))

let config_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (config_of_string s) in
  let print ppf (c : Lslp_core.Config.t) = Fmt.string ppf c.name in
  Arg.conv (parse, print)

let config_arg =
  let doc =
    "Vectorizer configuration: slp-nr, slp, lslp, lslp-la:N (look-ahead \
     depth N) or lslp-multi:N (multi-node size N)."
  in
  Arg.(value & opt config_conv Lslp_core.Config.lslp
       & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let inject_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Lslp_robust.Inject.parse s)
  in
  Arg.conv (parse, Lslp_robust.Inject.pp)

let inject_arg =
  let doc =
    "Arm deterministic fault injection: PASS[:RATE[:SEED]], where PASS is \
     graph-build, reorder, codegen, reduction, cse, dce, verify, corrupt \
     or all.  Fired faults roll the region back to scalar and show up as \
     degraded regions in the report."
  in
  Arg.(value & opt (some inject_conv) None
       & info [ "inject" ] ~docv:"SPEC" ~doc)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the telemetry counter table (stdout; deterministic) \
                 and pass timings (stderr; wall clock).")

let stats_json_arg =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Emit the telemetry report (counters and timers) plus the \
                 per-pass step histograms as one JSON document.")

(* ---- metrics exposition ------------------------------------------- *)

type metrics_format = Prom | Mjson

let metrics_format_arg =
  let doc =
    "Metrics dump format: $(b,prom) (Prometheus text exposition) or \
     $(b,json) (one lslp-metrics/1 document)."
  in
  Arg.(value
       & opt (enum [ ("prom", Prom); ("json", Mjson) ]) Prom
       & info [ "metrics-format" ] ~docv:"FORMAT" ~doc)

let render_registry ~format registry =
  let samples = Lslp_obs.Registry.snapshot registry in
  match format with
  | Prom -> Lslp_obs.Export.prometheus samples
  | Mjson -> Lslp_util.Json.to_string (Lslp_obs.Export.json samples) ^ "\n"

(* One run's pass-step histograms, derived deterministically from the
   report — what `--stats-json` rides along with the telemetry. *)
let report_metrics (t : Lslp_telemetry.Report.t) =
  let reg = Lslp_obs.Registry.create () in
  let pm = Lslp_telemetry.Pass_metrics.create ~root:"run" reg in
  Lslp_telemetry.Pass_metrics.observe pm t;
  Lslp_obs.Export.json (Lslp_obs.Registry.snapshot reg)

(* Counters are deterministic per (input, config) and go to stdout so
   golden tests can pin them; wall-clock timings go to stderr. *)
let print_stats ~stats ~stats_json (report : Lslp_core.Pipeline.report) =
  let t = report.Lslp_core.Pipeline.telemetry in
  if stats then begin
    Fmt.pr "%a" Lslp_telemetry.Report.pp_counters t;
    Fmt.epr "%a" Lslp_telemetry.Report.pp_timers t
  end;
  if stats_json then
    Fmt.pr "%s@."
      (Lslp_util.Json.to_string
         (Lslp_util.Json.Obj
            [
              ("telemetry", Lslp_telemetry.Report.json t);
              ("metrics", report_metrics t);
            ]))

(* ---- decision trace ----------------------------------------------- *)

type trace_format = Chrome | Dot | Log

let trace_format_arg =
  let doc =
    "Trace export format: $(b,chrome) (trace-event JSON, loads in Perfetto \
     and chrome://tracing), $(b,dot) (Graphviz SLP graphs) or $(b,log) \
     (human-readable decision log)."
  in
  Arg.(value
       & opt (enum [ ("chrome", Chrome); ("dot", Dot); ("log", Log) ]) Chrome
       & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let write_out path contents =
  match path with
  | "-" ->
    print_string contents;
    flush stdout
  | path ->
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc

let unroll_arg =
  let doc =
    "Unroll factor for counted loops (region formation); 0 or 1 disables."
  in
  Arg.(value & opt int 4 & info [ "unroll" ] ~docv:"N" ~doc)

let file_arg =
  Arg.(value & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"Kernel-language source file.")

let kernel_arg =
  let doc = "Use a built-in catalog kernel (see the kernels subcommand)." in
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"KEY" ~doc)

(* What compile, run, analyze and trace read: one kernel (FILE or
   --kernel), the configuration with any --inject armed, and the unroll
   factor. *)
type input = {
  file : string option;
  kernel : string option;
  config : Lslp_core.Config.t;
  unroll : int;
}

let input_term =
  let make file kernel config unroll inject =
    let config =
      match inject with
      | Some i -> Lslp_core.Config.with_inject i config
      | None -> config
    in
    { file; kernel; config; unroll }
  in
  Term.(const make $ file_arg $ kernel_arg $ config_arg $ unroll_arg
        $ inject_arg)

(* Region formation happens here, in the driver, exactly once: Lower and
   Catalog.compile stay pure so nothing double-unrolls.  [unroll]
   overrides the input's factor. *)
let load ?unroll input =
  let f =
    match (input.file, input.kernel) with
    | Some path, None ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      Lslp_frontend.Lower.compile_string src
    | None, Some key -> Lslp_kernels.Catalog.compile_key key
    | Some _, Some _ -> failwith "give either a file or --kernel, not both"
    | None, None -> failwith "give a kernel file or --kernel KEY"
  in
  let factor = Option.value unroll ~default:input.unroll in
  ignore (Lslp_frontend.Unroll.run ~factor f);
  f

let handle_errors f =
  try f () with
  | Lslp_frontend.Lexer.Error (msg, pos)
  | Lslp_frontend.Parser.Error (msg, pos)
  | Lslp_frontend.Lower.Error (msg, pos) ->
    Fmt.epr "error at %a: %s@." Lslp_frontend.Token.pp_pos pos msg;
    exit 1
  | Failure msg | Invalid_argument msg ->
    Fmt.epr "error: %s@." msg;
    exit 1

let verify_output_arg =
  Arg.(value & flag
       & info [ "verify-output" ]
           ~doc:"Run the legality validator on the transformed function and \
                 fail on any violation.")

(* Shared by compile/run --verify-output and analyze: print the validator's
   findings, return true when any of them is an error. *)
let print_diagnostics diags =
  List.iter (fun d -> Fmt.pr "%a@." Lslp_check.Diagnostic.pp d) diags;
  Fmt.pr "legality: %s@." (Lslp_check.Diagnostic.summary diags);
  Lslp_check.Diagnostic.errors diags <> []

(* ---- compile ---------------------------------------------------- *)

let compile_cmd =
  let run input dump_ir dump_graph quiet verify_output stats stats_json =
    handle_errors @@ fun () ->
    let config =
      Lslp_core.Config.with_validate verify_output input.config
    in
    let f = load input in
    if dump_ir then
      Fmt.pr "=== scalar IR ===@.%a@.@." Lslp_ir.Printer.pp_func f;
    if dump_graph then
      List.iter
        (fun block ->
          let analysis = Lslp_core.Block_analysis.create block in
          let seeds = Lslp_core.Seeds.collect config analysis in
          List.iteri
            (fun k seed ->
              (* under the pipeline's own wrapper, so an armed injector
                 prints a typed failure in this seed's place *)
              let pass = ref "graph-build" in
              let built =
                Lslp_robust.Transact.protect
                  ~snapshot:(Lslp_robust.Transact.snapshot_block block)
                  ~pass:(fun () -> !pass)
                  (fun () ->
                    let graph, _ =
                      Lslp_core.Graph_builder.build config analysis seed
                    in
                    pass := "cost";
                    (graph, Lslp_core.Cost.evaluate config graph analysis))
              in
              Fmt.pr "=== %s graph for seed %d of [%s] ===@.%a@.@."
                config.name k
                (Lslp_ir.Block.label block)
                (fun ppf -> function
                  | Ok (graph, cost) ->
                    Fmt.pf ppf "%a@.%a" Lslp_core.Graph.pp graph
                      Lslp_core.Cost.pp_summary cost
                  | Error failure ->
                    Fmt.pf ppf "degraded: %a" Lslp_robust.Transact.pp_failure
                      failure)
                built)
            seeds)
        (Lslp_ir.Func.blocks f);
    let report, g = Lslp_core.Pipeline.run_cloned ~config f in
    if not quiet then Fmt.pr "%a@.@." Lslp_core.Pipeline.pp_report report;
    print_stats ~stats ~stats_json report;
    if dump_ir then
      Fmt.pr "=== %s IR ===@.%a@." config.name Lslp_ir.Printer.pp_func g;
    if verify_output
       && print_diagnostics report.Lslp_core.Pipeline.diagnostics
    then exit 1;
    match Lslp_ir.Verifier.check_func g with
    | [] -> ()
    | errors ->
      List.iter
        (fun e -> Fmt.epr "verifier: %a@." Lslp_ir.Verifier.pp_error e)
        errors;
      exit 1
  in
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print IR before and after.")
  in
  let dump_graph =
    Arg.(value & flag
         & info [ "dump-graph" ] ~doc:"Print the SLP graph and node costs.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No report.") in
  Cmd.v
    (Cmd.info "compile" ~doc:"Vectorize a kernel and report what happened")
    Term.(const run $ input_term $ dump_ir $ dump_graph $ quiet
          $ verify_output_arg $ stats_arg $ stats_json_arg)

(* ---- run --------------------------------------------------------- *)

let run_cmd =
  let run input seed verify_output stats stats_json =
    handle_errors @@ fun () ->
    let config =
      Lslp_core.Config.with_validate verify_output input.config
    in
    (* the reference is the kernel as written (loops intact), so the oracle
       checks region formation and vectorization together *)
    let reference = load ~unroll:0 input in
    let f = load input in
    let report, g = Lslp_core.Pipeline.run_cloned ~config f in
    let outcome =
      Lslp_interp.Oracle.compare_runs ~seed ~reference ~candidate:g ()
    in
    Fmt.pr "%a@.@." Lslp_core.Pipeline.pp_report report;
    print_stats ~stats ~stats_json report;
    if verify_output
       && print_diagnostics report.Lslp_core.Pipeline.diagnostics
    then exit 1;
    Fmt.pr "scalar cycles:     %d@." outcome.reference_cycles;
    Fmt.pr "vectorized cycles: %d@." outcome.candidate_cycles;
    Fmt.pr "speedup:           %.3fx@."
      (float_of_int outcome.reference_cycles
      /. float_of_int (max 1 outcome.candidate_cycles));
    match outcome.mismatches with
    | [] -> Fmt.pr "equivalence:       OK@."
    | ms ->
      Fmt.pr "equivalence:       FAILED (%d mismatches)@." (List.length ms);
      List.iter (fun m -> Fmt.pr "  %a@." Lslp_interp.Memory.pp_mismatch m) ms;
      exit 1
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Random seed for input data.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Vectorize a kernel, simulate scalar vs vector, compare")
    Term.(const run $ input_term $ seed $ verify_output_arg $ stats_arg
          $ stats_json_arg)

(* ---- analyze ------------------------------------------------------ *)

let analyze_cmd =
  let run input json stats stats_json =
    handle_errors @@ fun () ->
    let config =
      Lslp_core.Config.(input.config |> with_remarks true |> with_validate true)
    in
    let f = load input in
    let report, _g = Lslp_core.Pipeline.run_cloned ~config f in
    let remarks = report.Lslp_core.Pipeline.remarks in
    let diags = report.Lslp_core.Pipeline.diagnostics in
    if json then begin
      Fmt.pr "%s@."
        (Lslp_check.Remark.report_to_json ~config_name:config.name
           ~func_name:f.Lslp_ir.Func.fname ~diagnostics:diags remarks);
      print_stats ~stats ~stats_json report;
      if Lslp_check.Diagnostic.errors diags <> [] then exit 1
    end
    else begin
      Fmt.pr "%s: %s, %d region(s) considered@." config.name
        f.Lslp_ir.Func.fname (List.length remarks);
      List.iter (fun r -> Fmt.pr "%a@." Lslp_check.Remark.pp r) remarks;
      print_stats ~stats ~stats_json report;
      if print_diagnostics diags then exit 1
    end
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as a JSON document.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Explain the vectorizer's decisions: one remark per region \
          considered, with the legality validator's verdict")
    Term.(const run $ input_term $ json $ stats_arg $ stats_json_arg)

(* ---- trace -------------------------------------------------------- *)

let trace_cmd =
  let run input format out all =
    handle_errors @@ fun () ->
    let config = Lslp_core.Config.with_trace true input.config in
    let validated_chrome ~what events ~func_name =
      let chrome =
        Lslp_trace.Trace.chrome_string ~meta:[ ("function", func_name) ]
          events
      in
      match Lslp_util.Json.of_string chrome with
      | Ok _ -> chrome
      | Error e ->
        failwith (Fmt.str "%s: chrome trace is not valid JSON: %s" what e)
    in
    if all then
      (* the whole catalog through every exporter, with the Chrome JSON
         re-parsed by the shared strict parser — the CI smoke test *)
      List.iter
        (fun (k : Lslp_kernels.Catalog.kernel) ->
          let f = Lslp_kernels.Catalog.compile k in
          ignore (Lslp_frontend.Unroll.run ~factor:input.unroll f);
          let report, _ = Lslp_core.Pipeline.run_cloned ~config f in
          let events = report.Lslp_core.Pipeline.trace_events in
          let chrome =
            validated_chrome ~what:k.key events
              ~func_name:f.Lslp_ir.Func.fname
          in
          let dot = Lslp_trace.Trace.to_dot events in
          let log = Lslp_trace.Trace.to_log events in
          if
            String.length chrome = 0
            || String.length dot = 0
            || String.length log = 0
          then failwith (Fmt.str "%s: empty trace export" k.key);
          Fmt.pr "%-26s %4d event(s): chrome ok, dot ok, log ok@." k.key
            (List.length events))
        Lslp_kernels.Catalog.all
    else begin
      let f = load input in
      let report, _ = Lslp_core.Pipeline.run_cloned ~config f in
      let events = report.Lslp_core.Pipeline.trace_events in
      let contents =
        match format with
        | Chrome ->
          validated_chrome ~what:"trace" events
            ~func_name:f.Lslp_ir.Func.fname
        | Dot -> Lslp_trace.Trace.to_dot events
        | Log -> Lslp_trace.Trace.to_log events
      in
      write_out (Option.value ~default:"-" out) contents
    end
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Trace every catalog kernel through all three exporters \
                   (validating the Chrome JSON) and print one summary line \
                   each; ignores FILE/--kernel/--out/--trace-format.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the vectorizer's decision trace for a kernel and export \
          it as Chrome trace-event JSON (Perfetto), Graphviz DOT or a \
          decision log")
    Term.(const run $ input_term $ trace_format_arg $ out $ all)

(* ---- stats -------------------------------------------------------- *)

let stats_cmd =
  let run config unroll json =
    handle_errors @@ fun () ->
    let registry = Lslp_obs.Registry.create () in
    let pm = Lslp_telemetry.Pass_metrics.create ~root:"catalog" registry in
    let rows =
      List.map
        (fun (k : Lslp_kernels.Catalog.kernel) ->
          let f = Lslp_kernels.Catalog.compile k in
          ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
          let report = Lslp_core.Pipeline.run ~metrics:pm ~config f in
          (k.key, report.Lslp_core.Pipeline.telemetry))
        Lslp_kernels.Catalog.all
    in
    if json then
      Fmt.pr "%s@."
        (Lslp_util.Json.to_string
           (Lslp_util.Json.Obj
              [
                ("schema", Lslp_util.Json.Str "lslp-catalog-stats/1");
                ( "kernels",
                  Lslp_util.Json.Arr
                    (List.map
                       (fun (_, t) -> Lslp_telemetry.Report.json t)
                       rows) );
                ( "metrics",
                  Lslp_obs.Export.json (Lslp_obs.Registry.snapshot registry)
                );
              ]))
    else begin
      (* one total row per kernel; timings stay on stderr *)
      Fmt.pr "=== catalog telemetry: %s ===@." config.Lslp_core.Config.name;
      Fmt.pr "%-26s" "kernel";
      List.iter
        (fun (name, _) -> Fmt.pr " %8s" name)
        Lslp_telemetry.Probe.counter_fields;
      Fmt.pr "@.";
      List.iter
        (fun (key, t) ->
          let c = Lslp_telemetry.Report.total_counters t in
          Fmt.pr "%-26s" key;
          List.iter
            (fun (_, get) -> Fmt.pr " %8d" (get c))
            Lslp_telemetry.Probe.counter_fields;
          Fmt.pr "@.")
        rows;
      (* step-count distributions over the catalog; deterministic, so they
         print to stdout with the counter table *)
      Fmt.pr "@.=== catalog step histograms: %s ===@.%a@."
        config.Lslp_core.Config.name Lslp_obs.Export.pp_table
        (Lslp_obs.Registry.snapshot registry);
      List.iter
        (fun (key, t) ->
          Fmt.epr "--- %s@.%a" key Lslp_telemetry.Report.pp_timers t)
        rows
    end
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one lslp-catalog-stats/1 document: per-kernel \
                   telemetry reports plus the aggregated metrics registry.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Vectorize the whole kernel catalog and tabulate the telemetry \
          counters (seeds, score evaluations, graph nodes, regions) and \
          the per-pass step histograms")
    Term.(const run $ config_arg $ unroll_arg $ json)

(* ---- fuzz --------------------------------------------------------- *)

let fuzz_cmd =
  let run cases seed config inject jobs json =
    handle_errors @@ fun () ->
    (* [cond] is the branching arm: only masked-IR programs (guarded
       stores, selects, masked loads), configs still drawn from the pool *)
    let cond = config = Some "cond" in
    let config =
      match config with
      | None | Some "cond" -> None
      | Some s -> (
        match config_of_string s with Ok c -> Some c | Error e -> failwith e)
    in
    let stats, mismatches =
      if jobs <= 1 then
        (Lslp_fuzz.Fuzz.run ~cases ~seed ~cond ?config ?inject_spec:inject (),
         [])
      else begin
        (* sharded on the service pool, then every case is replayed in this
           domain and compared: sharding must be observationally invisible *)
        let pool =
          { Lslp_service.Pool.default_config with domains = jobs;
            queue_cap = max 1 (jobs * 4) }
        in
        let outcomes =
          Lslp_service.Shard.run ~cond ?config ?inject_spec:inject ~pool
            ~cases ~seed ()
        in
        ( Lslp_fuzz.Fuzz.summarize outcomes,
          Lslp_service.Shard.check_against_sequential ~cond ?config
            ?inject_spec:inject ~seed outcomes )
      end
    in
    (* stdout is a pure function of (cases, seed, config, inject); the
       PRNG-dependent counters and the sharding verdict go to stderr *)
    if json then Fmt.pr "%s@." (Lslp_fuzz.Fuzz.to_json stats)
    else Fmt.pr "%a@." Lslp_fuzz.Fuzz.pp_summary stats;
    Fmt.epr "%a@." Lslp_fuzz.Fuzz.pp_detail stats;
    List.iter
      (fun (m : Lslp_service.Shard.mismatch) ->
        Fmt.epr
          "case %d: sharded and sequential runs disagree@.  \
           @[<v>sharded:    %a@,sequential: %a@]@."
          m.case Lslp_fuzz.Fuzz.pp_outcome m.sharded
          Lslp_fuzz.Fuzz.pp_outcome m.sequential)
      mismatches;
    if jobs > 1 then
      Fmt.epr "sharded determinism (%d domain(s)): %s@." jobs
        (match mismatches with
         | [] -> "OK"
         | ms -> Fmt.str "FAILED (%d mismatch(es))" (List.length ms));
    if not (Lslp_fuzz.Fuzz.ok stats) || mismatches <> [] then exit 1
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the run's summary (cases, failures, counters) as a \
                   JSON document instead of the text summary.")
  in
  let cases =
    Arg.(value & opt int 500
         & info [ "cases" ] ~docv:"N" ~doc:"How many random programs to try.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Root seed; every case is reproducible from it.")
  in
  let config =
    let doc =
      "Pin one vectorizer configuration instead of drawing from the pool, \
       or $(b,cond) to fuzz only branching masked-IR programs (guarded \
       stores, selects, masked loads) against the scalar oracle."
    in
    Arg.(value & opt (some string) None
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Shard the cases across N pool domains; the run is then \
                   replayed sequentially and compared case by case \
                   (sharding must be observationally invisible).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random well-typed kernels through the \
          pipeline under random configurations (and injected faults), \
          checked against the scalar oracle")
    Term.(const run $ cases $ seed $ config $ inject_arg $ jobs $ json)

(* ---- batch -------------------------------------------------------- *)

(* "SPEC[@JOB]": an injection spec optionally targeted at one global job
   index.  Targeted specs arm only their job; an untargeted spec arms
   every job.  The first matching spec wins. *)
let parse_targeted_inject s =
  let split_target s =
    match String.rindex_opt s '@' with
    | Some k -> (
      let target = String.sub s (k + 1) (String.length s - k - 1) in
      match int_of_string_opt target with
      | Some job -> (String.sub s 0 k, Some job)
      | None -> (s, None))
    | None -> (s, None)
  in
  let spec, target = split_target s in
  match Lslp_robust.Inject.parse spec with
  | Ok i -> Ok (i, target)
  | Error e -> Error (`Msg e)

let targeted_inject_conv =
  let print ppf (i, target) =
    Fmt.pf ppf "%a%a" Lslp_robust.Inject.pp i
      Fmt.(option (fun ppf j -> Fmt.pf ppf "@@%d" j))
      target
  in
  Arg.conv (parse_targeted_inject, print)

let service_inject_args =
  let doc =
    "Arm deterministic fault injection, repeatable.  \
     PASS[:RATE[:SEED]][@JOB], where PASS additionally accepts the \
     service boundaries worker-raise, worker-hang, cache-poison, \
     queue-full and the set name $(b,service); @JOB targets one global \
     job index (round * kernels + position), otherwise every job is \
     armed."
  in
  Arg.(value & opt_all targeted_inject_conv []
       & info [ "inject" ] ~docv:"SPEC" ~doc)

let inject_for_of specs gidx =
  let rec pick = function
    | [] -> None
    | (i, Some j) :: _ when j = gidx -> Some i
    | (i, None) :: _ -> Some i
    | _ :: rest -> pick rest
  in
  (* targeted specs take precedence over a catch-all *)
  let targeted = List.filter (fun (_, t) -> t <> None) specs in
  match pick targeted with Some i -> Some i | None -> pick specs

let pool_config_of ~jobs ~queue_cap ~retries ~backoff ~deadline_steps =
  {
    Lslp_service.Pool.default_config with
    domains = jobs;
    queue_cap;
    retries;
    backoff;
    deadline_steps;
  }

let print_pool_stats s =
  Fmt.pr "%a@." Lslp_telemetry.Pool_stats.pp s

let batch_cmd =
  let run config unroll jobs queue_cap deadline_steps retries backoff cache
      repeat injects expect stats_flag stats_json metrics_out metrics_format
      flight_out verbose =
    handle_errors @@ fun () ->
    let inject_for = inject_for_of injects in
    let pool =
      pool_config_of ~jobs ~queue_cap ~retries ~backoff ~deadline_steps
    in
    let svc =
      Lslp_service.Service.create ~cache ~inject_for ~pool config
    in
    let kernels = Lslp_kernels.Catalog.all in
    let job_array =
      Array.of_list
        (List.map
           (fun (k : Lslp_kernels.Catalog.kernel) ->
             { Lslp_service.Service.label = k.key; source = k.source; unroll })
           kernels)
    in
    let n = Array.length job_array in
    let rounds =
      List.init (max 1 repeat) (fun round ->
          Lslp_service.Service.batch ~index_base:(round * n) svc job_array)
    in
    let outcomes = Array.concat rounds in
    let ok = ref 0 and cached = ref 0 and failed = ref 0 in
    Array.iteri
      (fun gidx outcome ->
        let key = (List.nth kernels (gidx mod n)).Lslp_kernels.Catalog.key in
        match outcome with
        | Lslp_service.Pool.Done (s : Lslp_service.Service.success) ->
          incr ok;
          if s.from_cache then incr cached;
          if verbose then
            Fmt.epr "job %d %s: ok%s, %d region(s) vectorized@." gidx key
              (if s.from_cache then " (cached)" else "")
              s.vectorized
        | Lslp_service.Pool.Degraded_to_failure { attempts; failure } ->
          incr failed;
          Fmt.pr "job %d %s: degraded after %d attempt(s): %a@." gidx key
            attempts Lslp_service.Pool.pp_failure failure)
      outcomes;
    Fmt.pr "batch: %d round(s) x %d kernel(s) on %d domain(s): %d ok (%d \
            from cache), %d degraded@."
      (max 1 repeat) n jobs !ok !cached !failed;
    if stats_flag then begin
      print_pool_stats (Lslp_service.Service.stats svc);
      Fmt.pr "%a@." Lslp_obs.Export.pp_table
        (Lslp_obs.Registry.snapshot (Lslp_service.Service.registry svc))
    end;
    (* the full registry — pool counters including shed/retry, cache
       counters, histograms and pipeline counters — not just the flat
       pool table *)
    if stats_json then
      Fmt.pr "%s@."
        (Lslp_util.Json.to_string
           (Lslp_obs.Export.json
              (Lslp_obs.Registry.snapshot (Lslp_service.Service.registry svc))));
    Option.iter
      (fun path ->
        write_out path
          (render_registry ~format:metrics_format
             (Lslp_service.Service.registry svc)))
      metrics_out;
    Option.iter
      (fun path ->
        write_out path
          (Lslp_obs.Flight.to_jsonl (Lslp_service.Service.flight svc)))
      flight_out;
    match expect with
    | None -> if !failed > 0 && injects = [] then exit 1
    | Some want ->
      let got = Lslp_service.Service.degradations svc outcomes in
      if got <> want then begin
        Fmt.epr
          "batch: expected %d degradation(s) (failures + cache evictions), \
           got %d@."
          want got;
        exit 1
      end
      else Fmt.pr "degradations: %d (as expected)@." got
  in
  let jobs =
    Arg.(value & opt int 4
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Ready-queue bound; admission blocks while full \
                   (backpressure).")
  in
  let deadline_steps =
    Arg.(value & opt (some int) None
         & info [ "deadline-steps" ] ~docv:"K"
             ~doc:"Cooperative per-job deadline: cancel a compile after K \
                   pass-boundary ticks.  Off by default.")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"R"
             ~doc:"Re-queue a crashed or timed-out job up to R times \
                   (deterministic exponential backoff) before recording a \
                   typed failure.")
  in
  let backoff =
    Arg.(value & opt int 2
         & info [ "backoff" ] ~docv:"T"
             ~doc:"Base retry delay in virtual scheduling ticks; doubles \
                   per attempt.")
  in
  let cache =
    Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
         & info [ "cache" ] ~docv:"on|off"
             ~doc:"Content-addressed result cache; every hit is re-verified \
                   by the legality validator before reuse.")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Submit the catalog N times as sequential rounds sharing \
                   the cache — round 2+ exercises the warm path.")
  in
  let expect =
    Arg.(value & opt (some int) None
         & info [ "expect-degradations" ] ~docv:"N"
             ~doc:"Exit non-zero unless failures + cache evictions equal \
                   exactly N (the fault-survival smoke gate).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the metrics registry (counters, gauges, \
                   histograms) to $(docv) ($(b,-) for stdout) after the \
                   batch.  Virtual ticks and step counts only — with \
                   --jobs 1 the dump is byte-reproducible.")
  in
  let flight_out =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Dump the flight recorder (per-job lifecycle events \
                   with attempt seeds and cache outcomes) as JSONL to \
                   $(docv) ($(b,-) for stdout).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print one line per completed job.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compile the kernel catalog as a batch on the fault-isolated \
          Domain-pool service: deadlines, retries, backpressure and a \
          verified result cache")
    Term.(const run $ config_arg $ unroll_arg $ jobs $ queue_cap
          $ deadline_steps $ retries $ backoff $ cache $ repeat
          $ service_inject_args $ expect $ stats_arg $ stats_json_arg
          $ metrics_out $ metrics_format_arg $ flight_out $ verbose)

(* ---- domains ------------------------------------------------------ *)

(* The domain-safety proof behind the compile service, now running ON the
   service's pool: compile the full catalog once sequentially, then
   [--jobs] more times as concurrent pool jobs, and require every copy to
   reproduce the sequential IR, remarks and telemetry counters exactly.
   Instruction ids come from a process-global Atomic so raw ids differ run
   to run — Printer.canonical numbers them by first appearance,
   which is exactly the invariant we promise: same structure, any
   numbering.  The id-watermark leak check runs inside every job: ids are
   globally monotone across domains, so output ids outside the job's own
   [low, high) window mean an arena compact index leaked into the IR. *)
let domains_cmd =
  let run config unroll jobs =
    handle_errors @@ fun () ->
    let config =
      Lslp_core.Config.(config |> with_remarks true |> with_validate true)
    in
    let snapshot (k : Lslp_kernels.Catalog.kernel) =
      let low = Lslp_ir.Instr.id_watermark () in
      let f = Lslp_kernels.Catalog.compile k in
      ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
      let report, g = Lslp_core.Pipeline.run_cloned ~config f in
      let high = Lslp_ir.Instr.id_watermark () in
      List.iter
        (fun b ->
          Lslp_ir.Block.iter
            (fun (i : Lslp_ir.Instr.t) ->
              if i.Lslp_ir.Instr.id < low || i.Lslp_ir.Instr.id >= high then
                failwith
                  (Fmt.str
                     "%s: instruction id %d outside [%d, %d): arena \
                      compact index leaked into the IR"
                     k.key i.Lslp_ir.Instr.id low high))
            b)
        (Lslp_ir.Func.blocks g);
      let ir = Lslp_ir.Printer.canonical g in
      let remarks =
        Lslp_util.Normalize.ids
          (Fmt.str "%a"
             Fmt.(list ~sep:(any "@.") Lslp_check.Remark.pp)
             report.Lslp_core.Pipeline.remarks)
      in
      let counters =
        let c =
          Lslp_telemetry.Report.total_counters
            report.Lslp_core.Pipeline.telemetry
        in
        String.concat ","
          (List.map
             (fun (name, get) -> Fmt.str "%s=%d" name (get c))
             Lslp_telemetry.Probe.counter_fields)
      in
      (k.key, ir, remarks, counters)
    in
    let kernels = Array.of_list Lslp_kernels.Catalog.all in
    let nk = Array.length kernels in
    let baseline = Array.map snapshot kernels in
    (* every (copy, kernel) pair is one pool job; a watermark leak raises
       and surfaces as a typed pool failure instead of a mystery hang *)
    let pool_jobs =
      Array.init (jobs * nk) (fun idx ->
          let k = kernels.(idx mod nk) in
          ( Fmt.str "%s#%d" k.Lslp_kernels.Catalog.key (idx / nk),
            fun ~inject:_ ~deadline:_ -> snapshot k ))
    in
    let pool =
      {
        Lslp_service.Pool.default_config with
        domains = jobs;
        queue_cap = max 1 (jobs * 2);
        retries = 0;
      }
    in
    let outcomes = Lslp_service.Pool.run pool pool_jobs in
    let mismatches = ref [] in
    let hard_failures = ref [] in
    Array.iteri
      (fun idx outcome ->
        let copy = idx / nk in
        let key, ir, rem, ctr = baseline.(idx mod nk) in
        match outcome with
        | Lslp_service.Pool.Degraded_to_failure { failure; _ } ->
          hard_failures :=
            (copy, key, Fmt.str "%a" Lslp_service.Pool.pp_failure failure)
            :: !hard_failures
        | Lslp_service.Pool.Done (key', ir', rem', ctr') ->
          assert (key = key');
          if ir <> ir' then mismatches := (copy, key, "IR") :: !mismatches;
          if rem <> rem' then
            mismatches := (copy, key, "remarks") :: !mismatches;
          if ctr <> ctr' then
            mismatches := (copy, key, "counters") :: !mismatches)
      outcomes;
    match (List.rev !hard_failures, List.rev !mismatches) with
    | [], [] ->
      Fmt.pr "domain smoke: %d domain(s) x %d kernel(s) x %s: OK@." jobs nk
        config.Lslp_core.Config.name
    | fails, ms ->
      List.iter
        (fun (copy, key, msg) ->
          Fmt.epr "copy %d: %s: job failed: %s@." copy key msg)
        fails;
      List.iter
        (fun (copy, key, what) ->
          Fmt.epr "copy %d: %s: %s diverged from sequential baseline@." copy
            key what)
        ms;
      Fmt.epr "domain smoke: FAILED (%d divergence(s), %d failure(s))@."
        (List.length ms) (List.length fails);
      exit 1
  in
  let jobs =
    Arg.(value & opt int 8
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"How many concurrent catalog copies (= pool domains) to \
                   compile.")
  in
  Cmd.v
    (Cmd.info "domains"
       ~doc:
         "Domain-pool determinism smoke: compile the whole catalog on N \
          concurrent domains of the service pool and require bit-identical \
          (alpha-renamed) IR, remarks and counters versus the sequential \
          baseline")
    Term.(const run $ config_arg $ unroll_arg $ jobs)

(* ---- profile ------------------------------------------------------ *)

(* Compile-time profiling in the deterministic unit: probe steps at the
   instrumented pass boundaries, not wall clock.  catalog x reps through
   Pipeline.run feeding one registry; the percentile table and the
   folded stacks are byte-reproducible, so perf work can diff them in CI
   the way `make bench-check` diffs counters (the fig14 compile-time
   hunt's instrument). *)
let profile_cmd =
  let run config unroll reps kernel folded_out metrics_out metrics_format =
    handle_errors @@ fun () ->
    let registry = Lslp_obs.Registry.create () in
    let pm = Lslp_telemetry.Pass_metrics.create ~root:"profile" registry in
    let kernels =
      match kernel with
      | None -> Lslp_kernels.Catalog.all
      | Some key -> [ Lslp_kernels.Catalog.find key ]
    in
    let reps = max 1 reps in
    for _rep = 1 to reps do
      List.iter
        (fun (k : Lslp_kernels.Catalog.kernel) ->
          let f = Lslp_kernels.Catalog.compile k in
          ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
          ignore (Lslp_core.Pipeline.run ~metrics:pm ~config f))
        kernels
    done;
    Fmt.pr "=== profile: %d kernel(s) x %d rep(s), config %s ===@."
      (List.length kernels) reps config.Lslp_core.Config.name;
    Fmt.pr "%a@." Lslp_obs.Export.pp_table
      (Lslp_obs.Registry.snapshot registry);
    Option.iter
      (fun path -> write_out path (Lslp_telemetry.Pass_metrics.folded pm))
      folded_out;
    Option.iter
      (fun path ->
        write_out path (render_registry ~format:metrics_format registry))
      metrics_out
  in
  let reps =
    Arg.(value & opt int 1
         & info [ "reps" ] ~docv:"N"
             ~doc:"Compile the kernel set N times (histogram sample size).")
  in
  let kernel =
    Arg.(value & opt (some string) None
         & info [ "kernel" ] ~docv:"KEY"
             ~doc:"Profile one catalog kernel instead of the whole catalog.")
  in
  let folded_out =
    Arg.(value & opt (some string) None
         & info [ "folded-out" ] ~docv:"FILE"
             ~doc:"Write folded stacks (profile;func;block;pass steps) to \
                   $(docv) ($(b,-) for stdout) — flamegraph.pl dialect.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the profile registry to $(docv) ($(b,-) for \
                   stdout).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile compile cost in deterministic pass-boundary steps: \
          catalog x N compiles into per-pass step histograms (percentile \
          table) and flamegraph-compatible folded stacks")
    Term.(const run $ config_arg $ unroll_arg $ reps $ kernel $ folded_out
          $ metrics_out $ metrics_format_arg)

(* ---- metrics-verify ----------------------------------------------- *)

(* The metrics-smoke gate's second half: prove a dump parses and that its
   degradation counters add up to the expected count.  "Degradations"
   here is the same sum `--expect-degradations` gates on the batch side:
   jobs failed + jobs shed + cache evictions. *)
let metrics_verify_cmd =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let counter_of_json doc name =
    match Lslp_util.Json.member "metrics" doc with
    | Some (Lslp_util.Json.Arr ms) ->
      List.find_map
        (fun m ->
          match
            (Lslp_util.Json.member "name" m, Lslp_util.Json.member "value" m)
          with
          | Some (Lslp_util.Json.Str n), Some v when n = name ->
            Lslp_util.Json.to_int_opt v
          | _ -> None)
        ms
    | _ -> None
  in
  let run file format expect =
    handle_errors @@ fun () ->
    let contents = read_file file in
    let die fmt =
      Fmt.kstr
        (fun s ->
          Fmt.epr "metrics-verify: %s: %s@." file s;
          exit 1)
        fmt
    in
    let counter =
      match format with
      | Prom -> (
        match Lslp_obs.Export.parse_prometheus contents with
        | Error e -> die "%s" e
        | Ok samples ->
          Fmt.pr "metrics-verify: %d sample(s) parsed@."
            (List.length samples);
          fun name ->
            (match Lslp_obs.Export.sample_value samples name with
             | Some v -> int_of_float v
             | None -> die "missing counter %s" name))
      | Mjson -> (
        match Lslp_util.Json.of_string contents with
        | Error e -> die "%s" e
        | Ok doc ->
          Fmt.pr "metrics-verify: document parsed@.";
          fun name ->
            (match counter_of_json doc name with
             | Some v -> v
             | None -> die "missing counter %s" name))
    in
    let failed = counter "lslp_jobs_failed_total" in
    let shed = counter "lslp_jobs_shed_total" in
    let evicted = counter "lslp_cache_evicted_total" in
    let degradations = failed + shed + evicted in
    match expect with
    | Some want when want <> degradations ->
      Fmt.epr
        "metrics-verify: expected %d degradation(s), got %d (failed %d + \
         shed %d + evicted %d)@."
        want degradations failed shed evicted;
      exit 1
    | Some _ ->
      Fmt.pr "metrics-verify: degradations %d (as expected)@." degradations
    | None ->
      Fmt.pr
        "metrics-verify: degradations %d (failed %d + shed %d + evicted \
         %d)@."
        degradations failed shed evicted
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"A metrics dump written by batch --metrics-out.")
  in
  let expect =
    Arg.(value & opt (some int) None
         & info [ "expect-degradations" ] ~docv:"N"
             ~doc:"Exit non-zero unless failed + shed + evicted counters \
                   sum to exactly N.")
  in
  Cmd.v
    (Cmd.info "metrics-verify"
       ~doc:
         "Parse a metrics dump (Prometheus text or lslp-metrics/1 JSON) \
          and check its degradation counters — the CI half of \
          make metrics-smoke")
    Term.(const run $ file $ metrics_format_arg $ expect)

(* ---- kernels ------------------------------------------------------ *)

let kernels_cmd =
  let run () =
    List.iter
      (fun (k : Lslp_kernels.Catalog.kernel) ->
        Fmt.pr "%-26s %-12s %s@." k.key k.benchmark k.origin)
      Lslp_kernels.Catalog.all
  in
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the built-in kernel catalog")
    Term.(const run $ const ())

(* ---- show --------------------------------------------------------- *)

let show_cmd =
  let run key =
    handle_errors @@ fun () ->
    let k = Lslp_kernels.Catalog.find key in
    Fmt.pr "// %s (%s, %s)%s@."
      k.key k.benchmark k.origin k.source;
    let f = Lslp_kernels.Catalog.compile k in
    Fmt.pr "@.%a@." Lslp_ir.Printer.pp_func f
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a catalog kernel's source and scalar IR")
    Term.(const run $ key)

let () =
  let info =
    Cmd.info "lslpc" ~version:"1.0.0"
      ~doc:"Look-ahead SLP vectorizing compiler for the kernel language"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; analyze_cmd; trace_cmd; stats_cmd;
            fuzz_cmd; batch_cmd; domains_cmd; profile_cmd;
            metrics_verify_cmd; kernels_cmd; show_cmd ]))
