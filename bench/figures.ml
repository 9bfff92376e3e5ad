(* The per-figure reproductions.  Each [figN] prints the same rows/series
   the paper's figure reports (see EXPERIMENTS.md for the side-by-side). *)

open Lslp_core
open Lslp_kernels
open Harness

let header title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@."

(* Table 2: the kernel inventory. *)
let table2 () =
  header "Table 2: kernels used for evaluation";
  Fmt.pr "%-26s %-14s %s@." "Kernel" "Benchmark" "Filename:Line";
  List.iter
    (fun (k : Catalog.kernel) ->
      Fmt.pr "%-26s %-14s %s@." k.key k.benchmark k.origin)
    Catalog.table2

(* Figure 9: execution speedup over O3 (simulated cycles, machine table). *)
let fig9 () =
  header "Figure 9: speedup of SLP-NR, SLP and LSLP over O3";
  Fmt.pr "%-26s %8s %8s %8s@." "kernel" "SLP-NR" "SLP" "LSLP";
  let csv_rows = ref [] in
  let speedups_for kernels =
    List.map
      (fun (k : Catalog.kernel) ->
        let ms = measure k.key in
        Fmt.pr "%-26s" k.key;
        List.iter (fun m -> Fmt.pr " %7.2fx" (speedup m)) ms;
        Fmt.pr "@.";
        let row = List.map speedup ms in
        csv_rows :=
          (k.key :: List.map (Fmt.str "%.4f") row) :: !csv_rows;
        row)
      kernels
  in
  let spec = speedups_for spec_kernels in
  let gmean_at idx = geomean (List.map (fun l -> List.nth l idx) spec) in
  Fmt.pr "%-26s %7.2fx %7.2fx %7.2fx@." "GMean(SPEC kernels)" (gmean_at 0)
    (gmean_at 1) (gmean_at 2);
  Fmt.pr "--- motivating examples ---@.";
  ignore (speedups_for motivation_kernels);
  Csv.write "fig9_speedup"
    [ "kernel"; "slp_nr"; "slp"; "lslp" ]
    (List.rev !csv_rows)

(* Figure 10: static vectorization cost (TTI units; lower = better). *)
let fig10 () =
  header "Figure 10: static vectorization cost (lower is better)";
  Fmt.pr "%-26s %8s %8s %8s@." "kernel" "SLP-NR" "SLP" "LSLP";
  let rows =
    List.map
      (fun (k : Catalog.kernel) ->
        let ms = measure k.key in
        Fmt.pr "%-26s" k.key;
        List.iter (fun m -> Fmt.pr " %+8d" m.accepted_cost) ms;
        Fmt.pr "@.";
        List.map (fun m -> float_of_int m.accepted_cost) ms)
      Catalog.table2
  in
  let mean_at idx =
    List.fold_left (fun a l -> a +. List.nth l idx) 0.0 rows
    /. float_of_int (List.length rows)
  in
  Fmt.pr "%-26s %+8.1f %+8.1f %+8.1f@." "Mean" (mean_at 0) (mean_at 1)
    (mean_at 2);
  Csv.write "fig10_static_cost"
    [ "kernel"; "slp_nr"; "slp"; "lslp" ]
    (List.map2
       (fun (k : Catalog.kernel) row ->
         k.key :: List.map (Fmt.str "%.0f") row)
       Catalog.table2 rows)

(* Figure 11: whole-benchmark static cost, normalized to SLP (%).  The
   paper plots cost improvement relative to SLP; >100% = better than SLP. *)
let fig11 () =
  header "Figure 11: whole-benchmark static cost normalized to SLP (%)";
  Fmt.pr "%-14s %8s %8s %8s@." "benchmark" "SLP-NR" "SLP" "LSLP";
  let ratios =
    List.map
      (fun (b : Catalog.benchmark) ->
        let ms = List.map (measure_benchmark b) configs_main in
        let slp_cost =
          (List.find (fun m -> m.config_name' = "SLP") ms).total_accepted_cost
        in
        let normalize m =
          if slp_cost = 0 then if m.total_accepted_cost = 0 then 100.0 else 200.0
          else
            100.0
            *. float_of_int m.total_accepted_cost
            /. float_of_int slp_cost
        in
        let row = List.map normalize ms in
        Fmt.pr "%-14s" b.bname;
        List.iter (fun r -> Fmt.pr " %7.1f%%" r) row;
        Fmt.pr "@.";
        row)
      Catalog.full_benchmarks
  in
  let gmean_at idx = geomean (List.map (fun l -> List.nth l idx /. 100.0) ratios) in
  Fmt.pr "%-14s %7.1f%% %7.1f%% %7.1f%%@." "GMean"
    (100.0 *. gmean_at 0) (100.0 *. gmean_at 1) (100.0 *. gmean_at 2);
  Csv.write "fig11_benchmark_cost_pct"
    [ "benchmark"; "slp_nr"; "slp"; "lslp" ]
    (List.map2
       (fun (b : Catalog.benchmark) row ->
         b.bname :: List.map (Fmt.str "%.1f") row)
       Catalog.full_benchmarks ratios)

(* Figure 12: whole-benchmark execution speedup over O3. *)
let fig12 () =
  header "Figure 12: whole-benchmark speedup over O3";
  Fmt.pr "%-14s %8s %8s %8s@." "benchmark" "SLP-NR" "SLP" "LSLP";
  let rows =
    List.map
      (fun (b : Catalog.benchmark) ->
        let ms = List.map (measure_benchmark b) configs_main in
        let row = List.map bench_speedup ms in
        Fmt.pr "%-14s" b.bname;
        List.iter (fun s -> Fmt.pr " %7.3fx" s) row;
        Fmt.pr "@.";
        row)
      Catalog.full_benchmarks
  in
  let gmean_at idx = geomean (List.map (fun l -> List.nth l idx) rows) in
  Fmt.pr "%-14s %7.3fx %7.3fx %7.3fx@." "GMean" (gmean_at 0) (gmean_at 1)
    (gmean_at 2);
  Csv.write "fig12_benchmark_speedup"
    [ "benchmark"; "slp_nr"; "slp"; "lslp" ]
    (List.map2
       (fun (b : Catalog.benchmark) row ->
         b.bname :: List.map (Fmt.str "%.4f") row)
       Catalog.full_benchmarks rows)

(* Figure 13: sensitivity to look-ahead depth and multi-node size.  Bars are
   speedups normalized to full LSLP (LA=8, multi unlimited) = 1.0. *)
let fig13_configs =
  [ Config.slp; Config.lslp_la 0; Config.lslp_la 1; Config.lslp_la 2;
    Config.lslp_la 4; Config.lslp_multi 1; Config.lslp_multi 2;
    Config.lslp_multi 3; Config.lslp ]

let fig13 () =
  header "Figure 13: speedup breakdown for look-ahead depth and multi-node \
          size (normalized to LSLP)";
  Fmt.pr "%-26s" "kernel";
  List.iter (fun c -> Fmt.pr " %10s" c.Config.name) fig13_configs;
  Fmt.pr "@.";
  let rows =
    List.map
      (fun (k : Catalog.kernel) ->
        let ms = measure ~config_list:fig13_configs k.key in
        let full = speedup (List.nth ms (List.length ms - 1)) in
        let row = List.map (fun m -> speedup m /. full) ms in
        Fmt.pr "%-26s" k.key;
        List.iter (fun r -> Fmt.pr " %9.2fx" r) row;
        Fmt.pr "@.";
        row)
      Catalog.table2
  in
  Fmt.pr "%-26s" "GMean";
  List.iteri
    (fun idx _ ->
      Fmt.pr " %9.2fx" (geomean (List.map (fun l -> List.nth l idx) rows)))
    fig13_configs;
  Fmt.pr "@.";
  Csv.write "fig13_sensitivity"
    ("kernel" :: List.map (fun c -> c.Config.name) fig13_configs)
    (List.map2
       (fun (k : Catalog.kernel) row ->
         k.key :: List.map (Fmt.str "%.4f") row)
       Catalog.table2 rows)

(* Figure 14: compilation work normalized to O3.  The score_evals column
   comes straight from the pipeline's own telemetry counters and is fully
   deterministic; the time column is bechamel's estimate when available
   (the [Some lookup] path) and a one-shot wall-clock reading otherwise. *)
let fig14_configs =
  [ ("O3", None);
    ("SLP-NR", Some Config.slp_nr);
    ("SLP", Some Config.slp);
    ("LSLP", Some Config.lslp);
    ("LSLP-LA2", Some (Config.lslp_la 2));
  ]

let fig14_jobs =
  List.map
    (fun (name, config_opt) ->
      (name, fun () -> Harness.compile_all_kernels config_opt))
    fig14_configs

let fig14 measure_ns =
  header "Figure 14: compilation time normalized to O3 (LA=8, wall clock)";
  let stats =
    List.map
      (fun (name, config_opt) ->
        (name, Harness.compile_all_kernels_stats config_opt))
      fig14_configs
  in
  let ns_of name (s : Harness.fig14_stats) =
    match measure_ns with
    | Some lookup -> lookup name
    | None -> s.Harness.wall_seconds *. 1e9
  in
  let o3_ns = ns_of "O3" (List.assoc "O3" stats) in
  (* counters are deterministic -> stdout; wall-clock readings are not ->
     stderr (same split the --stats CLI flags use) *)
  Fmt.pr "%-10s %12s@." "config" "score_evals";
  List.iter
    (fun (name, s) -> Fmt.pr "%-10s %12d@." name s.Harness.score_evals)
    stats;
  (match measure_ns with
   | Some _ -> Fmt.epr "@.%-10s %12s %10s (bechamel)@." "config" "ns/compile" "vs O3"
   | None -> Fmt.epr "@.%-10s %12s %10s (one-shot)@." "config" "ns/compile" "vs O3");
  List.iter
    (fun (name, s) ->
      let t = ns_of name s in
      Fmt.epr "%-10s %12.0f %9.3fx@." name t (t /. o3_ns))
    stats;
  Csv.write "fig14_compile_time"
    [ "config"; "ns_per_compile"; "vs_o3"; "score_evals" ]
    (List.map
       (fun (name, s) ->
         let t = ns_of name s in
         [ name; Fmt.str "%.0f" t; Fmt.str "%.4f" (t /. o3_ns);
           string_of_int s.Harness.score_evals ])
       stats)

(* Loop-form kernels (PR 2): region formation (unroll by the vector factor)
   followed by the regular per-block pass.  The regions column prints the
   block label(s) the vectorizer committed to, keying each win back to the
   control skeleton ("-" = nothing vectorized, as for the serial dot
   product and the symbolic-bound loop). *)
let loops () =
  header "Loop kernels: unroll-by-VF region formation + (L)SLP";
  Fmt.pr "%-18s %-12s %8s %8s %8s@." "kernel" "regions" "SLP-NR" "SLP" "LSLP";
  let csv_rows = ref [] in
  List.iter
    (fun (k : Catalog.kernel) ->
      let f = Catalog.compile_key k.key in
      ignore (Lslp_frontend.Unroll.run ~factor:4 f);
      let report, _ = Pipeline.run_cloned ~config:Config.lslp f in
      let region_str =
        match
          List.sort_uniq String.compare
            (List.filter_map
               (fun r ->
                 if r.Pipeline.outcome = Lslp_check.Remark.Vectorized then
                   Some r.Pipeline.region_id
                 else None)
               report.Pipeline.regions)
        with
        | [] -> "-"
        | rs -> String.concat "," rs
      in
      let ms = measure k.key in
      Fmt.pr "%-18s %-12s" k.key region_str;
      List.iter (fun m -> Fmt.pr " %7.2fx" (speedup m)) ms;
      Fmt.pr "@.";
      csv_rows :=
        (k.key :: region_str
         :: List.map (fun m -> Fmt.str "%.4f" (speedup m)) ms)
        :: !csv_rows)
    Catalog.loops;
  Csv.write "loops_speedup"
    [ "kernel"; "regions"; "slp_nr"; "slp"; "lslp" ]
    (List.rev !csv_rows)
