(* The bench regression gate: `make bench-check`.

   Runs every catalog kernel through two pinned configurations and records
   the deterministic pipeline counters — look-ahead score evaluations,
   SLP-graph nodes built, regions vectorized/degraded, instructions
   emitted.  These are exact integers, stable per (input, configuration),
   so the committed snapshot (bench_results/BENCH_baseline.json) is
   compared tolerance-free: any drift in any counter fails CI and forces a
   deliberate `--write` with the diff in the commit.

     baseline --check      compare against the committed snapshot (default)
     baseline --write      regenerate the snapshot after an intended change
     baseline --selftest   prove the gate trips: perturb one counter of the
                           committed snapshot in memory and require the
                           comparison to FAIL (exits 0 iff drift detected)

   Wall-clock never enters the snapshot — this gate catches algorithmic
   regressions (a reorder that scores more comparisons, a region that
   stopped vectorizing), not machine noise. *)

open Lslp_core
module Json = Lslp_util.Json
module Probe = Lslp_telemetry.Probe
module Catalog = Lslp_kernels.Catalog

let baseline_path = "bench_results/BENCH_baseline.json"
let unroll_factor = 4
let configs = [ Config.slp; Config.lslp ]

(* The counters under the gate, in display order.  Adding a field here
   (plus a --write) widens the gate; the check also fails on missing or
   extra fields, so the snapshot and this list cannot drift apart. *)
let tracked =
  [
    ("score_evals", fun (c : Probe.counters) -> c.Probe.score_evals);
    ("graph_nodes", fun c -> c.Probe.graph_nodes);
    ("regions_vectorized", fun c -> c.Probe.regions_vectorized);
    ("regions_degraded", fun c -> c.Probe.regions_degraded);
    ("instrs_emitted", fun c -> c.Probe.instrs_emitted);
  ]

let measure (k : Catalog.kernel) config =
  let f = Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor f);
  let report = Pipeline.run ~config f in
  Lslp_telemetry.Report.total_counters report.Pipeline.telemetry

let entry_json (k : Catalog.kernel) =
  ( k.Catalog.key,
    Json.Obj
      (List.map
         (fun config ->
           let c = measure k config in
           ( config.Config.name,
             Json.Obj
               (List.map (fun (name, get) -> (name, Json.Int (get c))) tracked)
           ))
         configs) )

let current () =
  Json.Obj
    [
      ("unroll", Json.Int unroll_factor);
      ("kernels", Json.Obj (List.map entry_json Catalog.all));
    ]

(* Flatten to (path, int) rows so the diff names exactly what moved. *)
let rec flatten prefix j acc =
  match j with
  | Json.Obj fields ->
    List.fold_left
      (fun acc (name, v) ->
        let p = if prefix = "" then name else prefix ^ "." ^ name in
        flatten p v acc)
      acc fields
  | Json.Int n -> (prefix, n) :: acc
  | _ -> acc

let diff ~expected ~actual =
  let exp = List.rev (flatten "" expected []) in
  let act = List.rev (flatten "" actual []) in
  let act_tbl = Hashtbl.create 64 in
  List.iter (fun (p, n) -> Hashtbl.replace act_tbl p n) act;
  let exp_tbl = Hashtbl.create 64 in
  List.iter (fun (p, n) -> Hashtbl.replace exp_tbl p n) exp;
  let drifted =
    List.filter_map
      (fun (p, want) ->
        match Hashtbl.find_opt act_tbl p with
        | Some got when got <> want -> Some (p, Some want, Some got)
        | Some _ -> None
        | None -> Some (p, Some want, None))
      exp
  in
  let extra =
    List.filter_map
      (fun (p, got) ->
        if Hashtbl.mem exp_tbl p then None else Some (p, None, Some got))
      act
  in
  drifted @ extra

let pp_drift (path, want, got) =
  let show = function Some n -> string_of_int n | None -> "(absent)" in
  Fmt.epr "  %-55s baseline %s, now %s@." path (show want) (show got)

let load_baseline () =
  let ic = open_in_bin baseline_path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Fmt.failwith "%s: invalid JSON: %s" baseline_path e

let write () =
  let oc = open_out_bin baseline_path in
  output_string oc (Json.to_string (current ()));
  output_string oc "\n";
  close_out oc;
  Fmt.pr "bench-baseline: wrote %s@." baseline_path

let check ~expected ~actual ~what =
  match diff ~expected ~actual with
  | [] ->
    Fmt.pr "bench-check: OK (%s, all counters match %s)@." what baseline_path;
    true
  | drifts ->
    Fmt.epr "bench-check: FAIL (%s): %d counter(s) drifted@." what
      (List.length drifts);
    List.iter pp_drift drifts;
    Fmt.epr "  (intended change?  rerun with --write and commit the diff)@.";
    false

(* Perturb the first tracked leaf of the committed snapshot and demand the
   comparison notices: a gate that cannot fail is no gate. *)
let selftest () =
  let expected = load_baseline () in
  let perturbed =
    let rec bump = function
      | Json.Int n -> (Json.Int (n + 1), true)
      | Json.Obj ((name, v) :: rest) ->
        let v', hit = bump v in
        if hit then (Json.Obj ((name, v') :: rest), true)
        else
          let rest', hit' = bump (Json.Obj rest) in
          (match rest' with
           | Json.Obj rest' -> (Json.Obj ((name, v) :: rest'), hit')
           | _ -> assert false)
      | j -> (j, false)
    in
    fst (bump expected)
  in
  if diff ~expected ~actual:perturbed = [] then begin
    Fmt.epr "bench-selftest: FAIL: perturbed snapshot passed the check@.";
    exit 1
  end;
  (* and the unperturbed snapshot must still match a live run *)
  if not (check ~expected ~actual:(current ()) ~what:"selftest control") then
    exit 1;
  Fmt.pr "bench-selftest: OK (perturbed counter detected, control clean)@."

let () =
  match Sys.argv with
  | [| _ |] | [| _; "--check" |] ->
    if not (check ~expected:(load_baseline ()) ~actual:(current ()) ~what:"live")
    then exit 1
  | [| _; "--write" |] -> write ()
  | [| _; "--selftest" |] -> selftest ()
  | _ ->
    Fmt.epr "usage: baseline [--check | --write | --selftest]@.";
    exit 2
