(* The pass driver: the flowchart of the paper's Figure 1, run once per
   region (basic block) of the function.

   For each block: collect seeds; for each seed group build the (L)SLP
   graph, evaluate its cost against the threshold, and if profitable
   generate vector code and clean up.  The function is transformed in
   place; a report records what happened per region, keyed by the label of
   the block it lives in.

   The driver is *fail-soft*: every mutating stage (graph build, codegen,
   reduction, per-block CSE/DCE) runs inside a transaction
   ([Lslp_robust.Transact]).  A snapshot of the block is taken first; any
   exception — a malformed graph, a budget cap, an injected fault, a
   structural-verifier finding on the transformed block — rolls the region
   back to its scalar form and records a [Degraded] outcome instead of
   escaping [run].  Only [Out_of_memory] and [Sys.Break] propagate.

   Two optional companions ride along, controlled by the config:

   - [validate]: a dependence-graph snapshot is taken before anything is
     mutated, code generation reports the scalar lanes behind every vector
     instruction it emits, and the transformed function is re-checked
     against the snapshot (plus the structural verifier after each pass) —
     see [Lslp_check.Legality].
   - [remarks]: one [Lslp_check.Remark.t] per region considered, with notes
     collected while the graph was built. *)

open Lslp_ir
module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact
module Probe = Lslp_telemetry.Probe
module Remark = Lslp_check.Remark

type region = {
  region_id : string;
  seed_desc : string;
  lanes : int;
  cost : Cost.summary;
  outcome : Remark.outcome;  (* never [Reduction_unmatched] *)
}

type report = {
  config_name : string;
  regions : region list;
  total_cost : int;     (* sum of costs of the regions actually vectorized *)
  vectorized_regions : int;
  degraded_regions : int;  (* regions rolled back to scalar by a failure *)
  remarks : Lslp_check.Remark.t list;          (* empty unless [remarks] *)
  diagnostics : Lslp_check.Diagnostic.t list;  (* empty unless [validate] *)
  telemetry : Lslp_telemetry.Report.t;  (* counters + timers, always on *)
  trace_events : Lslp_trace.Trace.event list;  (* empty unless [trace] *)
}

let zero_cost = { Cost.per_node = []; extract_cost = 0; total = 0 }

let describe_seed = Seeds.describe

(* Probe span plus matching Span_begin/Span_end trace events; the end event
   fires on the exception path too, so spans stay well-nested even when a
   pass aborts into the transaction layer. *)
let traced_span ?trace probe name f =
  match trace with
  | None -> Probe.span probe name f
  | Some tr ->
    Lslp_trace.Trace.record tr (Lslp_trace.Trace.Span_begin { pass = name });
    let finish () =
      Lslp_trace.Trace.record tr (Lslp_trace.Trace.Span_end { pass = name })
    in
    (match Probe.span probe name f with
     | v ->
       finish ();
       v
     | exception e ->
       finish ();
       raise e)

(* Raw build notes arrive one per event; fold duplicate column rejections
   into counts and duplicate cap/FAILED events into one note each. *)
let aggregate_notes (notes : Lslp_check.Remark.note list) :
    Lslp_check.Remark.note list =
  let open Lslp_check.Remark in
  let columns : (string * int) list ref = ref [] in
  let failed_slots = ref 0 in
  let capped = ref None in
  let seed_rejected = ref None in
  List.iter
    (function
      | Column_rejected { reason; count } ->
        let cur =
          Option.value ~default:0 (List.assoc_opt reason !columns)
        in
        columns :=
          (reason, cur + count) :: List.remove_assoc reason !columns
      | Operand_mode_failed { slots } -> failed_slots := !failed_slots + slots
      | Multinode_capped _ as n ->
        if !capped = None then capped := Some n
      | Seed_rejected _ as n ->
        if !seed_rejected = None then seed_rejected := Some n)
    notes;
  Option.to_list !seed_rejected
  @ (if !failed_slots > 0 then
       [ Operand_mode_failed { slots = !failed_slots } ]
     else [])
  @ Option.to_list !capped
  @ List.rev_map
      (fun (reason, count) -> Column_rejected { reason; count })
      !columns

let failed_outcome (failure : Transact.failure) : Remark.outcome =
  let { Transact.pass; error; budget_exhausted } = failure in
  if budget_exhausted then Remark.Budget_exhausted { pass; what = error }
  else Remark.Degraded { pass; error }

let is_degraded : Remark.outcome -> bool = function
  | Remark.Degraded _ | Remark.Budget_exhausted _ -> true
  | Remark.Vectorized | Remark.Unprofitable | Remark.Not_schedulable
  | Remark.Reduction_unmatched _ ->
    false

(* The unprotected driver: individual regions are transactional, but a bug
   in the driver itself (or in seed collection) would still escape — [run]
   adds the whole-function safety net around this. *)
let run_unprotected ?trace ~(config : Config.t) (f : Func.t) : report =
  let open Lslp_check in
  let inject = config.Config.inject in
  (* run-wide SLP-graph node-id source: nids stay unique across every graph
     of this run (the DOT exporter relies on it) and start from 1 on every
     run, so concurrent runs on other domains number independently *)
  let graph_ids = Lslp_util.Id_gen.create ~first:1 () in
  let diagnostics = ref [] in
  let snap =
    if config.Config.validate then
      match Legality.snapshot f with
      | s -> Some s
      | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
      | exception e ->
        diagnostics :=
          [ Diagnostic.warning ~rule:"legality:snapshot"
              (Fmt.str "dependence snapshot failed (%s); validation skipped"
                 (Printexc.to_string e)) ];
        None
    else None
  in
  let provenance : Legality.lane_provenance list ref = ref [] in
  let record_opt =
    if config.Config.validate then
      Some
        (fun ~lanes ~vector ->
          provenance :=
            { Legality.lanes = Array.copy lanes; vector } :: !provenance)
    else None
  in
  let seen_verifier_msgs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* structural verification after each pass, attributed to that pass;
     errors already present after an earlier pass are not re-reported *)
  let checkpoint pass =
    if config.Config.validate then
      List.iter
        (fun (e : Verifier.error) ->
          if not (Hashtbl.mem seen_verifier_msgs e.Verifier.message) then begin
            Hashtbl.replace seen_verifier_msgs e.Verifier.message ();
            let instrs =
              match e.Verifier.instr with Some i -> [ i ] | None -> []
            in
            diagnostics :=
              Diagnostic.error ~instrs ~rule:("verifier:" ^ pass)
                e.Verifier.message
              :: !diagnostics
          end)
        (Verifier.check_func f)
  in
  (* in-transaction structural check: unlike [checkpoint] this always runs
     on freshly transformed blocks and *aborts* the region on a finding, so
     a miscompile degrades to scalar instead of reaching the caller *)
  let verify_or_abort pass =
    match Verifier.check_func f with
    | [] -> ()
    | e :: _ ->
      raise
        (Transact.Check_failed
           { pass; error = Verifier.error_to_string e })
  in
  let remarks = ref [] in
  let add_remark r = if config.Config.remarks then remarks := r :: !remarks in
  let regions = ref [] in
  (* Regions are self-contained (no cross-block values), so each block is
     an independent vectorization universe: seeds, graphs, reductions and
     the consumed-store bookkeeping never cross a block boundary.  Each
     block also gets its own budget meter. *)
  let meters : (string, Budget.meter) Hashtbl.t = Hashtbl.create 4 in
  let meter_of block =
    let label = Block.label block in
    match Hashtbl.find_opt meters label with
    | Some m -> m
    | None ->
      let m = Budget.meter config.Config.budget in
      Hashtbl.replace meters label m;
      m
  in
  (* One probe per block, same lifetime as the block's budget meter.
     Counters measure work *performed*, so a rolled-back attempt keeps its
     score evaluations and graph nodes — only [instrs_emitted] is charged
     exclusively on commit (inside codegen). *)
  let probes : (string, Probe.t) Hashtbl.t = Hashtbl.create 4 in
  let probe_of label =
    match Hashtbl.find_opt probes label with
    | Some p -> p
    | None ->
      let p = Probe.create () in
      Hashtbl.replace probes label p;
      p
  in
  (* The one write site of a region decision: the committed-outcome
     counter, the trace's [Region_outcome] (only when [trace] is passed —
     reductions record theirs inside their own span), the remark and the
     report row.  A degraded region was never costed. *)
  let decide ?trace ~region_id ~seed_desc ~lanes ~cost ?(notes = [])
      (outcome : Remark.outcome) =
    let c = Probe.counters (probe_of region_id) in
    let degraded = is_degraded outcome in
    let costed = if degraded then None else Some cost.Cost.total in
    if outcome = Remark.Vectorized then
      c.Probe.regions_vectorized <- c.Probe.regions_vectorized + 1
    else if degraded then
      c.Probe.regions_degraded <- c.Probe.regions_degraded + 1;
    Option.iter
      (fun tr ->
        Lslp_trace.Trace.record tr
          (Lslp_trace.Trace.Region_outcome
             { seed = seed_desc; lanes; outcome = Remark.trace_name outcome;
               cost = costed }))
      trace;
    add_remark
      {
        Remark.region = seed_desc;
        block = region_id;
        lanes;
        cost = costed;
        threshold = config.Config.threshold;
        outcome;
        notes;
      };
    regions := { region_id; seed_desc; lanes; cost; outcome } :: !regions
  in
  let degrade ~region_id ~seed_desc ~lanes (failure : Transact.failure) =
    Option.iter
      (fun tr ->
        Lslp_trace.Trace.record tr
          (Lslp_trace.Trace.Rollback
             {
               pass = failure.Transact.pass;
               error = failure.Transact.error;
               budget_exhausted = failure.Transact.budget_exhausted;
             }))
      trace;
    decide ?trace ~region_id ~seed_desc ~lanes ~cost:zero_cost
      (failed_outcome failure)
  in
  let run_block (block : Block.t) =
    let region_id = Block.label block in
    Option.iter (fun tr -> Lslp_trace.Trace.set_region tr region_id) trace;
    let meter = meter_of block in
    let probe = probe_of region_id in
    let pc = Probe.counters probe in
    let exhausted = ref false in
    let continue_ = ref true in
    let consumed = Lslp_util.Int_table.create 32 in
    (* one analysis per block state, shared by every seed attempt and the
       reduction pass; only a codegen commit drops it *)
    let analysis = Block_analysis.create block in
    while !continue_ && not !exhausted do
      continue_ := false;
      let snapshot = Transact.snapshot_block block in
      let saved_provenance = !provenance in
      let cur_pass = ref "seed-collect" in
      let cur_seed = ref None in
      let result =
        Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
            Budget.spend_step meter;
            let seeds =
              traced_span ?trace probe "seed-collect" (fun () ->
                  Seeds.collect ~probe ?trace config analysis)
            in
            let fresh =
              List.filter
                (fun (s : Seeds.seed) ->
                  Array.for_all
                    (fun (i : Instr.t) ->
                      (not (Lslp_util.Int_table.mem consumed i.id))
                      && Block.mem block i)
                    s)
                seeds
            in
            match fresh with
            | [] -> ()
            | seed :: _ ->
              (* consume the seed and arm the retry *before* any fallible
                 work: a failure must not make this seed come back forever *)
              Array.iter
                (fun (i : Instr.t) ->
                  Lslp_util.Int_table.set consumed i.id 1)
                seed;
              continue_ := true;
              cur_seed := Some seed;
              pc.Probe.seeds_tried <- pc.Probe.seeds_tried + 1;
              Option.iter
                (fun tr ->
                  Lslp_trace.Trace.record tr
                    (Lslp_trace.Trace.Seed_tried
                       { seed = describe_seed seed;
                         lanes = Array.length seed }))
                trace;
              cur_pass := "graph-build";
              Config.boundary config Inject.Graph_build;
              let notes = ref [] in
              let note =
                if config.Config.remarks then
                  Some (fun n -> notes := n :: !notes)
                else None
              in
              let graph, root =
                traced_span ?trace probe "graph-build" (fun () ->
                    Graph_builder.build ?note ~meter ~probe ?trace
                      ~ids:graph_ids config analysis seed)
              in
              cur_pass := "cost";
              let cost =
                traced_span ?trace probe "cost" (fun () ->
                    Cost.evaluate config graph analysis)
              in
              Option.iter
                (fun tr ->
                  Lslp_trace.Trace.record tr
                    (Lslp_trace.Trace.Cost_computed
                       {
                         seed = describe_seed seed;
                         nodes = List.length (Graph.nodes graph);
                         total = cost.Cost.total;
                         threshold = config.Config.threshold;
                         accepted = Cost.profitable config cost;
                       }))
                trace;
              cur_pass := "codegen";
              let outcome =
                if Cost.profitable config cost then begin
                  Config.boundary config Inject.Codegen;
                  match
                    traced_span ?trace probe "codegen" (fun () ->
                        Codegen.run ?record:record_opt ~probe ?trace graph
                          analysis)
                  with
                  | Codegen.Vectorized ->
                    if Inject.corrupts inject then
                      ignore (Inject.corrupt_block block);
                    cur_pass := "verify";
                    Config.boundary config Inject.Verify;
                    verify_or_abort "verify";
                    checkpoint "codegen+dce";
                    (* committed only past the verify abort above, so
                       [decide] never counts a phantom vectorized region *)
                    Remark.Vectorized
                  | Codegen.Not_schedulable -> Remark.Not_schedulable
                  | Codegen.Failed msg ->
                    raise
                      (Transact.Check_failed { pass = "codegen"; error = msg })
                end
                else Remark.Unprofitable
              in
              let notes =
                if config.Config.remarks then
                  (* the first bundle built is the seed itself: if the root
                     is a gather, its rejection explains the whole region *)
                  aggregate_notes
                    (match (root.Graph.shape, List.rev !notes) with
                     | ( Graph.Gather _,
                         Remark.Column_rejected { reason; _ } :: rest ) ->
                       Remark.Seed_rejected { reason } :: rest
                     | _, notes -> notes)
                else []
              in
              decide ?trace ~region_id ~seed_desc:(describe_seed seed)
                ~lanes:(Array.length seed) ~cost ~notes outcome)
      in
      match result with
      | Ok () -> ()
      | Error failure ->
        (* rolled back: provenance recorded during the failed attempt
           refers to instructions that no longer exist *)
        provenance := saved_provenance;
        if failure.Transact.budget_exhausted then exhausted := true;
        let seed_desc, lanes =
          match !cur_seed with
          | Some seed -> (describe_seed seed, Array.length seed)
          | None -> (Fmt.str "(%s)" failure.Transact.pass, 0)
        in
        degrade ~region_id ~seed_desc ~lanes failure
    done;
    (* after the store seeds: the reduction-tree idiom (paper §2.2) *)
    if config.Config.reductions && not !exhausted then begin
      (* remark only: an unmatched candidate is never a report row *)
      let on_skipped (c : Reduction.candidate) =
        let leaves = List.length c.Reduction.cand_leaves in
        let elt =
          match Types.scalar_of c.Reduction.cand_root.Instr.ty with
          | Some s -> s
          | None -> Types.F64
        in
        add_remark
          {
            Remark.region =
              Fmt.str "reduce %s x%d"
                (Opcode.binop_name c.Reduction.cand_op)
                leaves;
            block = region_id;
            lanes = 0;
            cost = None;
            threshold = config.Config.threshold;
            outcome =
              Remark.Reduction_unmatched
                { leaves; width = Config.effective_max_lanes config elt };
            notes = [];
          }
      in
      (* last reader of [analysis]: a rollback here may undo a committed
         reduction, leaving it stale *)
      let snapshot = Transact.snapshot_block block in
      let saved_provenance = !provenance in
      let result =
        Transact.protect ~snapshot ~pass:(fun () -> "reduction") (fun () ->
            let rs =
              traced_span ?trace probe "reduction" (fun () ->
                  Reduction.run ~config ~meter ~probe ?trace ~ids:graph_ids
                    ?record:record_opt ~on_skipped analysis)
            in
            (* the block is only mutated when a reduction vectorized
               (rejected/unschedulable candidates emit nothing, and a
               half-rewrite raises out of this transaction), so an
               unvectorized outcome leaves the already-verified block
               byte-identical — skip the re-check *)
            if
              List.exists
                (fun r -> r.Reduction.outcome = Remark.Vectorized)
                rs
            then begin
              if Inject.corrupts inject then
                ignore (Inject.corrupt_block block);
              verify_or_abort "reduction-verify"
            end;
            rs)
      in
      match result with
      | Ok rs ->
        List.iter
          (fun (r : Reduction.region) ->
            decide ~region_id ~seed_desc:r.Reduction.root_desc
              ~lanes:r.Reduction.lanes
              ~cost:{ zero_cost with Cost.total = r.Reduction.cost }
              r.Reduction.outcome)
          rs;
        checkpoint "reduction"
      | Error failure ->
        provenance := saved_provenance;
        degrade ~region_id ~seed_desc:"(reduction)" ~lanes:0 failure
    end
  in
  List.iter run_block (Func.blocks f);
  (* whole-function cleanup: regions are vectorized one at a time, so
     duplicate gathers/extracts across regions only fall out here.  CSE and
     DCE are per-block folds, so the cleanup is transactional per block: a
     cleanup failure keeps that block's (already verified) vectorized form
     and degrades only the cleanup. *)
  let cleanup_block (block : Block.t) =
    let region_id = Block.label block in
    Option.iter (fun tr -> Lslp_trace.Trace.set_region tr region_id) trace;
    let probe = probe_of region_id in
    let snapshot = Transact.snapshot_block block in
    let cur_pass = ref "cse" in
    let result =
      Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
          Config.boundary config Inject.Cse;
          let cse_removed =
            traced_span ?trace probe "cse" (fun () -> Cse.run_block block)
          in
          cur_pass := "dce";
          Config.boundary config Inject.Dce;
          let dce_removed =
            traced_span ?trace probe "dce" (fun () -> Dce.run_block block)
          in
          (* both passes report how many instructions they removed; when
             neither touched the block it is still in its last verified
             state, so the re-check would be a no-op *)
          if cse_removed + dce_removed > 0 then
            verify_or_abort "cleanup-verify")
    in
    match result with
    | Ok () -> ()
    | Error failure ->
      degrade ~region_id ~seed_desc:"(cleanup)" ~lanes:0 failure
  in
  List.iter cleanup_block (Func.blocks f);
  checkpoint "cleanup";
  (match snap with
   | Some snap -> (
     match Legality.validate ~provenance:!provenance snap f with
     | ds -> diagnostics := List.rev_append (List.rev ds) !diagnostics
     | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
     | exception e ->
       diagnostics :=
         Diagnostic.warning ~rule:"legality:validate"
           (Fmt.str "legality validation crashed (%s)"
              (Printexc.to_string e))
         :: !diagnostics)
   | None -> ());
  let regions = List.rev !regions in
  let telemetry =
    Lslp_telemetry.Report.make ~func:f.Func.fname ~config:config.Config.name
      (List.filter_map
         (fun block ->
           let label = Block.label block in
           Option.map
             (fun p -> (label, Probe.snapshot p))
             (Hashtbl.find_opt probes label))
         (Func.blocks f))
  in
  {
    config_name = config.Config.name;
    regions;
    total_cost =
      List.fold_left
        (fun acc r ->
          if r.outcome = Remark.Vectorized then acc + r.cost.Cost.total
          else acc)
        0 regions;
    vectorized_regions =
      List.length
        (List.filter (fun r -> r.outcome = Remark.Vectorized) regions);
    degraded_regions =
      List.length (List.filter (fun r -> is_degraded r.outcome) regions);
    remarks = List.rev !remarks;
    diagnostics = List.rev !diagnostics;
    telemetry;
    trace_events =
      (match trace with
       | Some tr -> Lslp_trace.Trace.events tr
       | None -> []);
  }

let run ?metrics ?(config = Config.lslp) (f : Func.t) : report =
  (* Whole-function safety net: region failures are handled inside, so
     anything arriving here is a driver bug — restore the function to its
     scalar input form and report one degraded pseudo-region rather than
     letting the exception escape the compiler. *)
  let trace =
    if config.Config.trace then Some (Lslp_trace.Trace.create ()) else None
  in
  (* feed the observability registry on every path that produces a report;
     cancellation re-raises and is accounted by the pool instead *)
  let observed report =
    (match metrics with
     | Some m -> Lslp_telemetry.Pass_metrics.observe m report.telemetry
     | None -> ());
    report
  in
  let whole = Transact.snapshot_func f in
  match run_unprotected ?trace ~config f with
  | report -> observed report
  | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
  | exception (Budget.Deadline_expired _ as cancel) ->
    (* cooperative cancellation from the service watchdog: restore the
       scalar input (region transactions already rolled their own state
       back) and let the pool decide — retry or typed job failure *)
    Transact.restore whole;
    raise cancel
  | exception e ->
    Transact.restore whole;
    let failure = Transact.failure_of_exn ~pass:"pipeline" e in
    (* events recorded before the driver died survive into the report —
       exactly the breadcrumbs needed to debug the driver bug *)
    observed
    {
      config_name = config.Config.name;
      regions =
        [ {
            region_id = f.Func.fname;
            seed_desc = Fmt.str "(%s)" failure.Transact.pass;
            lanes = 0;
            cost = zero_cost;
            outcome = failed_outcome failure;
          } ];
      total_cost = 0;
      vectorized_regions = 0;
      degraded_regions = 1;
      remarks = [];
      diagnostics = [];
      telemetry =
        Lslp_telemetry.Report.empty ~func:f.Func.fname
          ~config:config.Config.name;
      trace_events =
        (match trace with
         | Some tr -> Lslp_trace.Trace.events tr
         | None -> []);
    }

(* Convenience: clone, run, return (report, transformed clone). *)
let run_cloned ?metrics ?(config = Config.lslp) (f : Func.t) :
    report * Func.t =
  let g = Func.clone f in
  let report = run ?metrics ~config g in
  (report, g)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s: %d region(s), %d vectorized%s, total cost %+d"
    r.config_name (List.length r.regions) r.vectorized_regions
    (if r.degraded_regions > 0 then
       Fmt.str ", %d degraded" r.degraded_regions
     else "")
    r.total_cost;
  List.iter
    (fun reg ->
      Fmt.pf ppf "@,  [%s] %s (VL=%d): cost %+d%s" reg.region_id
        reg.seed_desc reg.lanes reg.cost.Cost.total
        (match reg.outcome with
         | Remark.Vectorized -> " [vectorized]"
         | Remark.Not_schedulable -> " [not schedulable]"
         | Remark.Unprofitable | Remark.Reduction_unmatched _ ->
           " [kept scalar]"
         | Remark.Degraded { pass; error } ->
           Fmt.str " [degraded: %s: %s]" pass error
         | Remark.Budget_exhausted { pass; what } ->
           Fmt.str " [degraded: %s: %s [budget]]" pass what))
    r.regions;
  Fmt.pf ppf "@]"
