(** The (L)SLP pass driver — the flowchart of the paper's Figure 1.

    Per basic block of the function: repeatedly collect seeds, build the
    graph for the next unconsumed seed, cost it, vectorize when profitable.
    Transforms the function in place; every region record names the block
    it lives in via [region_id].

    {!run} is fail-soft: each region transforms inside a transactional
    snapshot ({!Lslp_robust.Transact}), so malformed graphs, resource-budget
    exhaustion ({!Lslp_robust.Budget}), injected faults
    ({!Lslp_robust.Inject}) and structural-verifier findings roll the region
    back to its scalar form and surface as a [Degraded] (or
    [Budget_exhausted]) outcome — they never raise out of the pipeline.  A
    whole-function snapshot backstops driver bugs the same way.  Only [Out_of_memory] and [Sys.Break] propagate. *)

open Lslp_ir

type region = {
  region_id : string;  (** label of the basic block holding this region *)
  seed_desc : string;
  lanes : int;
  cost : Cost.summary;
      (** all zero when degraded; a reduction row carries only [total] *)
  outcome : Lslp_check.Remark.outcome;
      (** the same value the region's remark carries: [Vectorized],
          [Unprofitable], [Not_schedulable], or — after a failed pass rolled
          the region back to scalar — [Degraded] / [Budget_exhausted].
          Never [Reduction_unmatched]: a reduction with too few leaves is a
          remark only. *)
}

type report = {
  config_name : string;
  regions : region list;
  total_cost : int;
  vectorized_regions : int;
  degraded_regions : int;
      (** regions rolled back by a failure; 0 on any healthy run *)
  remarks : Lslp_check.Remark.t list;
      (** one per row of [regions] (same order, same outcome) plus one per
          [Reduction_unmatched] candidate; empty unless [config.remarks],
          and after a whole-function failure *)
  diagnostics : Lslp_check.Diagnostic.t list;
      (** legality/verifier findings; empty unless [config.validate] *)
  telemetry : Lslp_telemetry.Report.t;
      (** per-block counters and pass timers, always collected.  Counters
          measure work performed — a rolled-back attempt keeps its score
          evaluations and graph nodes; only [instrs_emitted],
          [regions_vectorized] and [regions_degraded] reflect committed
          outcomes. *)
  trace_events : Lslp_trace.Trace.event list;
      (** the decision trace in recording order; empty unless
          [config.trace].  Events recorded before a whole-function failure
          survive into the degraded report.  Render with the
          {!Lslp_trace.Trace} exporters. *)
}

val run :
  ?metrics:Lslp_telemetry.Pass_metrics.t -> ?config:Config.t -> Func.t ->
  report
(** Run on [f], mutating it.  [config] defaults to {!Config.lslp}.
    With [metrics], the finished report is folded into the registry
    ([Pass_metrics.observe]) before returning — counters, step
    histograms and folded stacks; zero cost and output-invariant when
    omitted.
    With [config.validate] the pre-pass dependence graph is snapshotted and
    the transformed function is checked against it ({!Lslp_check.Legality});
    the structural verifier also runs after codegen, reduction, CSE and DCE,
    attributing any new error to the pass that introduced it.

    Independent of [validate], every freshly transformed block is checked by
    the structural verifier *inside* its transaction: a finding aborts and
    rolls back that region (degrading it) instead of producing a diagnostic
    on a miscompiled function. *)

val run_cloned :
  ?metrics:Lslp_telemetry.Pass_metrics.t -> ?config:Config.t -> Func.t ->
  report * Func.t
(** Like {!run} but on a deep copy, leaving the input untouched. *)

val pp_report : report Fmt.t
(** Renders like the pre-fail-soft format; the degraded count and per-region
    [\[degraded: ...\]] markers only appear when something degraded. *)
