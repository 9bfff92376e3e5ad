(** Vectorizer configuration.

    Captures the paper's compiler configurations — SLP-NR, SLP, LSLP — and
    the sensitivity knobs of Figure 13 (look-ahead depth, multi-node size).
    "O3" is simply not running the pass. *)

type reorder_strategy =
  | No_reorder  (** SLP-NR: keep operand order as written *)
  | Vanilla     (** SLP: LLVM-4.0-style opcode/splat/consecutive-load swap *)
  | Lookahead   (** LSLP: multi-nodes + mode-driven look-ahead reordering *)

type score_combine = Score_sum | Score_max

type t = {
  name : string;
  strategy : reorder_strategy;
  lookahead_depth : int;
  max_multinode_groups : int option;
  max_lanes : int option;
  threshold : int;
  score_combine : score_combine;
  model : Lslp_costmodel.Model.t;
  reductions : bool;
  validate : bool;
  remarks : bool;
  trace : bool;
  budget : Lslp_robust.Budget.t;
  inject : Lslp_robust.Inject.t option;
  deadline : Lslp_robust.Budget.deadline option;
}

val lslp : t
(** The paper's LSLP: look-ahead depth 8, unlimited multi-nodes. *)

val slp : t
val slp_nr : t

val lslp_la : int -> t
(** LSLP with a given look-ahead depth (Figure 13's LA-k). *)

val lslp_multi : int -> t
(** LSLP with multi-node size capped at [k] group nodes (Figure 13's
    Multi-k). *)

val with_model : Lslp_costmodel.Model.t -> t -> t
val with_threshold : int -> t -> t
val with_max_lanes : int -> t -> t
val with_score_combine : score_combine -> t -> t

val with_reductions : bool -> t -> t

val with_validate : bool -> t -> t
(** Re-check the transformed function against the pre-pass dependence
    graph (see [Lslp_check.Legality]); diagnostics land in the report. *)

val with_remarks : bool -> t -> t
(** Record one [Lslp_check.Remark.t] per region considered. *)

val with_trace : bool -> t -> t
(** Record the decision-trace event stream ([Lslp_trace.Trace]) in
    [Pipeline.report.trace_events]: seeds found/tried, SLP-graph shape,
    per-slot operand modes, every [get_best] call with its candidate set
    and per-level look-ahead scores, cost accept/reject, emitted vector
    instructions, rollbacks and region outcomes.  Default off.  Off is
    observationally invisible: no sink is allocated and IR, remarks and
    telemetry are byte-identical (a QCheck differential property asserts
    it); events carry logical timestamps, so traces themselves are
    deterministic per (input, configuration). *)

val with_budget : Lslp_robust.Budget.t -> t -> t
(** Resource caps (look-ahead fuel, graph-node cap, per-region step cap);
    exceeding one degrades the region to scalar with a budget remark
    instead of hanging or overflowing the stack.  Default
    {!Lslp_robust.Budget.default}. *)

val with_inject : Lslp_robust.Inject.t -> t -> t
(** Arm deterministic fault injection at pass boundaries; used by the
    robustness tests and [lslpc --inject] to exercise the rollback path. *)

val with_deadline : Lslp_robust.Budget.deadline -> t -> t
(** Arm the compile service's per-job cooperative deadline: the pipeline
    ticks it at the same eight pass boundaries the fault injector
    instruments, and expiry raises {!Lslp_robust.Budget.Deadline_expired}
    through {!Pipeline.run} (with all snapshots restored) — the job is
    cancelled, not degraded.  Default off ([None]). *)

val effective_max_lanes : t -> Lslp_ir.Types.scalar -> int
val multinode_limit : t -> int

val fingerprint : t -> string
(** A stable flattening of every output-affecting knob — the config half
    of the service cache key.  [inject], [deadline] and [trace] are
    excluded: the service never caches faulted runs, and neither deadlines
    nor tracing change the IR of a run that completes. *)

val pp : t Fmt.t
