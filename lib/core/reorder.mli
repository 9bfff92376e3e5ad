(** Operand reordering strategies.

    [vanilla_pair] ports LLVM 4.0's reorderInputsAccordingToOpcode (the
    paper's SLP baseline); [reorder_matrix] implements LSLP's mode-driven,
    look-ahead-scored single-pass reorder over the (operand-slot × lane)
    matrix (Listings 5-7). *)

open Lslp_ir

type mode = Const_mode | Load_mode | Opcode_mode | Splat_mode | Failed_mode

val mode_to_string : mode -> string

val consecutive_or_match : Instr.value -> Instr.value -> bool
(** Constants match constants, loads match consecutive loads, other
    instructions match on opcode class, arguments match themselves. *)

val pair_score : Instr.value -> Instr.value -> int
(** Graded base score for the look-ahead: identical values and consecutive
    loads score 2, constants and same-opcode instructions 1, everything else
    (including non-consecutive loads) 0. *)

val lookahead_score :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  combine:Config.score_combine ->
  Instr.value ->
  Instr.value ->
  level:int ->
  int
(** Listing 7 as written: recursive match count between two sub-DAGs down
    to [level], with no memo table.  With [?meter], every comparison spends
    one unit of look-ahead fuel and the whole reorder bails with
    [Budget.Exhausted] when the cap is hit — the defense against
    exponentially-shared DAGs.  [?probe] counts the comparisons in
    [score_evals]. *)

val init_mode : Instr.value -> mode

val get_best :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  Config.t ->
  mode ->
  Instr.value ->
  Instr.value list ->
  Instr.value option * mode
(** Listing 6: choose among candidates given the slot's mode and the
    previous lane's pick; [None] means the slot defers (already FAILED).
    The look-ahead tie-break scores every candidate at level 1, 2, ...
    until the scores separate or [lookahead_depth] is reached.
    [?trace] records one [Get_best] event per call: the candidate set,
    the per-level look-ahead scores of the tie-break and the winner. *)

val reorder_matrix :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  Config.t ->
  Instr.value array array ->
  Instr.value array array
(** Listing 5 over [columns.(slot).(lane)].  Preserves each lane's multiset
    of operands; lane 0 is kept as-is. *)

val reorder_matrix_modes :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  Config.t ->
  Instr.value array array ->
  Instr.value array array * mode array
(** Like {!reorder_matrix}, but also returns the final per-slot mode —
    [Failed_mode] slots are the ones the remarks engine reports; [?trace]
    additionally records the [Slot_modes] assignment (paper Table 1). *)

val vanilla_pair : Instr.t array -> Instr.value array * Instr.value array
(** LLVM-4.0-faithful two-operand reorder (peeled lane 0, splat /
    same-opcode preservation, trailing consecutive-load pass). *)

val no_reorder_pair : Instr.t array -> Instr.value array * Instr.value array
