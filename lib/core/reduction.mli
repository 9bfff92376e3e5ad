(** Horizontal-reduction vectorization — the reduction-tree seed idiom the
    paper lists in §2.2.

    Chains of one commutative+associative opcode (with non-escaping
    intermediates) are rewritten as W-wide chunk combines + one [Reduce] +
    a scalar tail fold, when the cost model approves. *)

open Lslp_ir

type candidate = {
  cand_op : Opcode.binop;
  cand_root : Instr.t;
  cand_chain : Instr.t list;
  cand_leaves : Instr.value list;
}

val collect_candidates : Block_analysis.t -> candidate list
(** Reduction-chain roots of one block in program order, with their
    leaves; use counts come off the block's arena. *)

type region = {
  root_desc : string;  (** ["reduce OP xLEAVES"] *)
  lanes : int;
  cost : int;  (** net cost of the whole rewrite; negative = profitable *)
  outcome : Lslp_check.Remark.outcome;
      (** [Vectorized], [Not_schedulable] or [Unprofitable] *)
}

val run :
  ?config:Config.t ->
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  ?ids:Lslp_util.Id_gen.t ->
  ?record:(lanes:Instr.t array -> vector:Instr.t -> unit) ->
  ?on_skipped:(candidate -> unit) ->
  Block_analysis.t ->
  region list
(** Vectorize every profitable reduction, mutating the block.  Every
    candidate of one block state reads the same analysis: a rejected or
    unschedulable candidate leaves it in place, and a vectorized one drops
    it through {!Codegen.run}'s commit.  One region record per candidate
    with at least a full chunk of leaves; [on_skipped] fires
    for candidates with too few leaves for even one chunk; [record] is
    forwarded to {!Codegen.run} for provenance; [trace] records the chunk
    graphs, the cost decision and one [Region_outcome] per candidate.

    Not fail-soft on its own: raises [Lslp_robust.Transact.Check_failed]
    when codegen reports a malformed graph (the block may be
    half-rewritten), [Lslp_robust.Budget.Exhausted] when [meter] runs out,
    and [Lslp_robust.Inject.Fault] under fault injection — run it inside
    {!Lslp_robust.Transact.protect} (as {!Pipeline.run} does). *)
