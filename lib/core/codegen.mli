(** Vector code generation: replace vectorizable bundles with wide
    instructions, emit gathers/shuffles/extracts, and reschedule the block.

    The block is rebuilt from a stable topological order of contracted
    dependence units, so any legal bundling gets a correct schedule; if the
    contraction is cyclic, [Not_schedulable] is returned and the function is
    left untouched. *)

open Lslp_ir

type outcome =
  | Vectorized
  | Not_schedulable
  | Failed of string
      (** a malformed graph was detected mid-emission; the block may be
          half-rewritten — callers must roll the region back
          (see {!Lslp_robust.Transact}) *)

exception Error of string
(** Raised internally on malformed graphs (dangling node references,
    ill-typed columns, wrong operand arity), naming the offending
    bundle/lane; caught at the {!run} boundary and returned as [Failed]. *)

(** A horizontal reduction vectorized alongside the graph: the scalar chain
    is replaced by element-wise combines of the leaf chunks, one [Reduce],
    and a scalar fold of the leftover leaves. *)
type reduction = {
  red_op : Opcode.binop;
  red_root : Instr.t;           (** the chain's root (its users get rewired) *)
  red_chain : Instr.t list;     (** every chain op, root included *)
  red_chunks : Graph.node list; (** W-wide leaf bundles, in combine order *)
  red_remainder : Instr.value list;  (** leaves folded scalar after reduce *)
}

val run :
  ?reduction:reduction ->
  ?record:(lanes:Instr.t array -> vector:Instr.t -> unit) ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  Graph.t ->
  Block_analysis.t ->
  outcome
(** [record] is invoked once per emitted vector instruction with the scalar
    lanes it replaces — the provenance feed of the legality validator.
    Multi-node internal bundles all map to the chain's final combine.
    [probe] counts the freshly materialized instructions (vector ops,
    gathers, shuffles, extracts, reduction combines), charged only when the
    outcome is [Vectorized].
    [trace] records one [Emit] event per freshly materialized instruction
    (in emission order, including ones a later rollback discards).
    Dependences come off the block's analysis, which must describe the
    block in its current, pre-codegen form.  [Vectorized] is the commit:
    it drops the analysis ({!Block_analysis.commit}).  [Not_schedulable]
    leaves the block and the analysis untouched; after [Failed] the
    caller's rollback restores the state the analysis still describes. *)
