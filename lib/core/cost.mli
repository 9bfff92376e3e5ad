(** Cost evaluation of an SLP graph against the configured cost model
    (vector savings per bundle + gather costs + external-use extracts). *)

open Lslp_ir

type node_cost = {
  nid : int;
  description : string;
  cost : int;
}

type summary = {
  per_node : node_cost list;
  extract_cost : int;
  total : int;
}

val bundle_cost : Lslp_costmodel.Model.t -> Instr.t array -> int
(** [vector_cost - Σ scalar_cost] for one bundle (negative = saving). *)

val evaluate :
  ?ignore_users:(Instr.t -> bool) ->
  Config.t ->
  Graph.t ->
  Block_analysis.t ->
  summary
(** Use counts come off the block's arena.  [ignore_users] marks
    instructions about to be deleted by the caller (e.g. a reduction
    chain), whose uses must not be charged extracts. *)

val profitable : Config.t -> summary -> bool
(** [summary.total < config.threshold]. *)

val pp_summary : summary Fmt.t
