(** Optimization remarks — the pass's explanation of its own decisions.

    One {!t} per region the pipeline considered, carrying the outcome
    (vectorized / unprofitable / not schedulable / reduction too narrow)
    plus {!note}s gathered while the graph was built (operand-reorder slots
    that ended FAILED, multi-node growth capped, operand columns gathered
    and why).  A fixed list of rules turns records into human-readable
    remark lines; {!report_to_json} renders the machine form. *)

type note =
  | Operand_mode_failed of { slots : int }
      (** look-ahead reorder slots whose mode degraded to FAILED *)
  | Multinode_capped of { limit : int }
      (** multi-node growth stopped by the configured size limit *)
  | Column_rejected of { reason : string; count : int }
      (** operand columns turned into gathers, by rejection reason *)
  | Seed_rejected of { reason : string }
      (** the seed bundle itself could not be vectorized *)

type outcome =
  | Vectorized
  | Unprofitable
  | Not_schedulable
  | Reduction_unmatched of { leaves : int; width : int }
  | Degraded of { pass : string; error : string }
      (** a pass failed mid-transform; the region was rolled back to its
          scalar form (fail-soft pipeline) *)
  | Budget_exhausted of { pass : string; what : string }
      (** a resource budget (fuel, nodes, steps) ran out; the region was
          rolled back to its scalar form *)

type t = {
  region : string;  (** seed / reduction-root description *)
  block : string;  (** label of the basic block (region) considered *)
  lanes : int;
  cost : int option;  (** total region cost; [None] when never costed *)
  threshold : int;
  outcome : outcome;
  notes : note list;
}

val explain : t -> (string * string) list
(** [(rule_name, message)] for every applicable built-in rule, in a fixed
    order: outcome, seed-rejected, operand-mode-failed, multi-node-capped,
    gathered-columns. *)

val pp : t Fmt.t
(** Multi-line human-readable remark for one region. *)

val trace_name : outcome -> string
(** The outcome as a decision-trace [Region_outcome] event names it:
    [vectorized], [rejected-cost], [not-schedulable] or [degraded] (both
    rollback outcomes). *)

val report_json :
  config_name:string ->
  func_name:string ->
  diagnostics:Diagnostic.t list ->
  t list ->
  Lslp_util.Json.t
(** The whole report as a {!Lslp_util.Json} value, for callers composing
    larger documents. *)

val report_to_json :
  config_name:string ->
  func_name:string ->
  diagnostics:Diagnostic.t list ->
  t list ->
  string
(** {!report_json} rendered minified.  Field order and byte layout are
    stable — the cram goldens pin them. *)
