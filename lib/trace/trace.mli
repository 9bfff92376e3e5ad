(** Decision tracing: a typed, zero-cost-when-off event stream recording
    {e why} the vectorizer did what it did.

    The pipeline (and the passes it drives) append structured events to a
    sink while transforming a function: seed bundles found and tried,
    SLP-graph shape (nodes, operand edges, dependence overlay — the
    paper's Fig. 6/7 diagrams), per-slot operand modes (Table 1), every
    [get_best] tie-break with its candidate set and per-level look-ahead
    scores (Listings 6–7), cost-model accept/reject with the numbers,
    emitted vector instructions, transaction rollbacks (including injected
    faults and budget exhaustion) and final region outcomes.

    {b Determinism contract.}  Events carry logical timestamps — the
    sink's own monotone event counter, not a clock — so a trace is a pure
    function of (input, configuration) and cram tests can pin it byte for
    byte.  No event reads the wall clock.

    Three exporters render the same stream: Chrome trace-event JSON
    (loads in Perfetto / chrome://tracing), Graphviz DOT of the SLP graph
    per region, and a human-readable decision log. *)

type node_kind =
  | Knode_group of string  (** opclass of the bundle *)
  | Knode_multi of string  (** the multi-node's commutative opcode *)
  | Knode_gather

type payload =
  | Span_begin of { pass : string }
  | Span_end of { pass : string }
      (** pass boundaries, mirroring [Lslp_telemetry.Probe.span] *)
  | Seeds_found of { seeds : (string * int) list  (** desc, lanes *) }
  | Seed_tried of { seed : string; lanes : int }
  | Graph_start of { gid : int; seed : string }
      (** one SLP graph build begins; [gid] is sink-unique *)
  | Graph_node of {
      gid : int;
      nid : int;
      kind : node_kind;
      bundles : string list list;
          (** per internal group (singleton except for multi-nodes), the
              per-lane scalar values *)
    }
  | Graph_edge of { gid : int; parent : int; child : int; slot : int }
  | Dep_edge of { gid : int; src : int; dst : int }
      (** [Depgraph] dependence between two graph nodes' scalars, overlaid
          on the operand edges *)
  | Slot_modes of { modes : string list }
      (** final per-slot operand mode after a matrix reorder (Table 1) *)
  | Get_best of {
      mode : string;
      last : string;
      candidates : string list;
      levels : (int * int list) list;
          (** look-ahead deepening: (level, getLAScore per {e tied}
              candidate) — empty when no tie-break was needed *)
      chosen : string option;
    }
  | Cost_computed of {
      seed : string;
      nodes : int;
      total : int;
      threshold : int;
      accepted : bool;
    }
  | Emit of { instr : string; lanes : int }
      (** one vector instruction materialized by codegen *)
  | Rollback of { pass : string; error : string; budget_exhausted : bool }
      (** a transaction rolled the region back to scalar; injected faults
          surface here with the fault point in [error] *)
  | Region_outcome of {
      seed : string;
      lanes : int;
      outcome : string;
      cost : int option;
    }

type event = {
  ts : int;  (** logical timestamp: the sink's event sequence number *)
  region : string;  (** block label the event happened in *)
  payload : payload;
}

type t
(** The sink.  The pipeline allocates one per run when [Config.trace] is
    on and threads it through every pass as [?trace]; with tracing off no
    sink exists and every instrumentation site is a [None] check. *)

val create : unit -> t
val set_region : t -> string -> unit
val fresh_gid : t -> int
val record : t -> payload -> unit
val events : t -> event list
(** In recording order. *)

(** {2 Rendering helpers} *)

val payload_name : payload -> string

(** {2 Exporters} *)

val to_chrome :
  ?meta:(string * string) list -> event list -> Lslp_util.Json.t
(** Chrome trace-event format ("JSON object format"): spans as B/E
    duration events nested per region thread, everything else as instant
    events with the payload in [args]; logical timestamps as
    microseconds.  Loads in Perfetto and chrome://tracing. *)

val chrome_string : ?meta:(string * string) list -> event list -> string

val to_dot : event list -> string
(** Graphviz DOT of the SLP graphs: one cluster per region, one
    sub-cluster per graph build, multi-nodes as clusters of their internal
    bundles, lanes color-coded, operand edges solid and [Depgraph] edges
    dashed. *)

val to_log : event list -> string
(** Human-readable decision log, one line per event, span-indented. *)
