(** Pass-level instrumentation: counters + wall-clock timers.

    One probe per region (basic block); the pipeline threads it through
    seed collection, graph building, operand reordering, code generation
    and reduction vectorization, then aggregates the snapshots into
    {!Report.t}.  Counters are deterministic per (input, configuration);
    timers are wall-clock and must be masked in golden tests. *)

type counters = {
  mutable seeds_collected : int;
      (** seed bundles {!Lslp_core.Seeds.collect} found *)
  mutable seeds_tried : int;  (** seed bundles the driver attempted *)
  mutable score_evals : int;
      (** look-ahead score comparisons (Listing 7), recursive ones
          included *)
  mutable score_hits : int;
  mutable score_misses : int;
      (** Always 0: look-ahead scoring has no memo table.  Kept, and left
          out of {!counter_fields}, only because [perfbench/bench.ml]
          reads them to derive [pipeline.score_hit_ratio]; they go when
          that metric does. *)
  mutable graph_nodes : int;  (** fresh SLP-graph nodes built *)
  mutable instrs_emitted : int;
      (** instructions code generation materialized (vector ops, gathers,
          extracts, reductions) in committed regions *)
  mutable regions_vectorized : int;
  mutable regions_degraded : int;  (** regions rolled back to scalar *)
}

val zero_counters : unit -> counters
val copy_counters : counters -> counters
val add_counters : into:counters -> counters -> unit

val counter_fields : (string * (counters -> int)) list
(** Display-order (label, projection) pairs shared by every renderer. *)

type t

val create : unit -> t
val counters : t -> counters

val add_time : t -> string -> float -> unit
(** Accumulate [seconds] (one call) against a pass name. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock time against the pass name;
    the time is charged even when the thunk raises. *)

type snapshot = {
  s_counters : counters;
  s_timers : (string * float * int) list;
      (** (pass, total seconds, calls) in first-seen order *)
}

val snapshot : t -> snapshot
val empty_snapshot : snapshot

val merge : snapshot list -> snapshot
(** Pointwise sum; timer passes keep first-seen order across the inputs. *)
