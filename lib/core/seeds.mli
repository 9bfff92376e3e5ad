(** Seed collection: runs of adjacent, same-array scalar stores cut into
    power-of-two windows (widest native width first). *)

open Lslp_ir

type seed = Instr.t array

val describe : seed -> string
(** One-line printable form ("A[i] x4"); shared by the pipeline's region
    records, the remarks and the decision trace. *)

val collect :
  ?probe:Lslp_telemetry.Probe.t ->
  ?trace:Lslp_trace.Trace.t ->
  Config.t ->
  Block_analysis.t ->
  seed list
(** Seeds of one region, ordered by the position of their first store.
    Adjacency comes off the arena's address side table (int compares).
    [probe] counts the bundles found; [trace] records them as a
    [Seeds_found] event. *)
