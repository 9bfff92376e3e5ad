(** Dependence graph of a basic block (data + memory dependences).

    Any topological order of this graph preserves straight-line semantics;
    that fact underlies the bundle-schedulability check (contract groups,
    test acyclicity).

    The vectorizer builds one per block state ([Lslp_core.Block_analysis])
    and drops it when code generation rewrites the block; the legality
    snapshot, an independent check, builds its own. *)

open Lslp_ir

type t

val build : Arena.t -> t
(** Build over a block's arena; positions and aliasing come off its
    precomputed tables. *)

val mem : t -> Instr.t -> bool
(** Was this instruction part of the block the graph was built from?
    Instructions created later (by code generation) are not members. *)

val depends : t -> Instr.t -> on:Instr.t -> bool
(** Transitive (strict) dependence.
    @raise Invalid_argument if either instruction is not a member. *)

val reaches : t -> int -> int -> bool
(** [depends] by compact index (position in the underlying arena): one
    byte read, no id lookup.  Unchecked — callers index with positions
    in the arena the graph was built over. *)

val independent : t -> Instr.t list -> bool
(** No member transitively depends on another — the paper's per-bundle
    "schedulable" termination condition. *)

val schedulable_groups : t -> Instr.t list list -> bool
(** Whole-graph check: contracting each group to one node leaves the
    dependence graph acyclic. *)
