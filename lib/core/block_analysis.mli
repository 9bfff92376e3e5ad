(** The analysis of one block in its current state: its {!Arena} and the
    {!Lslp_analysis.Depgraph} over it.  Seeds, graph build, cost, code
    generation and reduction all read this one value.

    The arena is built on the first read, the dependence graph on the
    first read that needs it (a block state that nothing graphs never pays
    for one).  Both live until a region commits: {!Codegen.run} calls
    {!commit} when it rewrites the block, and the next read rebuilds them.
    A rollback keeps them, because {!Lslp_robust.Transact} restores
    exactly the state they describe. *)

open Lslp_ir

type t

val create : Block.t -> t
(** Nothing is built yet. *)

val block : t -> Block.t

val arena : t -> Arena.t
(** The physically same arena on every read until the next {!commit}. *)

val deps : t -> Lslp_analysis.Depgraph.t
(** The dependence graph over {!arena}. *)

val commit : t -> unit
(** The block was rewritten: drop the arena and the dependence graph. *)
