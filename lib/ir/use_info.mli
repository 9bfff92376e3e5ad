(** Def-use queries for a block, read off its {!Arena}.

    LSLP needs use counts in two places: the multi-node "escape" rule (an
    intermediate value used outside the chain cannot be swallowed into a
    multi-node) and the extract-cost for vectorized values with external
    scalar users.  Counts come straight off the arena's CSR table, so
    {!num_uses}/{!has_single_use} are O(1).  Instructions outside the
    arena (created after it was built) have no uses. *)

val users : Arena.t -> Instr.t -> Instr.t list
(** Users in program order (an instruction using a value twice appears
    twice). *)

val num_uses : Arena.t -> Instr.t -> int
(** O(1). *)

val has_single_use : Arena.t -> Instr.t -> bool
(** O(1). *)

val is_dead : Arena.t -> Instr.t -> bool
(** No users and no side effect. *)

val users_outside : Arena.t -> Instr.t -> inside:(Instr.t -> bool) -> Instr.t list
(** Users for which [inside] is false. *)
