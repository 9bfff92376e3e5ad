(** Per-block instruction arena: dense int-indexed snapshot of a block.

    Freezes one block into flat arrays — instructions in program order
    (the array index is the {e compact index}), an id→index map, CSR use
    lists, and a lazily-built address side table with interned base
    symbols and affine shapes.  All hot queries (use counts, positions,
    adjacency, aliasing) become array reads and int compares.

    Compact indices are per-arena coordinates; printed IR only ever shows
    global ids ({!Lslp_util.Id_gen} space).  An arena is a snapshot of the
    block as it was when built; the vectorizer keeps one per block state
    ([Lslp_core.Block_analysis]) until code generation rewrites the block. *)

type t

val of_block : Block.t -> t
val block : t -> Block.t

val size : t -> int
val instr : t -> int -> Instr.t

val idx : t -> Instr.t -> int
(** Compact index of an instruction, or [-1] when not in the arena. *)

val idx_of_id : t -> int -> int
val mem : t -> Instr.t -> bool

val pos : t -> Instr.t -> int
(** Program-order position; identical to {!idx}. *)

(** {2 Uses (CSR)} *)

val num_uses : t -> int -> int
(** O(1): number of operand occurrences of instruction [k] in the block. *)

val users : t -> int -> Instr.t list
(** Users in program order; a double use appears twice. *)

val iter_users : t -> int -> (int -> unit) -> unit
val fold_users : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** {2 Address side table} *)

val is_memory : t -> int -> bool

val same_array : t -> int -> int -> bool

val element_distance : t -> int -> int -> int option
(** Element distance [k - j] when comparable (same array, same symbolic
    shape); mirrors [Addr.element_distance] on the instructions. *)

val consecutive : t -> int -> int -> bool
val may_alias : t -> int -> int -> bool

val addr_base : t -> int -> int
(** Interned base-symbol id of a memory access, [-1] for non-memory.
    Interning order is program order of first appearance, so the ids are
    deterministic per arena; they are arena-local coordinates and must
    never be printed. *)

val addr_const : t -> int -> int
(** Constant part of the affine index (meaningless for non-memory). *)

val addr_lanes : t -> int -> int
(** Access width in elements, [0] for non-memory. *)

val same_shape : t -> int -> int -> bool
(** Same interned symbolic shape (both must be memory accesses). *)

(** {2 Invariants} *)

val check : t -> (unit, string) result
(** Dense bijective ids, monotone CSR offsets, in-range and acyclic uses.
    Run by [Verifier.check_func] on every block it accepts. *)

val shape_key : Affine.t -> string
(** Canonical rendering of an affine form's symbolic part; the string other
    passes intern when they need per-shape identity outside an arena. *)
