(** A basic block: an ordered, mutable sequence of instructions.

    The SLP papers operate on straight-line code inside one block, so this is
    the unit every analysis and transformation works over.  Program order is
    significant: memory dependences are defined relative to it. *)

type bound = Bound_const of int | Bound_sym of string
(** Loop bound: a compile-time constant or an [i64] function argument. *)

type loop_info = {
  counter : string;  (** induction symbol, local to the block's addresses *)
  l_start : int;
  l_stop : bound;    (** exclusive: iterate while [counter < l_stop] *)
  l_step : int;      (** > 0 *)
}

type kind = Straight | Loop of loop_info
(** A block is either straight-line code reached by fallthrough, or the body
    of a counted loop.  Loop state lives in memory (no phis): the only value
    a [Loop] block threads between iterations is its counter symbol, which
    may appear in the block's address expressions. *)

type t

val create : ?label:string -> ?kind:kind -> unit -> t
val label : t -> string
val kind : t -> kind
val loop_info : t -> loop_info option
val is_loop : t -> bool

val trip_count : loop_info -> int option
(** Number of iterations when the bound is constant; [None] for symbolic
    bounds or non-positive steps. *)

val to_list : t -> Instr.t list
val length : t -> int

val append : t -> Instr.t -> unit
val append_list : t -> Instr.t list -> unit

val mem : t -> Instr.t -> bool

val position : t -> Instr.t -> int option
(** Position of an instruction in program order (0-based). *)

val position_exn : t -> Instr.t -> int

val insert_before : t -> anchor:Instr.t -> Instr.t list -> unit
(** Insert a sequence immediately before [anchor].
    @raise Invalid_argument if [anchor] is not in the block. *)

val remove : t -> Instr.t -> unit
val remove_ids : t -> int list -> unit

val set_order : t -> Instr.t list -> unit
(** Replace the block's contents/order wholesale (used by the scheduler). *)

val iter : (Instr.t -> unit) -> t -> unit
val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a
val find_all : (Instr.t -> bool) -> t -> Instr.t list
