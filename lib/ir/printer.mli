(** Textual form of the IR (LLVM-flavoured).  Total: never raises, even on
    ill-formed code, so it can be used in error messages and debug output.
    One Buffer core writes every form; the [pp_*] and [*_to_string]
    functions are thin wrappers over it. *)

val pp_const_readable : Instr.const Fmt.t
(** Short decimal form when it round-trips, hex-float otherwise. *)

val pp_value : Instr.value Fmt.t
val pp_instr : Instr.t Fmt.t

val pp_func : Func.t Fmt.t
(** One vertical box, one cut per line. *)

val instr_to_string : Instr.t -> string
val func_to_string : Func.t -> string
val value_to_string : Instr.value -> string

val canonical : Func.t -> string
(** The function with every instruction label spelled [%rK], K numbered
    by first appearance: byte-identical to
    [Lslp_util.Normalize.ids (func_to_string f)], rendered in one pass,
    whenever instruction names are identifiers ([A-Za-z0-9_.]), as every
    name the frontend and the passes give is.
    Two clones of one function print the same; this is the text the
    compile service keys its cache on and returns. *)
