(** Alpha-renaming of printed IR labels.

    Instruction labels embed a process-global id counter, so two pipeline
    runs over clones of one function are never byte-identical; after
    {!ids}, textual equality means structural equality.
    [Lslp_ir.Printer.canonical] renders whole functions this way in one
    pass; this string pass is its reference and renames text the printer
    does not own (remark lines). *)

val ids : string -> string
(** Rename every [%label] by first appearance ([%r0], [%r1], ...). *)
