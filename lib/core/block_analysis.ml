(* One block's analysis, built on first read and dropped only by [commit]
   (see the interface).  Plain mutable options, not [Lazy.t]: the value
   never leaves the pass that owns it, and a [Lazy.t] forced from two
   domains raises. *)

open Lslp_ir

type t = {
  block : Block.t;
  mutable arena : Arena.t option;
  mutable deps : Lslp_analysis.Depgraph.t option;
}

let create block = { block; arena = None; deps = None }

let block t = t.block

let arena t =
  match t.arena with
  | Some a -> a
  | None ->
    let a = Arena.of_block t.block in
    t.arena <- Some a;
    a

let deps t =
  match t.deps with
  | Some d -> d
  | None ->
    let d = Lslp_analysis.Depgraph.build (arena t) in
    t.deps <- Some d;
    d

let commit t =
  t.arena <- None;
  t.deps <- None
