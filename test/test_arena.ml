(* Arena properties.

   The arena is a denotation-free snapshot: rebuilding the instruction view
   from it must reproduce the block byte-for-byte, and every derived table
   (CSR uses, address side table) must agree with the naive definition it
   replaced.  Random kernels come from the same generator as the end-to-end
   soundness properties (test_qcheck.ml), so the shapes exercised here are
   the ones the pipeline actually vectorizes. *)

open Lslp_ir
open Lslp_analysis

(* Naive recount of operand occurrences, straight off the block. *)
let naive_uses (block : Block.t) =
  let counts = Hashtbl.create 32 in
  Block.iter
    (fun i ->
      List.iter
        (fun v ->
          match v with
          | Instr.Ins d ->
            Hashtbl.replace counts d.Instr.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.Instr.id))
          | Instr.Const _ | Instr.Arg _ -> ())
        (Instr.operands i))
    block;
  counts

let arena_agrees (block : Block.t) =
  let a = Arena.of_block block in
  let n = Arena.size a in
  let ok = ref (match Arena.check a with Ok () -> true | Error _ -> false) in
  (* compact index <-> instruction bijection, in program order *)
  let k = ref 0 in
  Block.iter
    (fun i ->
      ok :=
        !ok
        && Arena.idx a i = !k
        && Arena.pos a i = !k
        && Arena.idx_of_id a i.Instr.id = !k
        && Arena.instr a !k == i;
      incr k)
    block;
  ok := !ok && !k = n;
  (* CSR use counts vs the naive recount *)
  let counts = naive_uses block in
  for j = 0 to n - 1 do
    let i = Arena.instr a j in
    let naive = Option.value ~default:0 (Hashtbl.find_opt counts i.Instr.id) in
    ok := !ok && Arena.num_uses a j = naive
  done;
  (* address side table vs the Addr module on the raw instructions *)
  for j = 0 to n - 1 do
    for l = 0 to n - 1 do
      match
        (Instr.address (Arena.instr a j), Instr.address (Arena.instr a l))
      with
      | Some aj, Some al ->
        ok :=
          !ok
          && Arena.consecutive a j l = Addr.consecutive aj al
          && Arena.may_alias a j l = Addr.may_alias aj al
          && Arena.element_distance a j l = Addr.element_distance aj al
      | _ ->
        ok := !ok && (not (Arena.is_memory a j) || not (Arena.is_memory a l))
    done
  done;
  !ok

(* Rebuild each block's instruction view purely from its arena, then
   compare the canonically printed function against the original. *)
let roundtrip_identical (f : Func.t) =
  let before = Printer.canonical f in
  List.iter
    (fun b ->
      let a = Arena.of_block b in
      Block.set_order b (List.init (Arena.size a) (Arena.instr a)))
    (Func.blocks f);
  let after = Printer.canonical f in
  String.equal before after

let prop_pre (d : Test_qcheck.kdesc) =
  let f = Test_qcheck.build_kernel d in
  List.for_all arena_agrees (Func.blocks f) && roundtrip_identical f

(* The same invariants must hold on vectorized output: codegen rebuilds
   blocks wholesale, and a stale or non-dense arena there would poison
   every later pass. *)
let prop_post (d : Test_qcheck.kdesc) =
  let f = Test_qcheck.build_kernel d in
  ignore (Lslp_core.Pipeline.run ~config:Lslp_core.Config.lslp f);
  List.for_all arena_agrees (Func.blocks f) && roundtrip_identical f

let prop ?(count = 120) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Test_qcheck.print_kdesc
       Test_qcheck.gen_kdesc f)

let suite =
  [
    prop "arena round-trips and agrees with naive tables" prop_pre;
    prop "arena invariants survive vectorization" prop_post;
  ]
