(* Tests for address analysis (SCEV-lite) and the dependence graph. *)

open Lslp_ir
open Lslp_analysis
open Helpers

let addr ?(base = "A") ?(lanes = 1) k : Instr.address =
  { Instr.base; elt = Types.I64;
    index = Affine.add_const k (Affine.sym "i"); access_lanes = lanes }

let addr_sym ?(base = "A") sym : Instr.address =
  { Instr.base; elt = Types.I64; index = Affine.sym sym; access_lanes = 1 }

let addr_tests =
  [
    tc "consecutive scalar accesses" (fun () ->
        check_bool "A[i], A[i+1]" true (Addr.consecutive (addr 0) (addr 1));
        check_bool "A[i+1], A[i]" false (Addr.consecutive (addr 1) (addr 0));
        check_bool "A[i], A[i+2]" false (Addr.consecutive (addr 0) (addr 2)));
    tc "consecutive after a vector access" (fun () ->
        check_bool "<2> at i then i+2" true
          (Addr.consecutive (addr ~lanes:2 0) (addr 2)));
    tc "different arrays never consecutive" (fun () ->
        check_bool "A vs B" false
          (Addr.consecutive (addr 0) (addr ~base:"B" 1)));
    tc "symbolically different indices not consecutive" (fun () ->
        check_bool "A[i] vs A[j]" false
          (Addr.consecutive (addr_sym "i") (addr_sym "j")));
    tc "element_distance" (fun () ->
        check (Alcotest.option Alcotest.int) "3" (Some 3)
          (Addr.element_distance (addr 0) (addr 3));
        check (Alcotest.option Alcotest.int) "cross-array" None
          (Addr.element_distance (addr 0) (addr ~base:"B" 3)));
    tc "may_alias exact and ranges" (fun () ->
        check_bool "same" true (Addr.may_alias (addr 0) (addr 0));
        check_bool "disjoint" false (Addr.may_alias (addr 0) (addr 1));
        check_bool "vector overlap" true
          (Addr.may_alias (addr ~lanes:2 0) (addr 1));
        check_bool "vector disjoint" false
          (Addr.may_alias (addr ~lanes:2 0) (addr 2)));
    tc "may_alias conservative on symbolic difference" (fun () ->
        check_bool "A[i] vs A[j]" true
          (Addr.may_alias (addr_sym "i") (addr_sym "j")));
    tc "different arrays never alias" (fun () ->
        check_bool "A vs B" false (Addr.may_alias (addr 0) (addr ~base:"B" 0)));
    tc "must_alias" (fun () ->
        check_bool "same" true (Addr.must_alias (addr 2) (addr 2));
        check_bool "different offset" false (Addr.must_alias (addr 2) (addr 3)));
    tc "sort_by_offset orders accesses" (fun () ->
        match Addr.sort_by_offset [ (addr 2, "c"); (addr 0, "a"); (addr 1, "b") ] with
        | Some sorted ->
          check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
            (List.map snd sorted)
        | None -> Alcotest.fail "expected sortable");
    tc "sort_by_offset rejects mixed arrays" (fun () ->
        check_bool "None" true
          (Addr.sort_by_offset [ (addr 0, ()); (addr ~base:"B" 1, ()) ] = None));
    tc "consecutive_run" (fun () ->
        check_bool "run" true (Addr.consecutive_run [ addr 0; addr 1; addr 2 ]);
        check_bool "gap" false (Addr.consecutive_run [ addr 0; addr 2 ]);
        check_bool "singleton" true (Addr.consecutive_run [ addr 5 ]));
  ]

(* A function with a store between two loads of the same location. *)
let dep_function () =
  compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  A[i] = x * 2.0;
  f64 y = A[i];
  R[i] = y + x;
}
|}

let depgraph_tests =
  [
    tc "data dependence is transitive" (fun () ->
        let f = compile {|
kernel k(f64 A[], i64 i) {
  f64 x = A[i];
  f64 y = x * 2.0;
  f64 z = y + 1.0;
  A[i+1] = z;
}
|} in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let insts = Block.to_list (Func.entry f) in
        let first = List.hd insts in
        let last = List.nth insts (List.length insts - 1) in
        check_bool "store depends on load" true
          (Depgraph.depends deps last ~on:first);
        check_bool "load does not depend on store" false
          (Depgraph.depends deps first ~on:last));
    tc "memory dependence: store blocks load reordering" (fun () ->
        let f = dep_function () in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let insts = Block.to_list (Func.entry f) in
        let store = List.find Instr.is_store insts in
        let second_load =
          List.find
            (fun i ->
              Instr.is_load i
              && Block.position_exn (Func.entry f) i
                 > Block.position_exn (Func.entry f) store)
            insts
        in
        check_bool "2nd load depends on store" true
          (Depgraph.depends deps second_load ~on:store));
    tc "independent detects intra-bundle dependences" (fun () ->
        let f = compile {|
kernel k(f64 A[], i64 i) {
  f64 x = A[i];
  f64 y = x * 2.0;
  A[i+1] = y;
}
|} in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let insts = Block.to_list (Func.entry f) in
        let x = List.nth insts 0 and y = List.nth insts 1 in
        check_bool "x,y dependent" false (Depgraph.independent deps [ x; y ]);
        check_bool "singleton ok" true (Depgraph.independent deps [ x ]));
    tc "loads from distinct arrays independent" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i] * 1.0;
  R[i+1] = B[i] * 1.0;
}
|} in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        check_bool "independent" true (Depgraph.independent deps loads));
    tc "schedulable_groups accepts legal bundles" (fun () ->
        let f = kernel "motivation-loads" in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        let stores = Block.find_all Instr.is_store (Func.entry f) in
        check_bool "loads+stores bundled" true
          (Depgraph.schedulable_groups deps [ loads; stores ]));
    tc "schedulable_groups rejects cyclic contraction" (fun () ->
        (* load A -> store R[i] -> load R[i] -> store R[i+1]: contracting
           {loads} and {stores} creates LOADS -> STORES -> LOADS, a cycle *)
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  R[i+0] = x;
  f64 y = R[i+0];
  R[i+1] = y;
}
|} in
        let deps = Depgraph.build (Arena.of_block (Func.entry f)) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        let stores = Block.find_all Instr.is_store (Func.entry f) in
        check_int "two loads" 2 (List.length loads);
        check_bool "cycle rejected" false
          (Depgraph.schedulable_groups deps [ loads; stores ]));
  ]

let suite = addr_tests @ depgraph_tests
