(* Dead code elimination.

   After SLP/LSLP code generation replaces a tree of scalar instructions with
   vector ones, the scalars become dead (their stores were removed
   explicitly); this pass sweeps them.  Iterates to a fixed point so whole
   dead trees disappear. *)

let run_block block =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let arena = Arena.of_block block in
    let dead = Block.find_all (fun i -> Use_info.is_dead arena i) block in
    if dead <> [] then begin
      changed := true;
      removed := !removed + List.length dead;
      Block.remove_ids block (List.map (fun (i : Instr.t) -> i.id) dead)
    end
  done;
  !removed

(* Blocks are self-contained regions (no cross-block uses), so a per-block
   sweep is a complete function-level DCE. *)
let run (f : Func.t) =
  List.fold_left (fun acc b -> acc + run_block b) 0 (Func.blocks f)
