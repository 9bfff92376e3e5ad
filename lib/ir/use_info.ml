(* Def-use queries over a per-block arena.

   Use lists are derived data: the arena snapshots them as CSR int arrays,
   so [num_uses]/[has_single_use] are O(1) subtractions and [users] walks a
   contiguous slice.  An instruction outside the arena has no uses. *)

let users arena (i : Instr.t) =
  let k = Arena.idx arena i in
  if k < 0 then [] else Arena.users arena k

let num_uses arena (i : Instr.t) =
  let k = Arena.idx arena i in
  if k < 0 then 0 else Arena.num_uses arena k

let has_single_use arena i = num_uses arena i = 1

let is_dead arena i = (not (Instr.has_side_effect i)) && num_uses arena i = 0

let users_outside arena i ~inside =
  List.filter (fun (u : Instr.t) -> not (inside u)) (users arena i)
