(* Operand reordering.

   Three strategies, matching the paper's compiler configurations:

   - [no_reorder]: SLP-NR — operands as written.
   - [vanilla]: SLP — a faithful port of LLVM 4.0's
     reorderInputsAccordingToOpcode/shouldReorderOperands, including the
     peeled first lane ("favor having instruction to the right"), the
     Splat/AllSameOpcode flags, and the trailing consecutive-load pass.
   - [lookahead]: LSLP §4.3-4.4 — a single left-to-right pass over the
     (operand-slot × lane) matrix with per-slot modes
     (CONST/LOAD/OPCODE/SPLAT/FAILED, Table 1) and the recursive look-ahead
     score of Listing 7 to break ties between same-opcode candidates. *)

open Lslp_ir
open Lslp_analysis

type mode = Const_mode | Load_mode | Opcode_mode | Splat_mode | Failed_mode

let mode_to_string = function
  | Const_mode -> "CONST"
  | Load_mode -> "LOAD"
  | Opcode_mode -> "OPCODE"
  | Splat_mode -> "SPLAT"
  | Failed_mode -> "FAILED"

(* The paper's are_consecutive_or_match: constants match constants, loads
   match consecutive loads, other instructions match on opcode class. *)
let consecutive_or_match (v1 : Instr.value) (v2 : Instr.value) =
  match (v1, v2) with
  | Instr.Const _, Instr.Const _ -> true
  | Instr.Arg _, Instr.Arg _ -> Instr.equal_value v1 v2
  | Instr.Ins a, Instr.Ins b -> (
    match (Instr.address a, Instr.address b) with
    | Some aa, Some ab when Instr.is_load a && Instr.is_load b ->
      Addr.consecutive aa ab
    | _ -> Instr.equal_opclass (Instr.opclass a) (Instr.opclass b))
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

(* Per-pair base score.  The paper's are_consecutive_or_match is boolean;
   we grade it slightly so that ties between isomorphic sub-DAGs that share
   subexpressions resolve toward splat-friendly pairings:
   - identical values (same instruction / argument / constant) ..... 2
   - consecutive loads ............................................. 2
   - non-consecutive loads ......................................... 0
   - two constants / same-opcode instructions ...................... 1
   This mirrors the graded scores the production LLVM look-ahead heuristic
   eventually adopted (ScoreConsecutiveLoads/ScoreSplat vs ScoreSameOpcode)
   and preserves the paper's Figure 7 ranking. *)
let pair_score (v1 : Instr.value) (v2 : Instr.value) =
  if Instr.equal_value v1 v2 then 2
  else
    match (v1, v2) with
    | Instr.Const _, Instr.Const _ -> 1
    | Instr.Ins a, Instr.Ins b when Instr.is_load a && Instr.is_load b -> (
      match (Instr.address a, Instr.address b) with
      | Some aa, Some ab when Addr.consecutive aa ab -> 2
      | _ -> 0)
    | Instr.Ins a, Instr.Ins b ->
      if Instr.equal_opclass (Instr.opclass a) (Instr.opclass b) then 1 else 0
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> 0

(* Listing 7: the look-ahead score.  Recurses through pairs of same-opcode
   instructions with operands.  The per-level combination is the score of
   the best *bijective* pairing of the two operand lists (for a commutative
   binary op: the better of the two diagonal pairings) — pairing each
   operand with its best counterpart is what the reorder will actually be
   able to realize, and an all-pairs sum would spuriously reward repeated
   operands (x*x vs x*y).  [Score_max] is the footnote-4 alternative: the
   single best pair instead of the pairing sum.  [probe] counts
   evaluations. *)
let rec lookahead_score ?meter ?probe ~(combine : Config.score_combine)
    (v1 : Instr.value) (v2 : Instr.value) ~(level : int) : int =
  (* Each recursive comparison burns one unit of fuel, so a pathological
     deeply-shared DAG bails with [Budget.Exhausted] instead of going
     exponential. *)
  Option.iter Lslp_robust.Budget.spend_fuel meter;
  Option.iter
    (fun p ->
      let pc = Lslp_telemetry.Probe.counters p in
      pc.Lslp_telemetry.Probe.score_evals <-
        pc.Lslp_telemetry.Probe.score_evals + 1)
    probe;
  let base () = pair_score v1 v2 in
  if level <= 0 || Instr.equal_value v1 v2 then base ()
  else
    match (v1, v2) with
    | Instr.Ins a, Instr.Ins b
      when Instr.equal_opclass (Instr.opclass a) (Instr.opclass b)
           && (not (Instr.is_load a))
           && Instr.operands a <> [] && Instr.operands b <> [] -> (
      let score x y =
        lookahead_score ?meter ?probe ~combine x y ~level:(level - 1)
      in
      match (Instr.operands a, Instr.operands b, combine) with
      | [ a1; a2 ], [ b1; b2 ], Config.Score_sum ->
        let aligned = score a1 b1 + score a2 b2 in
        if Instr.is_commutative a then
          max aligned (score a1 b2 + score a2 b1)
        else aligned
      | [ a1; a2 ], [ b1; b2 ], Config.Score_max ->
        let aligned = max (score a1 b1) (score a2 b2) in
        if Instr.is_commutative a then
          max aligned (max (score a1 b2) (score a2 b1))
        else aligned
      | ops_a, ops_b, Config.Score_sum when List.length ops_a = List.length ops_b
        -> List.fold_left2 (fun acc x y -> acc + score x y) 0 ops_a ops_b
      | ops_a, ops_b, Config.Score_max when List.length ops_a = List.length ops_b
        -> List.fold_left2 (fun acc x y -> max acc (score x y)) 0 ops_a ops_b
      | _ -> base ())
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> base ()

let init_mode (v : Instr.value) =
  match v with
  | Instr.Const _ | Instr.Arg _ -> Const_mode
  | Instr.Ins i -> if Instr.is_load i then Load_mode else Opcode_mode

(* Remove the first occurrence of [v] (by value identity) from [pool]. *)
let remove_once pool v =
  let rec go = function
    | [] -> []
    | x :: rest -> if Instr.equal_value x v then rest else x :: go rest
  in
  go pool

(* Listing 6: pick the best candidate for one slot in one lane.  Returns the
   choice (None = deferred, slot already FAILED) and the updated mode. *)
let get_best ?meter ?probe ?trace (config : Config.t) (mode : mode)
    (last : Instr.value) (candidates : Instr.value list) :
    Instr.value option * mode =
  (* Decision-trace bookkeeping: the per-level scores of the tie-break.
     Reads only; the search itself is untouched, traced or not. *)
  let levels_acc = ref [] in
  let result =
    match mode with
    | Failed_mode -> (None, Failed_mode)
    | Splat_mode -> (
      match List.find_opt (Instr.equal_value last) candidates with
      | Some v -> (Some v, Splat_mode)
      | None -> (
        (* no splat continuation: fall back to the default candidate *)
        match candidates with
        | v :: _ -> (Some v, Splat_mode)
        | [] -> (None, Failed_mode)))
    | Const_mode | Load_mode | Opcode_mode -> (
      let matching = List.filter (consecutive_or_match last) candidates in
      match matching with
      | [] -> (
        (* no match: this slot can no longer vectorize; consume the default *)
        match candidates with
        | v :: _ -> (Some v, Failed_mode)
        | [] -> (None, Failed_mode))
      | [ v ] -> (Some v, mode)
      | _ :: _ when mode = Opcode_mode && config.Config.lookahead_depth > 0
        ->
        (* look-ahead tie-break: deepen until the scores separate *)
        let combine = config.Config.score_combine in
        let rec try_level level =
          let scores =
            List.map
              (fun c ->
                (c, lookahead_score ?meter ?probe ~combine last c ~level))
              matching
          in
          if trace <> None then
            levels_acc := (level, List.map snd scores) :: !levels_acc;
          let all_equal =
            match scores with
            | [] -> true
            | (_, s0) :: rest -> List.for_all (fun (_, s) -> s = s0) rest
          in
          if not all_equal then
            let best, _ =
              List.fold_left
                (fun (bv, bs) (c, s) -> if s > bs then (c, s) else (bv, bs))
                (List.hd matching, min_int)
                scores
            in
            best
          else if level >= config.Config.lookahead_depth then List.hd matching
          else try_level (level + 1)
        in
        (Some (try_level 1), mode)
      | first :: _ -> (Some first, mode))
  in
  Option.iter
    (fun tr ->
      Lslp_trace.Trace.record tr
        (Lslp_trace.Trace.Get_best
           {
             mode = mode_to_string mode;
             last = Printer.value_to_string last;
             candidates = List.map Printer.value_to_string candidates;
             levels = List.rev !levels_acc;
             chosen = Option.map Printer.value_to_string (fst result);
           }))
    trace;
  result

(* Listing 5: the top-level matrix reorder.  [columns.(slot).(lane)] is the
   unordered operand matrix; the result has the same multiset of values per
   lane, rearranged across slots. *)
let reorder_matrix_modes ?meter ?probe ?trace (config : Config.t)
    (columns : Instr.value array array) :
    Instr.value array array * mode array =
  let num_slots = Array.length columns in
  if num_slots = 0 then ([||], [||])
  else begin
    let lanes = Array.length columns.(0) in
    let final : Instr.value option array array =
      Array.make_matrix num_slots lanes None
    in
    let mode = Array.make num_slots Failed_mode in
    (* 1. strip the first lane in its existing order *)
    for s = 0 to num_slots - 1 do
      final.(s).(0) <- Some columns.(s).(0);
      mode.(s) <- init_mode columns.(s).(0)
    done;
    (* 2. for every other lane, fill slots left to right *)
    for lane = 1 to lanes - 1 do
      let pool = ref (Array.to_list (Array.map (fun col -> col.(lane)) columns)) in
      for s = 0 to num_slots - 1 do
        match mode.(s) with
        | Failed_mode -> () (* deferred: let others choose first *)
        | _ ->
          let last =
            match final.(s).(lane - 1) with
            | Some v -> v
            | None -> columns.(s).(lane - 1)
          in
          let best, mode' =
            get_best ?meter ?probe ?trace config mode.(s) last !pool
          in
          mode.(s) <- mode';
          (match best with
           | Some v ->
             final.(s).(lane) <- Some v;
             pool := remove_once !pool v;
             (* SPLAT detection: the exact same value continues the slot *)
             if Instr.equal_value v last && mode.(s) <> Failed_mode then
               mode.(s) <- Splat_mode
           | None -> ())
      done;
      (* failed slots take the leftovers in order *)
      for s = 0 to num_slots - 1 do
        if final.(s).(lane) = None then begin
          match !pool with
          | v :: rest ->
            final.(s).(lane) <- Some v;
            pool := rest
          | [] -> ()
        end
      done
    done;
    Option.iter
      (fun tr ->
        Lslp_trace.Trace.record tr
          (Lslp_trace.Trace.Slot_modes
             { modes = Array.to_list (Array.map mode_to_string mode) }))
      trace;
    (Array.map (Array.map Option.get) final, mode)
  end

let reorder_matrix ?meter ?probe ?trace config columns =
  fst (reorder_matrix_modes ?meter ?probe ?trace config columns)

(* ------------------------------------------------------------------ *)
(* Vanilla SLP (LLVM 4.0 reorderInputsAccordingToOpcode).              *)

let is_inst = function
  | Instr.Ins _ -> true
  | Instr.Const _ | Instr.Arg _ -> false

let opclass_opt = function
  | Instr.Ins i -> Some (Instr.opclass i)
  | Instr.Const _ | Instr.Arg _ -> None

let same_opclass a b =
  match (opclass_opt a, opclass_opt b) with
  | Some ca, Some cb -> Instr.equal_opclass ca cb
  | _ -> false

let consecutive_loads a b =
  match (a, b) with
  | Instr.Ins ia, Instr.Ins ib when Instr.is_load ia && Instr.is_load ib -> (
    match (Instr.address ia, Instr.address ib) with
    | Some aa, Some ab -> Addr.consecutive aa ab
    | _ -> false)
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

(* LLVM 4.0's shouldReorderOperands, operand for operand. *)
let should_reorder ~left ~right ~all_same_left ~all_same_right ~splat_left
    ~splat_right i vleft vright =
  let prev_right = right.(i - 1) in
  let prev_left = left.(i - 1) in
  (* preserve a splat on the right *)
  if splat_right && Instr.equal_value vright prev_right then false
  else if splat_right && Instr.equal_value vleft prev_right then
    if splat_left && Instr.equal_value vleft prev_left then false else true
  else if splat_left && Instr.equal_value vleft prev_left then false
  else if splat_left && Instr.equal_value vright prev_left then true
  else if
    (* preserve a same-opcode column on the right *)
    all_same_right && same_opclass vright prev_right
  then false
  else if all_same_right && same_opclass vleft prev_right then
    if all_same_left && same_opclass vleft prev_left then false else true
  else if all_same_left && same_opclass vleft prev_left then false
  else if all_same_left && same_opclass vright prev_left then true
  else false

let vanilla_pair (insts : Instr.t array) :
    Instr.value array * Instr.value array =
  let n = Array.length insts in
  let operand k (i : Instr.t) =
    match Instr.operands i with
    | [ a; b ] -> if k = 0 then a else b
    | _ -> invalid_arg "Reorder.vanilla_pair: not a binary operation"
  in
  let left = Array.make n (operand 0 insts.(0)) in
  let right = Array.make n (operand 1 insts.(0)) in
  (* peel the first lane: favor having an instruction on the right *)
  (if (not (is_inst right.(0))) && is_inst left.(0) then begin
     let t = left.(0) in
     left.(0) <- right.(0);
     right.(0) <- t
   end);
  let all_same_left = ref (is_inst left.(0)) in
  let all_same_right = ref (is_inst right.(0)) in
  let splat_left = ref true in
  let splat_right = ref true in
  for i = 1 to n - 1 do
    let vleft = operand 0 insts.(i) in
    let vright = operand 1 insts.(i) in
    let swap =
      should_reorder ~left ~right ~all_same_left:!all_same_left
        ~all_same_right:!all_same_right ~splat_left:!splat_left
        ~splat_right:!splat_right i vleft vright
    in
    if swap then begin
      left.(i) <- vright;
      right.(i) <- vleft
    end
    else begin
      left.(i) <- vleft;
      right.(i) <- vright
    end;
    splat_left := !splat_left && Instr.equal_value left.(i - 1) left.(i);
    splat_right := !splat_right && Instr.equal_value right.(i - 1) right.(i);
    all_same_left := !all_same_left && same_opclass left.(i - 1) left.(i);
    all_same_right := !all_same_right && same_opclass right.(i - 1) right.(i)
  done;
  (* trailing pass: swap lanes to extend consecutive-load chains *)
  for j = 0 to n - 2 do
    if consecutive_loads left.(j) right.(j + 1)
       && not (consecutive_loads left.(j) left.(j + 1))
    then begin
      let t = left.(j + 1) in
      left.(j + 1) <- right.(j + 1);
      right.(j + 1) <- t
    end
    else if
      consecutive_loads right.(j) left.(j + 1)
      && not (consecutive_loads right.(j) right.(j + 1))
    then begin
      let t = left.(j + 1) in
      left.(j + 1) <- right.(j + 1);
      right.(j + 1) <- t
    end
  done;
  (left, right)

let no_reorder_pair (insts : Instr.t array) =
  let operand k (i : Instr.t) =
    match Instr.operands i with
    | [ a; b ] -> if k = 0 then a else b
    | _ -> invalid_arg "Reorder.no_reorder_pair: not a binary operation"
  in
  (Array.map (operand 0) insts, Array.map (operand 1) insts)
