(* Post-vectorization legality validation.

   The pass mutates a function in place; this module proves, after the
   fact, that the mutation preserved the original dependence structure.
   The snapshot captures the pre-pass dependence graph (data + memory
   edges); Depgraph copies positions and reachability into its own arrays,
   so later operand rewriting does not disturb it.

   The central idea is *origin sets*: each instruction of the transformed
   block maps back to the original instructions it stands for — a surviving
   scalar maps to itself, a vector instruction maps to the lanes recorded
   for it at emission time, glue code (gathers, extracts, shuffles,
   reduction tails) maps to nothing and is covered by the structural
   verifier alone.  Every dependence between origin sets must then agree
   with the block order of the transformed function. *)

open Lslp_ir
open Lslp_analysis

(* One dependence graph per block, keyed by label: regions are
   self-contained, so no dependence ever crosses a block boundary and each
   block can be validated against its own snapshot. *)
type snapshot = { block_deps : (string * Depgraph.t) list }

let snapshot (f : Func.t) =
  {
    block_deps =
      List.map
        (fun b -> (Block.label b, Depgraph.build (Arena.of_block b)))
        (Func.blocks f);
  }

(* The snapshot graph holding this instruction, if any: an instruction
   lives in exactly one block, so the first hit is the right one. *)
let find_deps snap (i : Instr.t) =
  List.find_map
    (fun (_, d) -> if Depgraph.mem d i then Some d else None)
    snap.block_deps

type lane_provenance = {
  lanes : Instr.t array;
  vector : Instr.t;
}

(* Element kind carried by one lane of a bundle, or by the vector value
   itself.  Stores are void-typed, so their element comes from the access. *)
let element_kind (i : Instr.t) : (Types.scalar * int) option =
  match i.Instr.ty with
  | Types.Scalar s -> Some (s, 1)
  | Types.Vec (s, n) -> Some (s, n)
  | Types.Void -> (
    match Instr.address i with
    | Some a -> Some (a.Instr.elt, a.Instr.access_lanes)
    | None -> None)

let check_structure (f : Func.t) add =
  List.iter
    (fun (e : Verifier.error) ->
      let instrs = match e.Verifier.instr with Some i -> [ i ] | None -> [] in
      add (Diagnostic.error ~instrs ~rule:"verifier" e.Verifier.message))
    (Verifier.check_func f)

let check_bundle_typing (p : lane_provenance) add =
  match element_kind p.vector with
  | None ->
    add
      (Diagnostic.error ~instrs:[ p.vector ] ~rule:"bundle-typing"
         "vector instruction has no element type")
  | Some (velt, vlanes) ->
    if vlanes <> Array.length p.lanes then
      add
        (Diagnostic.error ~instrs:[ p.vector ] ~rule:"bundle-typing"
           (Fmt.str "vector has %d lane(s) but the bundle has %d scalar(s)"
              vlanes (Array.length p.lanes)));
    let c0 = Instr.opclass p.vector in
    Array.iter
      (fun (lane : Instr.t) ->
        (match element_kind lane with
         | Some (s, 1) when Types.equal_scalar s velt -> ()
         | Some (s, 1) ->
           add
             (Diagnostic.error ~instrs:[ p.vector; lane ] ~rule:"bundle-typing"
                (Fmt.str "lane element %a does not match vector element %a"
                   Types.pp_scalar s Types.pp_scalar velt))
         | Some (_, _) ->
           add
             (Diagnostic.error ~instrs:[ p.vector; lane ] ~rule:"bundle-typing"
                "bundle lane is not a scalar instruction")
         | None ->
           add
             (Diagnostic.error ~instrs:[ p.vector; lane ] ~rule:"bundle-typing"
                "bundle lane has no element type"));
        if not (Instr.equal_opclass (Instr.opclass lane) c0) then
          add
            (Diagnostic.error ~instrs:[ p.vector; lane ] ~rule:"bundle-typing"
               (Fmt.str "lane opcode %s does not match vector opcode %s"
                  (Instr.opclass_name (Instr.opclass lane))
                  (Instr.opclass_name c0))))
      p.lanes

let check_lane_independence snap (p : lane_provenance) add =
  match Array.to_list p.lanes |> List.find_map (find_deps snap) with
  | None -> () (* every lane born inside the pass: nothing to prove *)
  | Some deps ->
  let known = Array.to_list p.lanes |> List.filter (Depgraph.mem deps) in
  (* lanes born inside the pass (a later region bundling glue code) have no
     pre-pass dependence entry: nothing to prove against *)
  if
    List.length known = Array.length p.lanes
    && not (Depgraph.independent deps known)
  then
    add
      (Diagnostic.error
         ~instrs:(p.vector :: known)
         ~rule:"lane-independence"
         (Fmt.str
            "lanes of `%s` are not mutually independent in the original \
             dependence graph"
            p.vector.Instr.name))

let check_block_order deps ~provenance (block : Block.t) add =
  let origins : (int, Instr.t list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (p : lane_provenance) ->
      let known =
        Array.to_list p.lanes |> List.filter (Depgraph.mem deps)
      in
      if known <> [] then begin
        let cur =
          Option.value ~default:[]
            (Hashtbl.find_opt origins p.vector.Instr.id)
        in
        Hashtbl.replace origins p.vector.Instr.id (known @ cur)
      end)
    provenance;
  let origin (i : Instr.t) =
    match Hashtbl.find_opt origins i.Instr.id with
    | Some ls -> ls
    | None -> if Depgraph.mem deps i then [ i ] else []
  in
  let after = Array.of_list (Block.to_list block) in
  let n = Array.length after in
  for x = 0 to n - 1 do
    let ox = origin after.(x) in
    for y = x + 1 to n - 1 do
      let oy = origin after.(y) in
      let violated =
        List.exists
          (fun (a : Instr.t) ->
            List.exists
              (fun (b : Instr.t) ->
                a.Instr.id <> b.Instr.id && Depgraph.depends deps a ~on:b)
              oy)
          ox
      in
      if violated then
        add
          (Diagnostic.error
             ~instrs:[ after.(x); after.(y) ]
             ~rule:"dependence-order"
             (Fmt.str
                "`%s` is scheduled before `%s`, which it depends on in the \
                 original dependence graph"
                after.(x).Instr.name after.(y).Instr.name))
    done
  done

(* Dependence order is proved block by block against that block's own
   snapshot; a transformed block with no snapshot entry (none today — the
   pipeline never creates blocks) has nothing to prove against. *)
let check_dependence_order snap ~provenance (f : Func.t) add =
  List.iter
    (fun b ->
      match List.assoc_opt (Block.label b) snap.block_deps with
      | None -> ()
      | Some deps -> check_block_order deps ~provenance b add)
    (Func.blocks f)

let validate ?(provenance = []) snap (f : Func.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  check_structure f add;
  List.iter
    (fun p ->
      check_bundle_typing p add;
      check_lane_independence snap p add)
    provenance;
  check_dependence_order snap ~provenance f add;
  List.rev !diags
