(* Seeded generator of wide commutative kernels for the wide-lookahead
   workload.

   A kernel has 4 or 8 store lanes.  Every lane computes one shared
   expression template: nested chains of one associative, commutative
   operator (f64 [+]/[*], i64 [&]/[|]/[^]/[+]) over consecutive loads,
   splatted scalar arguments and per-lane constants.  Each lane spells
   the template its own way: the operands of every chain are shuffled and
   the chain is re-associated into a random binary tree.  That reproduces
   the load, opcode and associativity mismatches of the paper's
   Sections 3.1-3.3 at a width the catalog never reaches.

   The generator draws only from its own [Random.State], so one seed
   always yields byte-identical sources. *)

type ty = F64 | I64

type leaf =
  | Load of int  (** consecutive loads [X<n>[L*i+lane]] *)
  | Splat of int  (** scalar argument [s<n>], the same in every lane *)
  | Const of int  (** per-lane constant, indexed by its slot *)

type tmpl = Leaf of leaf | Chain of string * tmpl list

type kernel = { name : string; source : string }

let ops = function F64 -> [| "+"; "*" |] | I64 -> [| "&"; "|"; "^"; "+" |]
let ty_name = function F64 -> "f64" | I64 -> "i64"

let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A fixed shape — a chain of three chains, each of three operands, one
   of which is itself a chain of two leaves — over a fixed mix of twelve
   leaves (nine loads, two constants, one splat) in seeded positions, so
   generated kernels cost about the same to compile; the seed picks the
   operators and where each leaf goes.  A chain's operands use another
   operator than the chain, so every chain is maximal: the multi-node
   the paper's Section 4 builds is the chain. *)
let template rng ty =
  let leaves =
    ref
      (shuffle rng
         (List.init 9 (fun n -> Load n)
          @ [ Const 0; Const 1; Splat 0 ]))
  in
  let leaf () =
    match !leaves with
    | l :: rest ->
      leaves := rest;
      Leaf l
    | [] -> assert false
  in
  let other op =
    pick rng (Array.of_list (List.filter (( <> ) op) (Array.to_list (ops ty))))
  in
  let root = pick rng (ops ty) in
  Chain
    ( root,
      List.init 3 (fun _ ->
          let mid = other root in
          let inner = other mid in
          let a = leaf () in
          let b = leaf () in
          let c = leaf () in
          let d = leaf () in
          Chain (mid, [ a; b; Chain (inner, [ c; d ]) ])) )

(* Split the shuffled operands at a random point and recurse: a random
   binary association of the chain. *)
let rec associate rng op = function
  | [] -> assert false
  | [ x ] -> x
  | operands ->
    let n = List.length operands in
    let cut = 1 + Random.State.int rng (n - 1) in
    let left = List.filteri (fun i _ -> i < cut) operands in
    let right = List.filteri (fun i _ -> i >= cut) operands in
    let left = associate rng op left in
    let right = associate rng op right in
    Printf.sprintf "(%s %s %s)" left op right

let const_text ty ~slot ~lane =
  match ty with
  | F64 -> Printf.sprintf "%d.%d" (1 + ((slot + lane) mod 3)) (5 * (lane mod 2))
  | I64 -> string_of_int (3 + (7 * slot) + lane)

let rec spell rng ty ~lanes ~lane = function
  | Leaf (Load n) -> Printf.sprintf "X%d[%d*i+%d]" n lanes lane
  | Leaf (Splat n) -> Printf.sprintf "s%d" n
  | Leaf (Const slot) -> const_text ty ~slot ~lane
  | Chain (op, kids) ->
    associate rng op (shuffle rng (List.map (spell rng ty ~lanes ~lane) kids))

(* Kernel [n] of a pool: lane count and element type cycle with [n], so
   any 4 consecutive kernels hold one of each (lanes, type) class. *)
let kernel rng ~name ~n =
  let lanes = if n mod 2 = 0 then 4 else 8 in
  let ty = if n / 2 mod 2 = 0 then F64 else I64 in
  let t = template rng ty in
  let tn = ty_name ty in
  let args =
    (Printf.sprintf "%s A[]" tn
     :: List.init 9 (Printf.sprintf "%s X%d[]" tn))
    @ [ tn ^ " s0" ]
    @ [ "i64 i" ]
  in
  let body =
    List.init lanes (fun lane ->
        Printf.sprintf "  A[%d*i+%d] = %s;\n" lanes lane
          (spell rng ty ~lanes ~lane t))
  in
  let source =
    Printf.sprintf "kernel %s(%s) {\n%s}\n" name (String.concat ", " args)
      (String.concat "" body)
  in
  { name; source }

let generate ~seed ~count =
  let rng = Random.State.make [| 0x5e1f; seed |] in
  List.init count (fun n ->
      kernel rng ~n ~name:(Printf.sprintf "wide_%d_%d" seed n))
