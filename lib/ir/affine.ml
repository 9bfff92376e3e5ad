(* Affine index expressions: [c0 + c1*s1 + c2*s2 + ...] over named symbols.

   This is the normal form our SCEV-lite analysis works on.  The paper's SLP
   uses LLVM scalar evolution only to decide whether two memory accesses are
   consecutive; differencing two affine forms answers that exactly whenever
   subscripts are affine in the kernel's integer parameters (which all the
   evaluated kernels satisfy).

   Representation invariant: [terms] is sorted by symbol name and contains no
   zero coefficients, so structural equality coincides with semantic
   equality. *)

type t = {
  terms : (string * int) list;  (* sorted by symbol, coefficients <> 0 *)
  const : int;
}

let const k = { terms = []; const = k }
let zero = const 0

let sym ?(coeff = 1) s =
  if coeff = 0 then zero else { terms = [ (s, coeff) ]; const = 0 }

let rec merge_terms xs ys =
  match (xs, ys) with
  | [], t | t, [] -> t
  | ((sx, cx) as x) :: xs', ((sy, cy) as y) :: ys' ->
    let cmp = String.compare sx sy in
    if cmp < 0 then x :: merge_terms xs' ys
    else if cmp > 0 then y :: merge_terms xs ys'
    else
      let c = cx + cy in
      if c = 0 then merge_terms xs' ys' else (sx, c) :: merge_terms xs' ys'

let add a b = { terms = merge_terms a.terms b.terms; const = a.const + b.const }

let scale k a =
  if k = 0 then zero
  else
    { terms = List.map (fun (s, c) -> (s, c * k)) a.terms;
      const = a.const * k }

let neg a = scale (-1) a
let sub a b = add a (neg b)
let add_const k a = { a with const = a.const + k }

let mul a b =
  match (a.terms, b.terms) with
  | [], _ -> Some (scale a.const b)
  | _, [] -> Some (scale b.const a)
  | _ :: _, _ :: _ -> None

let is_const a = a.terms = []

let to_const a = if is_const a then Some a.const else None

let equal a b = a.terms = b.terms && a.const = b.const

let compare a b =
  let c = compare a.terms b.terms in
  if c <> 0 then c else Int.compare a.const b.const

(* [diff_const a b] is [Some (a - b)] when the two forms differ only in their
   constant part — the key query behind consecutive-access tests. *)
let diff_const a b = if a.terms = b.terms then Some (a.const - b.const) else None

let symbols a = List.map fst a.terms

(* [subst s repl a] replaces every occurrence of the symbol [s] in [a] by the
   affine form [repl]: the algebra behind loop unrolling, where the counter
   [i] becomes [i + k*step] (shifted copies) or a constant (epilogue). *)
let subst s repl a =
  match List.assoc_opt s a.terms with
  | None -> a
  | Some c ->
    add (scale c repl) { a with terms = List.remove_assoc s a.terms }

let mem_symbol s a = List.mem_assoc s a.terms

let eval ~env a =
  List.fold_left (fun acc (s, c) -> acc + (c * env s)) a.const a.terms

(* The one writer of the textual form: terms in symbol order, each sign
   folded into its separator ("-i", " - 2*j"), a unit coefficient left
   implicit, then a nonzero constant.  [pp], [to_string] and the IR
   printer all go through it. *)
let to_buffer b a =
  let add_int n = Buffer.add_string b (string_of_int n) in
  let add_term first (s, c) =
    if c < 0 then Buffer.add_string b (if first then "-" else " - ")
    else if not first then Buffer.add_string b " + ";
    if c <> 1 && c <> -1 then begin
      add_int (abs c);
      Buffer.add_char b '*'
    end;
    Buffer.add_string b s
  in
  match a.terms with
  | [] -> add_int a.const
  | t0 :: rest ->
    add_term true t0;
    List.iter (add_term false) rest;
    if a.const > 0 then begin
      Buffer.add_string b " + ";
      add_int a.const
    end
    else if a.const < 0 then begin
      Buffer.add_string b " - ";
      add_int (abs a.const)
    end

let to_string a =
  let b = Buffer.create 16 in
  to_buffer b a;
  Buffer.contents b

let pp ppf a = Fmt.string ppf (to_string a)

let terms a = a.terms
let const_part a = a.const
