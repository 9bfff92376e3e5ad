(* A basic block: an ordered sequence of instructions.

   Program order is kept as a reversed spine so [append] — the builder's
   only operation — is O(1); the forward list and the id -> position table
   are memoized and dropped on every mutation.  Positions live in an
   open-addressing int table ([Lslp_util.Int_table]), not a Hashtbl of
   boxed ints. *)

module Int_table = Lslp_util.Int_table

type bound = Bound_const of int | Bound_sym of string

type loop_info = {
  counter : string;      (* loop-local induction symbol, not a function arg *)
  l_start : int;
  l_stop : bound;        (* exclusive: iterate while counter < stop *)
  l_step : int;          (* > 0 *)
}

type kind = Straight | Loop of loop_info

type t = {
  label : string;
  kind : kind;
  mutable rev_insts : Instr.t list;           (* reverse program order *)
  mutable count : int;
  mutable fwd_cache : Instr.t list option;    (* memoized program order *)
  mutable pos_cache : Int_table.t option;     (* id -> position *)
}

let create ?(label = "entry") ?(kind = Straight) () =
  { label; kind; rev_insts = []; count = 0; fwd_cache = None; pos_cache = None }

let label b = b.label
let kind b = b.kind

let loop_info b = match b.kind with Straight -> None | Loop li -> Some li

let is_loop b = match b.kind with Straight -> false | Loop _ -> true

(* Number of iterations, when the bound is a compile-time constant. *)
let trip_count li =
  match li.l_stop with
  | Bound_sym _ -> None
  | Bound_const stop ->
    if li.l_step <= 0 then None
    else if stop <= li.l_start then Some 0
    else Some ((stop - li.l_start + li.l_step - 1) / li.l_step)

let invalidate b =
  b.fwd_cache <- None;
  b.pos_cache <- None

let to_list b =
  match b.fwd_cache with
  | Some l -> l
  | None ->
    let l = List.rev b.rev_insts in
    b.fwd_cache <- Some l;
    l

let length b = b.count

let append b i =
  b.rev_insts <- i :: b.rev_insts;
  b.count <- b.count + 1;
  invalidate b

let append_list b is =
  List.iter (fun i -> b.rev_insts <- i :: b.rev_insts) is;
  b.count <- b.count + List.length is;
  invalidate b

let positions b =
  match b.pos_cache with
  | Some tbl -> tbl
  | None ->
    let tbl = Int_table.create (2 * b.count) in
    List.iteri
      (fun pos (i : Instr.t) -> Int_table.set tbl i.id pos)
      (to_list b);
    b.pos_cache <- Some tbl;
    tbl

let position b (i : Instr.t) =
  match Int_table.get (positions b) i.id ~absent:(-1) with
  | -1 -> None
  | p -> Some p

let position_exn b (i : Instr.t) =
  match Int_table.get (positions b) i.id ~absent:(-1) with
  | -1 -> invalid_arg "Block.position_exn: instruction not in block"
  | p -> p

let mem b (i : Instr.t) = Int_table.mem (positions b) i.id

let set_order b insts =
  b.rev_insts <- List.rev insts;
  b.count <- List.length insts;
  b.fwd_cache <- Some insts;
  b.pos_cache <- None

let insert_before b ~anchor is =
  let rec go = function
    | [] -> invalid_arg "Block.insert_before: anchor not in block"
    | x :: rest when Instr.equal x anchor -> is @ (x :: rest)
    | x :: rest -> x :: go rest
  in
  set_order b (go (to_list b))

let remove_ids b ids =
  let dead =
    match ids with
    | [] | [ _ ] -> fun id -> List.mem id ids
    | _ ->
      let tbl = Int_table.create (2 * List.length ids) in
      List.iter (fun id -> Int_table.set tbl id 0) ids;
      fun id -> Int_table.mem tbl id
  in
  set_order b
    (List.filter (fun (i : Instr.t) -> not (dead i.Instr.id)) (to_list b))

let remove b i = remove_ids b [ i.Instr.id ]

let iter f b = List.iter f (to_list b)
let fold f acc b = List.fold_left f acc (to_list b)

let find_all p b = List.filter p (to_list b)
