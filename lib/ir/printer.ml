(* Textual form of the IR, LLVM-flavoured.  The printer is total: any
   well-formed or ill-formed instruction prints without raising, so it is
   safe to use in error paths and debug logs.

   One Buffer core writes every form, parameterised by how an instruction
   label is spelled:
   - raw: [%name.id] / [%vid], embedding the process-global instruction id
     ([func_to_string], [pp_func] and the other [pp_*] wrappers);
   - canonical: [%rK], K numbered by first appearance ([canonical]).
   [canonical f] equals [Lslp_util.Normalize.ids (func_to_string f)] byte
   for byte, without Format or a second pass over the text.  The compile
   service (cache key and result IR), the fuzzer's cache differential and
   the domain smoke render with it; [Normalize.ids] remains its reference
   in the equivalence test and the perfbench replay, and renames remark
   text. *)

module Int_table = Lslp_util.Int_table

(* How a label is spelled: [%name.id] / [%vid], or [%rK] with K from the
   table of instruction ids seen so far. *)
type labels = Raw | Canonical of Int_table.t

let add_int b n = Buffer.add_string b (string_of_int n)

(* [x1, x2, ...] *)
let add_list b add xs =
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_string b ", ";
      add x)
    xs

(* Labels embed the instruction id so they are always unique, even when two
   instructions share a printing hint.  A raw label is then a function of
   the id and, with an identifier for a name, one Normalize.ids token, so
   numbering ids by first appearance is exactly what Normalize.ids does to
   the raw text. *)
let add_label b labels (i : Instr.t) =
  match labels with
  | Raw when String.equal i.name "" ->
    Buffer.add_string b "%v";
    add_int b i.id
  | Raw ->
    Buffer.add_char b '%';
    Buffer.add_string b i.name;
    Buffer.add_char b '.';
    add_int b i.id
  | Canonical ks ->
    let next () = Int_table.length ks in
    Buffer.add_string b "%r";
    add_int b (Int_table.get_or_add ks i.id ~default:next)

(* Short decimal when it reads back as the same float, hex-float otherwise:
   the one place the hex-float fallback lives. *)
let readable_float short x =
  if float_of_string short = x then short else Printf.sprintf "%h" x

let add_const b = function
  | Instr.Cint n -> Buffer.add_string b (Int64.to_string n)
  | Instr.Cfloat x ->
    Buffer.add_string b (readable_float (Printf.sprintf "%.12g" x) x)
  | Instr.Cint32 n ->
    Buffer.add_string b (Int32.to_string n);
    Buffer.add_char b 'l'
  | Instr.Cfloat32 x ->
    Buffer.add_string b (readable_float (Printf.sprintf "%.7g" x) x);
    Buffer.add_char b 'f'

let add_value b labels = function
  | Instr.Const c -> add_const b c
  | Instr.Arg a -> Buffer.add_string b a.arg_name
  | Instr.Ins i -> add_label b labels i

let add_address b (a : Instr.address) =
  if a.access_lanes > 1 then begin
    Types.to_buffer b (Types.Vec (a.elt, a.access_lanes));
    Buffer.add_char b ' '
  end;
  Buffer.add_string b a.base;
  Buffer.add_char b '[';
  Affine.to_buffer b a.index;
  Buffer.add_char b ']'

(* "%label : ty = op" *)
let add_lhs b labels (i : Instr.t) op =
  add_label b labels i;
  Buffer.add_string b " : ";
  Types.to_buffer b i.ty;
  Buffer.add_string b " = ";
  Buffer.add_string b op

let add_values b labels vs = add_list b (add_value b labels) vs

(* "addr, v1, v2" *)
let add_access b labels a vs =
  add_address b a;
  List.iter
    (fun v ->
      Buffer.add_string b ", ";
      add_value b labels v)
    vs

let add_instr b labels (i : Instr.t) =
  let str = Buffer.add_string b in
  match i.kind with
  | Instr.Binop (op, x, y) ->
    add_lhs b labels i (Opcode.binop_name op);
    str " ";
    add_values b labels [ x; y ]
  | Instr.Unop (op, x) ->
    add_lhs b labels i (Opcode.unop_name op);
    str " ";
    add_value b labels x
  | Instr.Load a ->
    add_lhs b labels i "load ";
    add_address b a
  | Instr.Store (a, v) ->
    str "store ";
    add_access b labels a [ v ]
  | Instr.Cmp (op, x, y) ->
    add_lhs b labels i "cmp.";
    str (Opcode.cmp_name op);
    str " ";
    add_values b labels [ x; y ]
  | Instr.Select (m, x, y) ->
    add_lhs b labels i "select ";
    add_values b labels [ m; x; y ]
  | Instr.Masked_load (a, m, p) ->
    add_lhs b labels i "masked.load ";
    add_access b labels a [ m; p ]
  | Instr.Masked_store (a, v, m) ->
    str "masked.store ";
    add_access b labels a [ v; m ]
  | Instr.Splat v ->
    add_lhs b labels i "splat ";
    add_value b labels v
  | Instr.Buildvec vs ->
    add_lhs b labels i "buildvec [";
    add_values b labels vs;
    str "]"
  | Instr.Extract (v, lane) ->
    add_lhs b labels i "extract ";
    add_value b labels v;
    str ", ";
    add_int b lane
  | Instr.Reduce (op, v) ->
    add_lhs b labels i "reduce.";
    str (Opcode.binop_name op);
    str " ";
    add_value b labels v
  | Instr.Shuffle (v, idx) ->
    add_lhs b labels i "shuffle ";
    add_value b labels v;
    str ", [";
    add_list b (add_int b) idx;
    str "]"

let arg_to_string (a : Instr.arg) =
  match a.arg_ty with
  | Instr.Int_arg -> "i64 " ^ a.arg_name
  | Instr.Float_arg -> "f64 " ^ a.arg_name
  | Instr.Array_arg elt -> Types.scalar_name elt ^ " " ^ a.arg_name ^ "[]"

(* Once-per-block and once-per-function lines go through Printf; only the
   instruction lines are hot. *)
let add_block_header b blk =
  match Block.kind blk with
  | Block.Straight -> Printf.bprintf b "%s:" (Block.label blk)
  | Block.Loop { counter = c; l_start; l_stop; l_step } ->
    let stop =
      match l_stop with
      | Block.Bound_const k -> string_of_int k
      | Block.Bound_sym s -> s
    in
    Printf.bprintf b "%s: for (%s = %d; %s < %s; %s += %d)" (Block.label blk)
      c l_start c stop c l_step

(* The one function traversal: writes [f] line by line into [b], calling
   [eol] after every line but the closing brace. *)
let add_func b labels ~eol (f : Func.t) =
  Printf.bprintf b "kernel %s(%s) {" f.fname
    (String.concat ", " (List.map arg_to_string f.args));
  eol ();
  let add_body blk =
    Block.iter
      (fun i ->
        Buffer.add_string b "  ";
        add_instr b labels i;
        eol ())
      blk
  in
  (match Func.blocks f with
   | [ blk ] when not (Block.is_loop blk) ->
     (* the straight-line common case keeps the historical flat form *)
     add_body blk
   | bs ->
     List.iter
       (fun blk ->
         add_block_header b blk;
         eol ();
         add_body blk)
       bs);
  Buffer.add_char b '}'

(* 1 KiB = 128 words: the initial buffer stays in the minor heap. *)
let render labels f =
  let b = Buffer.create 1024 in
  add_func b labels ~eol:(fun () -> Buffer.add_char b '\n') f;
  Buffer.contents b

let func_to_string f = render Raw f
let canonical f = render (Canonical (Int_table.create 64)) f

let small_to_string add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let instr_to_string i = small_to_string (fun b -> add_instr b Raw) i
let value_to_string v = small_to_string (fun b -> add_value b Raw) v
let pp_const_readable ppf c = Fmt.string ppf (small_to_string add_const c)
let pp_value ppf v = Fmt.string ppf (value_to_string v)
let pp_instr ppf i = Fmt.string ppf (instr_to_string i)

(* A vertical box with a cut per line, so output nested in other boxes (CLI
   dumps, diagnostics) indents every line; each line reaches Format as one
   string. *)
let pp_func ppf f =
  let b = Buffer.create 128 in
  let flush () =
    Fmt.string ppf (Buffer.contents b);
    Buffer.clear b
  in
  Format.pp_open_vbox ppf 0;
  add_func b Raw
    ~eol:(fun () ->
      flush ();
      Fmt.cut ppf ())
    f;
  flush ();
  Format.pp_close_box ppf ()
