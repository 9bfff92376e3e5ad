(* Canonical rendering.  [Printer.canonical] writes first-appearance labels
   while printing; the string pass [Normalize.ids] over the raw text stays
   as its reference, and the two must agree byte for byte on every
   function: the catalog before and after the pipeline, the pinned-seed
   fuzz generator (plain and branching arms), and hand-built functions
   covering every instruction form and leaf format. *)

open Lslp_ir
open Helpers
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Catalog = Lslp_kernels.Catalog
module Gen = Lslp_fuzz.Gen

let reference f = Lslp_util.Normalize.ids (Printer.func_to_string f)

let check_canonical what f =
  check_string what (reference f) (Printer.canonical f);
  (* the raw string path and the Format wrapper share the core *)
  check_string (what ^ " (pp_func)") (Printer.func_to_string f)
    (Fmt.str "%a" Printer.pp_func f)

(* Under "scalar" nothing is profitable, so every region stays scalar. *)
let configs =
  [ ("scalar", Config.with_threshold min_int Config.slp);
    ("SLP", Config.slp); ("LSLP", Config.lslp) ]

(* Before, after unrolling, and after each configuration's pipeline. *)
let check_through_pipeline what f =
  check_canonical (what ^ " input") f;
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  check_canonical (what ^ " unrolled") f;
  List.iter
    (fun (name, config) ->
      let _, g = Pipeline.run_cloned ~config f in
      check_canonical (Fmt.str "%s after %s" what name) g)
    configs

let fuzz_cases ~cond_only n =
  let st = Random.State.make [| 42 |] in
  for case = 0 to n - 1 do
    let prog = Gen.generate ~cond_only st in
    check_through_pipeline
      (Fmt.str "case %d %s" case (Gen.describe prog))
      (Gen.build prog)
  done

(* Every instruction form, named and unnamed labels, a counted loop with a
   symbolic bound after one with a constant bound, constants that need the
   hex-float fallback, i32 constants and affine indices with unit,
   negative and multi-term coefficients. *)
let hand_built () =
  let b =
    Builder.create ~name:"mix"
      ~args:
        [ ("A", Instr.Array_arg Types.F64); ("B", Instr.Array_arg Types.F32);
          ("C", Instr.Array_arg Types.I32); ("n", Instr.Int_arg);
          ("m", Instr.Int_arg); ("s", Instr.Float_arg) ]
  in
  let ix terms k =
    List.fold_left
      (fun acc (sym, coeff) -> Affine.add acc (Affine.sym ~coeff sym))
      (Affine.const k) terms
  in
  let x = Builder.load b ~name:"x" ~base:"A" (ix [ ("n", 1) ] 0) in
  let y = Builder.load b ~base:"A" (ix [ ("n", -1) ] 3) in
  let z =
    Builder.load b ~name:"z" ~base:"A" (ix [ ("n", 2); ("m", -3) ] (-1))
  in
  let third = Builder.binop b Opcode.Fmul x (Builder.fconst (1.0 /. 3.0)) in
  let t = Builder.binop b ~name:"t" Opcode.Fadd third (Builder.arg b "s") in
  let u = Builder.unop b Opcode.Fneg (Builder.binop b Opcode.Fsub t y) in
  let mask = Builder.cmp b ~name:"c" Opcode.Lt u (Builder.fconst 0.5) in
  let sel = Builder.select b mask u z in
  let ml =
    Builder.masked_load b ~base:"A" (ix [ ("m", -1) ] 0) ~mask
      ~passthrough:(Builder.fconst 0.1)
  in
  Builder.masked_store b ~base:"A" (ix [ ("m", 1); ("n", -1) ] 7) sel ~mask;
  Builder.store b ~base:"A" (ix [] 2) ml;
  let single_third = Int32.float_of_bits (Int32.bits_of_float (1.0 /. 3.0)) in
  let f32 =
    Builder.binop b Opcode.Fadd
      (Builder.load b ~base:"B" (ix [ ("n", 4) ] 1))
      (Instr.Const (Instr.Cfloat32 single_third))
  in
  let f32 = Builder.binop b Opcode.Fmul f32 (Builder.fconst32 0.25) in
  Builder.store b ~base:"B" (ix [] 0) f32;
  let i32 =
    Builder.binop b ~name:"w" Opcode.Add
      (Builder.load b ~base:"C" (ix [] (-4)))
      (Builder.iconst32 (-7))
  in
  Builder.store b ~base:"C" (ix [] 1) i32;
  ignore
    (Builder.start_block b ~label:"loop.k"
       ~kind:
         (Block.Loop
            { counter = "k"; l_start = 0; l_stop = Block.Bound_const 8;
              l_step = 2 })
       ());
  Builder.store b ~base:"A" (ix [ ("k", 1) ] 0)
    (Builder.binop b Opcode.Fmul
       (Builder.load b ~base:"A" (ix [ ("k", 1) ] 1))
       (Builder.fconst 2.0));
  ignore
    (Builder.start_block b ~label:"loop.j"
       ~kind:
         (Block.Loop
            { counter = "j"; l_start = 1; l_stop = Block.Bound_sym "n";
              l_step = 1 })
       ());
  Builder.store b ~base:"A" (ix [ ("j", 1) ] 0) t;
  let f = Builder.func b in
  (* vector-only forms, as codegen produces them *)
  let blk = Func.entry f in
  let v2 = Types.vec Types.F64 2 in
  let vaddr =
    { Instr.base = "A"; elt = Types.F64; index = ix [ ("n", 1) ] 8;
      access_lanes = 2 }
  in
  let mk ?name kind ty = Instr.create ?name kind ty in
  let vl = mk ~name:"vload" (Instr.Load vaddr) v2 in
  let gath = mk (Instr.Buildvec [ x; z ]) v2 in
  let splat = mk ~name:"splat" (Instr.Splat (Builder.fconst 1.5)) v2 in
  let vsum = mk ~name:"v" (Instr.Binop (Fadd, Ins vl, Ins gath)) v2 in
  let shuf = mk (Instr.Shuffle (Ins vsum, [ 1; 0 ])) v2 in
  let prod = mk (Instr.Binop (Fmul, Ins shuf, Ins splat)) v2 in
  let ext = mk ~name:"ext" (Instr.Extract (Ins prod, 1)) Types.f64 in
  let red = mk ~name:"hred" (Instr.Reduce (Fadd, Ins prod)) Types.f64 in
  let vst = mk (Instr.Store (vaddr, Ins prod)) Types.Void in
  let tail = mk (Instr.Binop (Fadd, Ins ext, Ins red)) Types.f64 in
  Block.append_list blk
    [ vl; gath; splat; vsum; shuf; prod; ext; red; vst; tail ];
  f

let expected_hand_built =
  {|kernel mix(f64 A[], f32 B[], i32 C[], i64 n, i64 m, f64 s) {
entry:
  %r0 : f64 = load A[n]
  %r1 : f64 = load A[-n + 3]
  %r2 : f64 = load A[-3*m + 2*n - 1]
  %r3 : f64 = fmul %r0, 0x1.5555555555555p-2
  %r4 : f64 = fadd %r3, s
  %r5 : f64 = fsub %r4, %r1
  %r6 : f64 = fneg %r5
  %r7 : i1 = cmp.lt %r6, 0.5
  %r8 : f64 = select %r7, %r6, %r2
  %r9 : f64 = masked.load A[-m], %r7, 0.1
  masked.store A[m - n + 7], %r8, %r7
  store A[2], %r9
  %r10 : f32 = load B[4*n + 1]
  %r11 : f32 = fadd %r10, 0x1.555556p-2f
  %r12 : f32 = fmul %r11, 0.25f
  store B[0], %r12
  %r13 : i32 = load C[-4]
  %r14 : i32 = add %r13, -7l
  store C[1], %r14
  %r15 : <2 x f64> = load <2 x f64> A[n + 8]
  %r16 : <2 x f64> = buildvec [%r0, %r2]
  %r17 : <2 x f64> = splat 1.5
  %r18 : <2 x f64> = fadd %r15, %r16
  %r19 : <2 x f64> = shuffle %r18, [1, 0]
  %r20 : <2 x f64> = fmul %r19, %r17
  %r21 : f64 = extract %r20, 1
  %r22 : f64 = reduce.fadd %r20
  store <2 x f64> A[n + 8], %r20
  %r23 : f64 = fadd %r21, %r22
loop.k: for (k = 0; k < 8; k += 2)
  %r24 : f64 = load A[k + 1]
  %r25 : f64 = fmul %r24, 2
  store A[k], %r25
loop.j: for (j = 1; j < n; j += 1)
  store A[j], %r4
}|}

let tests =
  [
    tc "catalog: canonical = Normalize.ids of the raw text" (fun () ->
        List.iter
          (fun (k : Catalog.kernel) ->
            check_through_pipeline k.key (Catalog.compile k))
          Catalog.all);
    tc "fuzz seed 42, plain arm" (fun () -> fuzz_cases ~cond_only:false 60);
    tc "fuzz seed 42, cond arm" (fun () -> fuzz_cases ~cond_only:true 60);
    tc "hand-built: every form and leaf format" (fun () ->
        let f = hand_built () in
        check_canonical "hand-built" f;
        check_string "golden" expected_hand_built (Printer.canonical f));
    tc "two clones print the same" (fun () ->
        let f = Catalog.compile_key "motivation-multi" in
        let g = Func.clone f in
        check_bool "raw differs" false
          (String.equal (Printer.func_to_string f)
             (Printer.func_to_string g));
        check_string "canonical equal" (Printer.canonical f)
          (Printer.canonical g));
    tc "pp_func keeps its vertical box when nested" (fun () ->
        let b =
          Builder.create ~name:"k" ~args:[ ("A", Instr.Array_arg Types.F64) ]
        in
        Builder.store b ~base:"A" (Affine.const 0) (Builder.fconst 1.0);
        let f = Builder.func b in
        check_string "indented"
          "ir:\n  kernel k(f64 A[]) {\n    store A[0], 1\n  }"
          (Fmt.str "@[<v 2>ir:@,%a@]" Printer.pp_func f));
  ]

let suite = tests
