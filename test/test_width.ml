(* 32-bit element types: f32/i32 lanes double the native vector width
   (8 lanes on the 256-bit target).  The kernel-language frontend stays
   64-bit like the paper's kernels; these tests drive the width-polymorphic
   IR directly through the Builder. *)

open Lslp_ir
open Lslp_core
open Helpers

(* R[8i+k] = A[8i+k] * B[8i+k] + C[8i+k], 8 f32 lanes, with a commuted
   multiply in odd lanes so the reorderer has work to do. *)
let build_f32_kernel () =
  let b =
    Builder.create ~name:"fma8"
      ~args:
        [ ("R", Instr.Array_arg Types.F32); ("A", Instr.Array_arg Types.F32);
          ("B", Instr.Array_arg Types.F32); ("C", Instr.Array_arg Types.F32);
          ("i", Instr.Int_arg) ]
  in
  for k = 0 to 7 do
    let idx = Affine.add_const k (Affine.sym ~coeff:8 "i") in
    let a = Builder.load b ~base:"A" idx in
    let c = Builder.load b ~base:"B" idx in
    let m =
      if k mod 2 = 0 then Builder.binop b Opcode.Fmul a c
      else Builder.binop b Opcode.Fmul c a
    in
    let s = Builder.binop b Opcode.Fadd m (Builder.load b ~base:"C" idx) in
    Builder.store b ~base:"R" idx s
  done;
  let f = Builder.func b in
  ignore (Cse.run f);
  Verifier.verify_exn f;
  f

let build_i32_kernel () =
  let b =
    Builder.create ~name:"mask8"
      ~args:
        [ ("R", Instr.Array_arg Types.I32); ("A", Instr.Array_arg Types.I32);
          ("i", Instr.Int_arg) ]
  in
  for k = 0 to 7 do
    let idx = Affine.add_const k (Affine.sym ~coeff:8 "i") in
    let a = Builder.load b ~base:"A" idx in
    let shifted = Builder.binop b Opcode.Shl a (Builder.iconst32 2) in
    let masked = Builder.binop b Opcode.And shifted (Builder.iconst32 255) in
    Builder.store b ~base:"R" idx masked
  done;
  let f = Builder.func b in
  ignore (Cse.run f);
  Verifier.verify_exn f;
  f

let suite =
  [
    tc "32-bit scalars halve the element size" (fun () ->
        check_int "i32" 4 (Types.scalar_size_bytes Types.I32);
        check_int "f32" 4 (Types.scalar_size_bytes Types.F32);
        check_bool "f32 is float" true (Types.is_float_scalar Types.F32);
        check_bool "i32 is not" false (Types.is_float_scalar Types.I32));
    tc "256-bit target fits 8 x 32-bit lanes" (fun () ->
        check_int "f32" 8
          (Lslp_costmodel.Model.max_lanes Lslp_costmodel.Model.skylake_avx2
             Types.F32);
        check_int "i32" 8
          (Lslp_costmodel.Model.max_lanes Lslp_costmodel.Model.skylake_avx2
             Types.I32);
        check_int "config" 8 (Config.effective_max_lanes Config.lslp Types.F32));
    tc "opcodes are width-polymorphic" (fun () ->
        check_bool "fadd on f32" true (Opcode.binop_accepts Opcode.Fadd Types.F32);
        check_bool "fadd not on i32" false
          (Opcode.binop_accepts Opcode.Fadd Types.I32);
        check_bool "shl on i32" true (Opcode.binop_accepts Opcode.Shl Types.I32);
        check_bool "neg on i32" true (Opcode.unop_accepts Opcode.Neg Types.I32));
    tc "builder rejects mixed-width operands" (fun () ->
        let b =
          Builder.create ~name:"w"
            ~args:[ ("A", Instr.Array_arg Types.F32);
                    ("B", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ]
        in
        let a = Builder.load b ~base:"A" (Affine.sym "i") in
        let c = Builder.load b ~base:"B" (Affine.sym "i") in
        check_bool "raises" true
          (try ignore (Builder.binop b Opcode.Fadd a c); false
           with Builder.Type_error _ -> true));
    tc "f32 kernel vectorizes to 8 lanes" (fun () ->
        let f = build_f32_kernel () in
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "one region" 1 report.Pipeline.vectorized_regions;
        check_bool "8-wide store" true
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Store (a, _) -> a.Instr.access_lanes = 8
                | _ -> false)
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "i32 kernel vectorizes to 8 lanes" (fun () ->
        let f = build_i32_kernel () in
        let reference = Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "one region" 1 report.Pipeline.vectorized_regions;
        check_bool "8-wide and" true
          (count_insts
             (fun i ->
               Instr.binop i = Some Opcode.And
               && Types.lanes i.Instr.ty = 8)
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "f32 arithmetic is single-rounded in the interpreter" (fun () ->
        (* 1 + 2^-40 rounds back to 1.0f in single precision *)
        let open Lslp_interp.Eval in
        match
          scalar_binop Opcode.Fadd (VF32 1.0) (VF32 (Float.ldexp 1.0 (-40)))
        with
        | VF32 r -> check_bool "rounded to 1.0" true (r = 1.0)
        | _ -> Alcotest.fail "wrong kind");
    tc "i32 arithmetic wraps at 32 bits" (fun () ->
        let open Lslp_interp.Eval in
        match scalar_binop Opcode.Add (VI32 Int32.max_int) (VI32 1l) with
        | VI32 r -> check_bool "wrapped" true (Int32.equal r Int32.min_int)
        | _ -> Alcotest.fail "wrong kind");
    tc "i32 shift amounts mask to 5 bits" (fun () ->
        let open Lslp_interp.Eval in
        match scalar_binop Opcode.Shl (VI32 3l) (VI32 32l) with
        | VI32 r -> check_bool "shl 32 = shl 0" true (Int32.equal r 3l)
        | _ -> Alcotest.fail "wrong kind");
    tc "32-bit constants print distinctly" (fun () ->
        check_string "i32" "5l"
          (Fmt.str "%a" Printer.pp_const_readable (Instr.Cint32 5l));
        check_bool "f32 suffixed" true
          (let s =
             Fmt.str "%a" Printer.pp_const_readable (Instr.Cfloat32 2.5)
           in
           String.length s > 0 && s.[String.length s - 1] = 'f'));
    tc "memory rejects width confusion" (fun () ->
        let m = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.alloc m "A" Types.I32 ~size:4;
        check_bool "i64 read of i32 array raises" true
          (try ignore (Lslp_interp.Memory.read_int m "A" 0); false
           with Lslp_interp.Memory.Fault _ -> true));
    tc "f32 memory stores round to single precision" (fun () ->
        let m = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.alloc m "A" Types.F32 ~size:1;
        Lslp_interp.Memory.write_float32 m "A" 0 (1.0 +. Float.ldexp 1.0 (-40));
        check_bool "rounded" true
          (Lslp_interp.Memory.read_float32 m "A" 0 = 1.0));
    tc "reduction over f32 uses the 8-lane width" (fun () ->
        let b =
          Builder.create ~name:"sum8"
            ~args:[ ("S", Instr.Array_arg Types.F32);
                    ("A", Instr.Array_arg Types.F32); ("i", Instr.Int_arg) ]
        in
        let leaves =
          List.init 8 (fun k ->
              Builder.load b ~base:"A"
                (Affine.add_const k (Affine.sym ~coeff:8 "i")))
        in
        let sum =
          match leaves with
          | v :: rest ->
            List.fold_left (fun acc v -> Builder.binop b Opcode.Fadd acc v) v rest
          | [] -> assert false
        in
        Builder.store b ~base:"S" (Affine.sym "i") sum;
        let f = Builder.func b in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (entry_analysis f) in
        check_bool "vectorized" true
          (List.exists
             (fun r -> r.Reduction.outcome = Lslp_check.Remark.Vectorized)
             regions);
        check_bool "8-lane reduce" true
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Reduce (_, v) ->
                  (match Instr.value_ty v with
                   | Some ty -> Types.lanes ty = 8
                   | None -> false)
                | _ -> false)
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
  ]
