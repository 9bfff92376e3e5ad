(* Alpha-renaming of printed IR.

   Printed IR embeds the process-global instruction-id counter in every
   %label (see Lslp_ir.Printer), so two pipeline runs in one process are
   never textually identical even when they build the same instructions.
   Renaming every %token by first appearance makes textual equality mean
   structural equality.

   Lslp_ir.Printer.canonical produces the same text for a whole function
   in one printing pass; the service cache, the fuzzer's cache
   differential and the domain smoke use that.  This string pass is
   canonical's reference (the equivalence test and the perfbench replay
   compare against it) and renames text the printer does not own, such as
   remark lines. *)

let ids s =
  let b = Buffer.create (String.length s) in
  let tbl = Intern.create 64 in
  let n = String.length s in
  let is_tok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '%' then begin
      let j = ref (!i + 1) in
      while !j < n && is_tok s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      let k = Intern.intern tbl tok in
      Buffer.add_string b "%r";
      Buffer.add_string b (string_of_int k);
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b
