(* Pins the benchmark's inputs: the same seed must give byte-identical
   sources, every generated kernel must parse and survive the oracle, and
   renamed catalog kernels must still parse under their new name. *)

module Widegen = Perfbench.Widegen
module Workload = Perfbench.Workload

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let sources seed =
  List.map (fun (k : Widegen.kernel) -> k.source)
    (Widegen.generate ~seed ~count:16)

let batch_sources name seed b =
  Array.map
    (fun ((j : Lslp_service.Service.job), _) -> j.source)
    ((Workload.make name ~seed).batch b)

let () =
  if sources 7 <> sources 7 then fail "widegen: seed 7 is not reproducible";
  if sources 7 = sources 8 then fail "widegen: seeds 7 and 8 agree";
  List.iteri
    (fun n (k : Widegen.kernel) ->
      let compile () = Lslp_frontend.Lower.compile_string k.source in
      let reference = compile () in
      let candidate = compile () in
      ignore (Lslp_core.Pipeline.run candidate);
      let r = Lslp_interp.Oracle.compare_runs ~reference ~candidate () in
      if r.mismatches <> [] then fail "widegen: kernel %d mismatches" n;
      if reference.Lslp_ir.Func.fname <> k.name then
        fail "widegen: kernel %d is named %s" n reference.fname)
    (Widegen.generate ~seed:7 ~count:16);
  List.iter
    (fun name ->
      if batch_sources name 3 5 <> batch_sources name 3 5 then
        fail "%s: batch 5 of seed 3 is not reproducible" name;
      Array.iter
        (fun src -> ignore (Lslp_frontend.Lower.compile_string src))
        (batch_sources name 3 5))
    Workload.names;
  let renamed =
    Workload.rename (List.hd Lslp_kernels.Catalog.all).source "_x"
  in
  let f = Lslp_frontend.Lower.compile_string renamed in
  if not (String.ends_with ~suffix:"_x" f.Lslp_ir.Func.fname) then
    fail "rename: got %s" f.fname;
  print_endline "perfbench inputs: deterministic, parse, oracle-clean"
