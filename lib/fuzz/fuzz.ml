(* The differential fuzzer.

   Property: for ANY generated program, ANY configuration, with or without
   injected faults, [Pipeline.run]

   - never lets an exception escape,
   - leaves a structurally valid function behind, and
   - preserves observable behaviour against the scalar oracle
     ([Lslp_interp.Oracle], relative tolerance 1e-6 for fast-math
     reassociation);
   - with validation on and no faults armed, produces zero diagnostics.

   Everything is derived from one root seed: program generation, the
   per-case configuration draw and the per-case injector are all seeded
   deterministically, so a failing case reproduces from [--seed] + its
   case number alone. *)

open Lslp_ir
open Lslp_core
module Inject = Lslp_robust.Inject

type failure = {
  case : int;
  desc : string;          (* the generated program, printable *)
  config_name : string;
  injected : string option;
  problem : string;
}

type stats = {
  cases : int;
  failures : failure list;
  vectorized : int;       (* regions vectorized across all cases *)
  degraded : int;         (* regions degraded across all cases *)
  injected_runs : int;    (* cases that ran with an armed injector *)
}

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

let unroll_factor = 4

(* One case: generate, clone, unroll the candidate, run the pipeline under
   the drawn config, then check the three properties.  Returns the report's
   (vectorized, degraded) counts on success. *)
let run_case ~st ~cond ~inject_spec ~forced_config ~seed ~case :
    (int * int * bool, string * string * string option) result =
  let prog = Gen.generate ~cond_only:cond st in
  let desc = Gen.describe prog in
  let base_config =
    match forced_config with
    | Some c -> c
    | None -> config_pool.(Random.State.int st (Array.length config_pool))
  in
  let validate = Random.State.bool st in
  let case_seed = (seed * 1_000_003) + case in
  let inject =
    match inject_spec with
    | Some spec -> Some (Inject.reseed spec ~seed:case_seed)
    | None ->
      (* no spec given: arm a random low-rate injector on a quarter of the
         cases so the default fuzz run still exercises the rollback path *)
      if Random.State.int st 4 = 0 then
        Some
          (Inject.make
             ~rate:(0.25 +. Random.State.float st 0.75)
             ~seed:case_seed ())
      else None
  in
  let config =
    let c = Config.with_validate validate base_config in
    match inject with Some i -> Config.with_inject i c | None -> c
  in
  let fail problem =
    Error
      ( desc,
        problem,
        Option.map (fun i -> Fmt.str "%a" Inject.pp i) inject )
  in
  match Gen.build prog with
  | exception e ->
    Error (desc, Fmt.str "generator crashed: %s" (Printexc.to_string e), None)
  | reference -> (
    let candidate = Func.clone reference in
    ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
    match Pipeline.run ~config candidate with
    | exception e ->
      fail (Fmt.str "pipeline raised %s" (Printexc.to_string e))
    | report -> (
      match Verifier.check_func candidate with
      | e :: _ ->
        fail (Fmt.str "invalid IR: %s" (Verifier.error_to_string e))
      | [] ->
        let diag_errors =
          Lslp_check.Diagnostic.errors report.Pipeline.diagnostics
        in
        if inject = None && diag_errors <> [] then
          fail
            (Fmt.str "legality diagnostics: %s"
               (Lslp_check.Diagnostic.summary diag_errors))
        else if
          not
            (Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate ())
        then fail "oracle mismatch vs scalar reference"
        else
          Ok
            ( report.Pipeline.vectorized_regions,
              report.Pipeline.degraded_regions,
              inject <> None )))

let run ?(cases = 500) ?(seed = 42) ?(cond = false) ?config ?inject_spec () :
    stats =
  let st = Random.State.make [| seed |] in
  let failures = ref [] in
  let vectorized = ref 0 in
  let degraded = ref 0 in
  let injected_runs = ref 0 in
  for case = 0 to cases - 1 do
    match
      run_case ~st ~cond ~inject_spec ~forced_config:config ~seed ~case
    with
    | Ok (v, d, injected) ->
      vectorized := !vectorized + v;
      degraded := !degraded + d;
      if injected then incr injected_runs
    | Error (desc, problem, injected) ->
      failures :=
        {
          case;
          desc;
          config_name = "(case config)";
          injected;
          problem;
        }
        :: !failures
  done;
  {
    cases;
    failures = List.rev !failures;
    vectorized = !vectorized;
    degraded = !degraded;
    injected_runs = !injected_runs;
  }

(* One case under the *indexed* derivation: the whole case — program,
   config draw, validate flag, injector — comes from a per-case PRNG
   seeded by (root seed, case), not from one stream threaded across
   cases.  That makes case k a pure function of (seed, k) alone, so a
   Domain-pool can run cases in any order or interleaving and a
   sequential rerun must reproduce every outcome verbatim — the
   determinism assertion behind `lslpc fuzz --jobs N`. *)
type case_outcome = {
  case : int;
  ok : bool;
  summary : string;  (* stable per (seed, case): counts or the problem *)
  c_vectorized : int;
  c_degraded : int;
  c_injected : bool;
}

let run_case_indexed ?config ?(cond = false) ?inject_spec ~seed ~case () :
    case_outcome =
  let st = Random.State.make [| seed; case; 0x5eed |] in
  match
    run_case ~st ~cond ~inject_spec ~forced_config:config ~seed ~case
  with
  | Ok (v, d, injected) ->
    {
      case;
      ok = true;
      summary = Fmt.str "ok v=%d d=%d inj=%b" v d injected;
      c_vectorized = v;
      c_degraded = d;
      c_injected = injected;
    }
  | Error (desc, problem, injected) ->
    {
      case;
      ok = false;
      summary =
        Fmt.str "FAIL %s%s [%s]" problem
          (match injected with Some i -> Fmt.str " inj=%s" i | None -> "")
          desc;
      c_vectorized = 0;
      c_degraded = 0;
      c_injected = injected <> None;
    }

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "case %d: %s@,  program: %s%a" f.case f.problem f.desc
    (fun ppf -> function
      | Some i -> Fmt.pf ppf "@,  injected: %s" i
      | None -> ())
    f.injected

(* Stable summary on stdout (safe to pin in cram tests across OCaml
   versions); RNG-dependent counters go through {!pp_detail}, which the CLI
   sends to stderr. *)
let pp_summary ppf s =
  Fmt.pf ppf "@[<v>fuzz: %d case(s): %d failure(s)" s.cases
    (List.length s.failures);
  List.iter (fun f -> Fmt.pf ppf "@,%a" pp_failure f) s.failures;
  Fmt.pf ppf "@]"

let pp_detail ppf s =
  Fmt.pf ppf "%d region(s) vectorized, %d degraded, %d/%d case(s) with faults"
    s.vectorized s.degraded s.injected_runs s.cases

(* Machine form, shared emitter (same style as remarks and telemetry). *)
module Json = Lslp_util.Json

let failure_json (f : failure) =
  Json.Obj
    [
      ("case", Json.Int f.case);
      ("problem", Json.Str f.problem);
      ("program", Json.Str f.desc);
      ("config", Json.Str f.config_name);
      ( "injected",
        match f.injected with Some i -> Json.Str i | None -> Json.Null );
    ]

let json s =
  Json.Obj
    [
      ("cases", Json.Int s.cases);
      ("failures", Json.Arr (List.map failure_json s.failures));
      ("vectorized", Json.Int s.vectorized);
      ("degraded", Json.Int s.degraded);
      ("injected_runs", Json.Int s.injected_runs);
      ("ok", Json.Bool (s.failures = []));
    ]

let to_json s = Json.to_string (json s)

let ok s = s.failures = []
