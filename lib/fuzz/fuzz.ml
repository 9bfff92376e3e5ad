(* The differential fuzzer.

   Property: for ANY generated program, ANY configuration, with or without
   injected faults, [Pipeline.run]

   - never lets an exception escape,
   - leaves a structurally valid function behind, and
   - preserves observable behaviour against the scalar oracle
     ([Lslp_interp.Oracle], relative tolerance 1e-6 for fast-math
     reassociation);
   - with validation on and no faults armed, produces zero diagnostics.

   Case k is a pure function of (seed, k): its program, configuration
   draw, validate flag and injector all come from one PRNG seeded by the
   pair, so a failing case reproduces from [--seed] and its case number
   alone, and a run sharded over domains ([Lslp_service.Shard]) sees the
   same outcomes as the sequential fold in {!run}. *)

open Lslp_ir
open Lslp_core
module Inject = Lslp_robust.Inject

type outcome = {
  case : int;
  desc : string;             (* the generated program, printable *)
  config_name : string;
  injected : string option;  (* the armed injector, printed *)
  vectorized : int;
  degraded : int;
  problem : string option;   (* None: every property held *)
}

type stats = {
  cases : int;
  failures : outcome list;
  vectorized : int;       (* regions vectorized across all cases *)
  degraded : int;         (* regions degraded across all cases *)
  injected_runs : int;    (* cases that ran with an armed injector *)
}

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

let unroll_factor = 4

(* The three properties over one drawn case: Ok (vectorized, degraded), or
   the first problem found. *)
let check ~config ~injected prog =
  match Gen.build prog with
  | exception e ->
    Error (Fmt.str "generator crashed: %s" (Printexc.to_string e))
  | reference -> (
    let candidate = Func.clone reference in
    ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
    match Pipeline.run ~config candidate with
    | exception e ->
      Error (Fmt.str "pipeline raised %s" (Printexc.to_string e))
    | report -> (
      match Verifier.check_func candidate with
      | e :: _ ->
        Error (Fmt.str "invalid IR: %s" (Verifier.error_to_string e))
      | [] ->
        let diag_errors =
          Lslp_check.Diagnostic.errors report.Pipeline.diagnostics
        in
        if (not injected) && diag_errors <> [] then
          Error
            (Fmt.str "legality diagnostics: %s"
               (Lslp_check.Diagnostic.summary diag_errors))
        else if
          not
            (Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate ())
        then Error "oracle mismatch vs scalar reference"
        else
          Ok
            (report.Pipeline.vectorized_regions,
             report.Pipeline.degraded_regions)))

(* One case: draw the program, config, validate flag and injector from the
   case's own PRNG, unroll, run the pipeline, check. *)
let run_case ?config ?(cond = false) ?inject_spec ~seed ~case () : outcome =
  let st = Random.State.make [| seed; case; 0x5eed |] in
  let prog = Gen.generate ~cond_only:cond st in
  let base_config =
    match config with
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
  let outcome =
    {
      case;
      desc = Gen.describe prog;
      config_name =
        (if validate then base_config.Config.name ^ "+validate"
         else base_config.Config.name);
      injected = Option.map (Fmt.str "%a" Inject.pp) inject;
      vectorized = 0;
      degraded = 0;
      problem = None;
    }
  in
  match check ~config ~injected:(inject <> None) prog with
  | Ok (vectorized, degraded) -> { outcome with vectorized; degraded }
  | Error problem -> { outcome with problem = Some problem }

let summarize (outcomes : outcome array) : stats =
  let add (s : stats) (o : outcome) =
    {
      s with
      failures = (if o.problem = None then s.failures else o :: s.failures);
      vectorized = s.vectorized + o.vectorized;
      degraded = s.degraded + o.degraded;
      injected_runs = (s.injected_runs + if o.injected = None then 0 else 1);
    }
  in
  let s =
    Array.fold_left add
      { cases = Array.length outcomes; failures = []; vectorized = 0;
        degraded = 0; injected_runs = 0 }
      outcomes
  in
  { s with failures = List.rev s.failures }

let run ?(cases = 500) ?(seed = 42) ?cond ?config ?inject_spec () : stats =
  summarize
    (Array.init cases (fun case ->
         run_case ?config ?cond ?inject_spec ~seed ~case ()))

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "@[<v 2>case %d: %a@,program: %s@,config: %s%a@]" o.case
    (fun ppf -> function
      | Some problem -> Fmt.string ppf problem
      | None ->
        Fmt.pf ppf "ok, %d vectorized, %d degraded" o.vectorized o.degraded)
    o.problem o.desc o.config_name
    (fun ppf -> function
      | Some i -> Fmt.pf ppf "@,injected: %s" i
      | None -> ())
    o.injected

(* Stable summary on stdout (safe to pin in cram tests across OCaml
   versions); RNG-dependent counters go through {!pp_detail}, which the CLI
   sends to stderr. *)
let pp_summary ppf s =
  Fmt.pf ppf "@[<v>fuzz: %d case(s): %d failure(s)" s.cases
    (List.length s.failures);
  List.iter (fun o -> Fmt.pf ppf "@,%a" pp_outcome o) s.failures;
  Fmt.pf ppf "@]"

let pp_detail ppf s =
  Fmt.pf ppf "%d region(s) vectorized, %d degraded, %d/%d case(s) with faults"
    s.vectorized s.degraded s.injected_runs s.cases

(* Machine form, shared emitter (same style as remarks and telemetry). *)
module Json = Lslp_util.Json

let failure_json (o : outcome) =
  Json.Obj
    [
      ("case", Json.Int o.case);
      ("problem", Json.Str (Option.value o.problem ~default:""));
      ("program", Json.Str o.desc);
      ("config", Json.Str o.config_name);
      ( "injected",
        match o.injected with Some i -> Json.Str i | None -> Json.Null );
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
