(* Sharded fuzzing on the pool.

   Each fuzz case is one pool job running [Fuzz.run_case_indexed], whose
   per-case PRNG derivation makes case k a pure function of (seed, k) —
   independent of which domain runs it, in what order, or after how many
   retries.  [check_against_sequential] proves it per run: re-derive every
   completed case sequentially in the calling domain and compare the
   outcome summaries verbatim. *)

module Fuzz = Lslp_fuzz.Fuzz

let run ?metrics ?config ?inject_spec ~pool ~cases ~seed () =
  let jobs =
    Array.init cases (fun case ->
        ( Fmt.str "case-%d" case,
          fun ~inject:_ ~deadline:_ ->
            Fuzz.run_case_indexed ?config ?inject_spec ~seed ~case () ))
  in
  Pool.run ?metrics pool jobs

type mismatch = { case : int; sharded : string; sequential : string }

let check_against_sequential ?config ?inject_spec ~seed outcomes =
  let mismatches = ref [] in
  Array.iteri
    (fun case outcome ->
      match outcome with
      | Pool.Degraded_to_failure _ -> () (* pool fault, not a fuzz result *)
      | Pool.Done (o : Fuzz.case_outcome) ->
        let s = Fuzz.run_case_indexed ?config ?inject_spec ~seed ~case () in
        if s.Fuzz.summary <> o.Fuzz.summary then
          mismatches :=
            { case; sharded = o.Fuzz.summary; sequential = s.Fuzz.summary }
            :: !mismatches)
    outcomes;
  List.rev !mismatches

type totals = {
  cases : int;
  failures : (int * string) list;  (* failing case, its summary *)
  pool_failures : int;  (* jobs the pool degraded (faults armed) *)
  vectorized : int;
  degraded : int;
  injected_runs : int;
}

let summarize outcomes =
  let failures = ref [] in
  let pool_failures = ref 0 in
  let vectorized = ref 0 in
  let degraded = ref 0 in
  let injected = ref 0 in
  Array.iter
    (function
      | Pool.Degraded_to_failure _ -> incr pool_failures
      | Pool.Done (o : Fuzz.case_outcome) ->
        if not o.Fuzz.ok then
          failures := (o.Fuzz.case, o.Fuzz.summary) :: !failures;
        vectorized := !vectorized + o.Fuzz.c_vectorized;
        degraded := !degraded + o.Fuzz.c_degraded;
        if o.Fuzz.c_injected then incr injected)
    outcomes;
  {
    cases = Array.length outcomes;
    failures = List.rev !failures;
    pool_failures = !pool_failures;
    vectorized = !vectorized;
    degraded = !degraded;
    injected_runs = !injected;
  }
