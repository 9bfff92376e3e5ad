(* Sharded fuzzing on the pool.

   Each fuzz case is one pool job running [Fuzz.run_case], whose outcome is
   a pure function of (seed, case) — independent of which domain runs it,
   in what order, or after how many retries.  [check_against_sequential]
   proves it per run: replay every case in the calling domain and compare
   the outcomes. *)

module Fuzz = Lslp_fuzz.Fuzz

let run ?metrics ?config ?cond ?inject_spec ~pool ~cases ~seed () =
  let jobs =
    Array.init cases (fun case ->
        ( Fmt.str "case-%d" case,
          fun ~inject:_ ~deadline:_ ->
            Fuzz.run_case ?config ?cond ?inject_spec ~seed ~case () ))
  in
  Array.mapi
    (fun case -> function
      | Pool.Done o -> o
      | Pool.Degraded_to_failure { attempts; failure } ->
        {
          Fuzz.case;
          desc = "(not run)";
          config_name = "(not run)";
          injected = None;
          vectorized = 0;
          degraded = 0;
          problem =
            Some
              (Fmt.str "pool degraded the case after %d attempt(s): %a"
                 attempts Pool.pp_failure failure);
        })
    (Pool.run ?metrics pool jobs)

type mismatch = {
  case : int;
  sharded : Fuzz.outcome;
  sequential : Fuzz.outcome;
}

let check_against_sequential ?config ?cond ?inject_spec ~seed outcomes =
  List.filter_map
    (fun (sharded : Fuzz.outcome) ->
      let case = sharded.case in
      let sequential = Fuzz.run_case ?config ?cond ?inject_spec ~seed ~case () in
      if sequential = sharded then None else Some { case; sharded; sequential })
    (Array.to_list outcomes)
