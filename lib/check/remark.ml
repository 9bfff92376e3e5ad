(* Optimization remarks.

   Mirrors -Rpass/-Rpass-missed: every region the vectorizer considered
   gets a record of what happened and why, assembled by the pipeline from
   the region outcome plus notes the graph builder emitted along the way.
   Rendering runs a fixed list of rules, each turning one aspect of the
   record into a named remark line. *)

type note =
  | Operand_mode_failed of { slots : int }
  | Multinode_capped of { limit : int }
  | Column_rejected of { reason : string; count : int }
  | Seed_rejected of { reason : string }

type outcome =
  | Vectorized
  | Unprofitable
  | Not_schedulable
  | Reduction_unmatched of { leaves : int; width : int }
  | Degraded of { pass : string; error : string }
  | Budget_exhausted of { pass : string; what : string }

type t = {
  region : string;
  block : string;
  lanes : int;
  cost : int option;
  threshold : int;
  outcome : outcome;
  notes : note list;
}

(* ---- rules -------------------------------------------------------- *)

type rule = {
  rule_name : string;
  produce : t -> string option;
}

let outcome_rule =
  {
    rule_name = "outcome";
    produce =
      (fun r ->
        match (r.outcome, r.cost) with
        | Vectorized, Some c ->
          Some
            (Fmt.str "vectorized at VL=%d: cost %+d beats threshold %d"
               r.lanes c r.threshold)
        | Vectorized, None -> Some (Fmt.str "vectorized at VL=%d" r.lanes)
        | Unprofitable, Some c ->
          Some
            (Fmt.str "kept scalar: cost %+d is not below threshold %d" c
               r.threshold)
        | Unprofitable, None -> Some "kept scalar: not profitable"
        | Not_schedulable, _ ->
          Some
            "kept scalar: bundles cannot be scheduled together (contracting \
             them leaves a dependence cycle)"
        | Reduction_unmatched { leaves; width }, _ ->
          Some
            (Fmt.str
               "reduction not vectorized: %d leaf/leaves is less than the \
                vector width %d"
               leaves width)
        | Degraded { pass; error }, _ ->
          Some
            (Fmt.str "degraded: %s failed (%s); region rolled back to scalar"
               pass error)
        | Budget_exhausted { pass; what }, _ ->
          Some
            (Fmt.str
               "degraded: %s exhausted the %s budget; region rolled back to \
                scalar"
               pass what));
  }

let note_rule name pick =
  { rule_name = name; produce = (fun r -> List.find_map pick r.notes) }

let seed_rejected_rule =
  note_rule "seed-rejected" (function
    | Seed_rejected { reason } ->
      Some (Fmt.str "seed bundle rejected: %s" reason)
    | Operand_mode_failed _ | Multinode_capped _ | Column_rejected _ -> None)

let operand_mode_rule =
  note_rule "operand-mode-failed" (function
    | Operand_mode_failed { slots } ->
      Some
        (Fmt.str
           "look-ahead reorder: %d operand slot(s) ended in FAILED mode"
           slots)
    | Seed_rejected _ | Multinode_capped _ | Column_rejected _ -> None)

let multinode_capped_rule =
  note_rule "multi-node-capped" (function
    | Multinode_capped { limit } ->
      Some (Fmt.str "multi-node growth capped at %d group(s)" limit)
    | Seed_rejected _ | Operand_mode_failed _ | Column_rejected _ -> None)

let columns_rule =
  {
    rule_name = "gathered-columns";
    produce =
      (fun r ->
        let gathered =
          List.filter_map
            (function
              | Column_rejected { reason; count } -> Some (reason, count)
              | Seed_rejected _ | Operand_mode_failed _ | Multinode_capped _
                -> None)
            r.notes
        in
        match gathered with
        | [] -> None
        | gs ->
          Some
            (Fmt.str "operand column(s) gathered: %s"
               (String.concat "; "
                  (List.map
                     (fun (reason, count) ->
                       if count = 1 then reason
                       else Fmt.str "%s (x%d)" reason count)
                     gs))));
  }

let rules =
  [
    outcome_rule; seed_rejected_rule; operand_mode_rule; multinode_capped_rule;
    columns_rule;
  ]

let explain r =
  List.filter_map
    (fun rule ->
      Option.map (fun msg -> (rule.rule_name, msg)) (rule.produce r))
    rules

let pp ppf r =
  if r.lanes > 0 then
    Fmt.pf ppf "@[<v 2>region [%s] %s (VL=%d):" r.block r.region r.lanes
  else Fmt.pf ppf "@[<v 2>region [%s] %s:" r.block r.region;
  List.iter
    (fun (name, msg) -> Fmt.pf ppf "@,remark[%s]: %s" name msg)
    (explain r);
  Fmt.pf ppf "@]"

(* ---- JSON rendering ------------------------------------------------ *)

module Json = Lslp_util.Json

let outcome_name = function
  | Vectorized -> "vectorized"
  | Unprofitable -> "unprofitable"
  | Not_schedulable -> "not-schedulable"
  | Reduction_unmatched _ -> "reduction-unmatched"
  | Degraded _ -> "degraded"
  | Budget_exhausted _ -> "budget-exhausted"

let trace_name = function
  | Vectorized -> "vectorized"
  | Unprofitable -> "rejected-cost"
  | Not_schedulable -> "not-schedulable"
  | Reduction_unmatched _ -> "reduction-unmatched"
  | Degraded _ | Budget_exhausted _ -> "degraded"

let remark_json r =
  Json.Obj
    [
      ("region", Json.Str r.region);
      ("block", Json.Str r.block);
      ("lanes", Json.Int r.lanes);
      ("cost", match r.cost with Some c -> Json.Int c | None -> Json.Null);
      ("threshold", Json.Int r.threshold);
      ("outcome", Json.Str (outcome_name r.outcome));
      ( "remarks",
        Json.Arr
          (List.map
             (fun (name, msg) ->
               Json.Obj
                 [ ("rule", Json.Str name); ("message", Json.Str msg) ])
             (explain r)) );
    ]

let diagnostic_json (d : Diagnostic.t) =
  Json.Obj
    [
      ( "severity",
        Json.Str
          (match d.Diagnostic.severity with
           | Diagnostic.Error -> "error"
           | Diagnostic.Warning -> "warning") );
      ("rule", Json.Str d.Diagnostic.rule);
      ("message", Json.Str d.Diagnostic.message);
    ]

let report_json ~config_name ~func_name ~diagnostics remarks =
  Json.Obj
    [
      ("config", Json.Str config_name);
      ("function", Json.Str func_name);
      ("regions", Json.Arr (List.map remark_json remarks));
      ("diagnostics", Json.Arr (List.map diagnostic_json diagnostics));
    ]

let report_to_json ~config_name ~func_name ~diagnostics remarks =
  Json.to_string (report_json ~config_name ~func_name ~diagnostics remarks)
