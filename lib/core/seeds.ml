(* Seed collection (paper §2.2 step 1).

   Like GCC's and LLVM's SLP, we look for runs of non-dependent stores to
   adjacent memory locations and cut them into power-of-two windows, widest
   first (up to the target's native lane count for the element type). *)

open Lslp_ir

type seed = Instr.t array

let describe (seed : seed) =
  match Instr.address seed.(0) with
  | Some a ->
    Fmt.str "%s[%a] x%d" a.Instr.base Affine.pp a.Instr.index
      (Array.length seed)
  | None ->
    Fmt.str "seed %s %%%s x%d"
      (Instr.opclass_name (Instr.opclass seed.(0)))
      seed.(0).Instr.name (Array.length seed)

(* Split one consecutive run of stores into windows: greedily take the
   largest power-of-two width that fits (>= 2). *)
let rec windows max_lanes (run : Instr.t list) : seed list =
  let n = List.length run in
  if n < 2 then []
  else begin
    let width = ref 2 in
    while !width * 2 <= min n max_lanes do
      width := !width * 2
    done;
    let rec take k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
        let taken, leftover = take (k - 1) rest in
        (x :: taken, leftover)
    in
    let first, rest = take !width run in
    Array.of_list first :: windows max_lanes rest
  end

let collect ?probe ?trace (config : Config.t) (analysis : Block_analysis.t) :
    seed list =
  let arena = Block_analysis.arena analysis in
  let n = Arena.size arena in
  (* single-element stores, grouped by interned base symbol: bucket ids are
     dense and issued in program order of first appearance, so iterating
     buckets in id order is deterministic *)
  let max_base = ref (-1) in
  for k = 0 to n - 1 do
    if
      Instr.is_store (Arena.instr arena k)
      && Arena.addr_lanes arena k = 1
    then max_base := max !max_base (Arena.addr_base arena k)
  done;
  let buckets = Array.make (!max_base + 1) [] in
  for k = n - 1 downto 0 do
    if
      Instr.is_store (Arena.instr arena k)
      && Arena.addr_lanes arena k = 1
    then begin
      let b = Arena.addr_base arena k in
      buckets.(b) <- k :: buckets.(b)
    end
  done;
  let seeds = ref [] in
  Array.iter
    (fun accesses ->
      match accesses with
      | [] -> ()
      | k0 :: _ when not (List.for_all (Arena.same_shape arena k0) accesses)
        ->
        () (* symbolically incomparable: no seed *)
      | accesses ->
        (* stable sort by constant offset, then split into maximal
           consecutive runs *)
        let sorted =
          List.stable_sort
            (fun j k ->
              Int.compare (Arena.addr_const arena j)
                (Arena.addr_const arena k))
            accesses
        in
        (* Duplicate offsets arise from if-conversion: the then- and
           else-branch both store (under complementary masks) to the same
           element.  Interleaved they would chop every run to nothing, so
           split the bucket into occurrence streams first — the s-th store
           to each offset joins stream s, in program order.  Each stream
           forms consecutive runs independently: all the then-branch stores
           seed one vector, all the else-branch stores another.  Buckets
           with unique offsets are a single stream, i.e. the classic case
           is untouched. *)
        let tagged =
          (* equal offsets are adjacent after the sort, so the occurrence
             index is just the position within the current equal-offset
             group — no table needed *)
          let prev_off = ref min_int and occ = ref (-1) in
          List.map
            (fun k ->
              let off = Arena.addr_const arena k in
              if off = !prev_off then incr occ
              else begin
                prev_off := off;
                occ := 0
              end;
              (!occ, k))
            sorted
        in
        let max_stream =
          List.fold_left (fun acc (s, _) -> max acc s) 0 tagged
        in
        for stream = 0 to max_stream do
          let members =
            List.filter_map
              (fun (s, k) -> if s = stream then Some k else None)
              tagged
          in
          let runs = ref [] and current = ref [] in
          let flush () =
            if !current <> [] then runs := List.rev !current :: !runs;
            current := []
          in
          List.iter
            (fun k ->
              match !current with
              | [] -> current := [ k ]
              | prev :: _ ->
                if Arena.consecutive arena prev k then
                  current := k :: !current
                else begin
                  flush ();
                  current := [ k ]
                end)
            members;
          flush ();
          List.iter
            (fun run ->
              let insts = List.map (Arena.instr arena) run in
              let elt =
                match insts with
                | s :: _ -> (
                  match Instr.address s with
                  | Some a -> a.Instr.elt
                  | None -> Types.I64)
                | [] -> Types.I64
              in
              let max_lanes = Config.effective_max_lanes config elt in
              seeds := !seeds @ windows max_lanes insts)
            (List.rev !runs)
        done)
    buckets;
  (* deterministic order: by position of the first store *)
  let sorted =
    List.sort
      (fun (a : seed) (b : seed) ->
        Int.compare (Arena.pos arena a.(0)) (Arena.pos arena b.(0)))
      !seeds
  in
  Option.iter
    (fun p ->
      let c = Lslp_telemetry.Probe.counters p in
      c.Lslp_telemetry.Probe.seeds_collected <-
        c.Lslp_telemetry.Probe.seeds_collected + List.length sorted)
    probe;
  Option.iter
    (fun tr ->
      Lslp_trace.Trace.record tr
        (Lslp_trace.Trace.Seeds_found
           {
             seeds =
               List.map (fun s -> (describe s, Array.length s)) sorted;
           }))
    trace;
  sorted
