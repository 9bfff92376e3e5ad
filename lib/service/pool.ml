(* The supervised Domain pool.

   One mutex guards all shared state; two condition variables split the
   waiters: [cond_work] wakes workers (job ready, or shutdown) and
   [cond_change] wakes the orchestrator (outcome recorded, worker died,
   queue space freed).  Workers run jobs outside the lock.

   Fault isolation is the point: any exception a job attempt lets escape —
   an injected [Inject.Fault], a [Budget.Deadline_expired] from the
   cooperative watchdog, a genuine pass bug — kills only that worker.  The
   dying worker records a retry or a typed failure for its job under the
   lock, marks its slot dead and exits its Domain; the orchestrator joins
   the corpse and spawns a replacement.  Nothing hangs and no job is ever
   lost: every submitted job ends in exactly one {!outcome}.

   Time is virtual.  Retry backoff is measured in scheduling ticks — the
   clock advances on every dispatch, completion and death — so a run
   never consults the wall clock (lint rule R4) and the backoff schedule
   is reproducible.  When every runnable job is sitting in the delayed
   list and nothing is in flight, the first idle worker fast-forwards the
   clock to the earliest ready_at instead of sleeping. *)

module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Stats = Lslp_telemetry.Pool_stats
module Registry = Lslp_obs.Registry
module Flight = Lslp_obs.Flight

type failure =
  | Crashed of string
  | Timed_out of { steps : int }
  | Shed

type 'a outcome =
  | Done of 'a
  | Degraded_to_failure of { attempts : int; failure : failure }

type config = {
  domains : int;
  queue_cap : int;
  retries : int;
  backoff : int;
  deadline_steps : int option;
  inject_for : int -> Inject.t option;
  job_seed : int;
}

let default_config =
  {
    domains = 4;
    queue_cap = 64;
    retries = 2;
    backoff = 2;
    deadline_steps = None;
    inject_for = (fun _ -> None);
    job_seed = 0;
  }

let pp_failure ppf = function
  | Crashed msg -> Fmt.pf ppf "crashed: %s" msg
  | Timed_out { steps } -> Fmt.pf ppf "timed out after %d step(s)" steps
  | Shed -> Fmt.pf ppf "shed: queue full"

(* Each attempt gets its own injector derived from (job_seed, job, attempt)
   so a fault schedule is a pure function of the spec and those three ints,
   independent of which domain picks the job up or in what order. *)
let attempt_seed config ~job ~attempt =
  (((config.job_seed * 1_000_003) + job) * 8191) + attempt

let attempt_inject config ~job ~attempt =
  Option.map
    (fun spec -> Inject.reseed spec ~seed:(attempt_seed config ~job ~attempt))
    (config.inject_for job)

(* Admission rolls its own dice (salt -1): the queue-full fault must fire
   independently of what the job's first attempt would do. *)
let admission_sheds config ~job =
  match config.inject_for job with
  | None -> false
  | Some spec ->
    Inject.fires
      (Inject.reseed spec ~seed:(attempt_seed config ~job ~attempt:(-1)))
      Inject.Queue_full

let run (type a) ?metrics config
    (jobs :
      (string
      * (inject:Inject.t option -> deadline:Budget.deadline option -> a))
      array) : a outcome array =
  let n = Array.length jobs in
  let domains = max 1 config.domains in
  let retries = max 0 config.retries in
  let backoff = max 1 config.backoff in
  let queue_cap = max 1 config.queue_cap in
  let m = Mutex.create () in
  let cond_work = Condition.create () in
  let cond_change = Condition.create () in
  let outcomes : a outcome option array = Array.make n None in
  let ready : (int * int) Queue.t = Queue.create () in
  (* (ready_at vtick, job, attempt); unsorted, promoted when due *)
  let delayed = ref [] in
  let vtick = ref 0 in
  let in_flight = ref 0 in
  let recorded = ref 0 in
  let shutdown = ref false in
  let dead = ref [] in
  let handles : unit Domain.t option array = Array.make domains None in
  let obs f = match metrics with Some (m : Stats.metrics) -> f m | None -> () in
  (* virtual tick of each job's {e first} dispatch, so the latency
     histogram charges retries and backoff to the job that paid them *)
  let first_dispatch = Array.make n (-1) in
  let flight m ~job ?attempt ?seed ?detail kind =
    Flight.record m.Stats.flight ~tick:!vtick ~job ?attempt ?seed ?detail kind
  in
  (* all helpers below assume the lock is held *)
  let promote () =
    let due, later =
      List.partition (fun (at, _, _) -> at <= !vtick) !delayed
    in
    delayed := later;
    List.iter
      (fun (_, job, attempt) ->
        Queue.add (job, attempt) ready;
        Condition.signal cond_work)
      (List.sort compare due)
  in
  let tick () =
    incr vtick;
    promote ()
  in
  let record job outcome =
    outcomes.(job) <- Some outcome;
    incr recorded;
    Condition.signal cond_change
  in
  let worker slot =
    let continue_ = ref true in
    while !continue_ do
      Mutex.lock m;
      while (not !shutdown) && Queue.is_empty ready do
        if !delayed <> [] && !in_flight = 0 then begin
          (* everything runnable is backing off: fast-forward the clock *)
          let soonest =
            List.fold_left (fun acc (at, _, _) -> min acc at) max_int
              !delayed
          in
          vtick := max !vtick soonest;
          promote ()
        end
        else Condition.wait cond_work m
      done;
      if Queue.is_empty ready then begin
        (* shutdown with nothing left to run *)
        Mutex.unlock m;
        continue_ := false
      end
      else begin
        let job, attempt = Queue.pop ready in
        incr in_flight;
        tick ();
        let label = fst jobs.(job) in
        obs (fun m ->
            if first_dispatch.(job) < 0 then first_dispatch.(job) <- !vtick;
            let depth = Queue.length ready in
            Registry.observe m.Stats.queue_at_dispatch depth;
            Registry.set m.Stats.queue_depth depth;
            flight m ~job:label ~attempt
              ~seed:(attempt_seed config ~job ~attempt) "dispatched");
        (* queue space freed: the orchestrator may admit the next job *)
        Condition.signal cond_change;
        Mutex.unlock m;
        let fn = snd jobs.(job) in
        let inject = attempt_inject config ~job ~attempt in
        let deadline = Option.map Budget.deadline config.deadline_steps in
        let result =
          match
            Inject.maybe_fail inject Inject.Worker_raise;
            (match inject with
             | Some i when Inject.fires i Inject.Worker_hang ->
               (* spin at the boundary until the watchdog cancels us *)
               Budget.deadline_spin deadline
             | _ -> ());
            fn ~inject ~deadline
          with
          | v -> Ok v
          | exception Budget.Deadline_expired { steps } ->
            Error (Timed_out { steps })
          | exception e -> Error (Crashed (Printexc.to_string e))
        in
        Mutex.lock m;
        decr in_flight;
        (match result with
         | Ok v ->
           record job (Done v);
           tick ();
           obs (fun m ->
               Registry.incr m.Stats.completed;
               Registry.observe m.Stats.job_attempts (attempt + 1);
               let latency = !vtick - first_dispatch.(job) in
               Registry.observe m.Stats.latency_ticks latency;
               let depth = Queue.length ready in
               Registry.observe m.Stats.queue_at_complete depth;
               Registry.set m.Stats.queue_depth depth;
               flight m ~job:label ~attempt
                 ~seed:(attempt_seed config ~job ~attempt)
                 ~detail:(Fmt.str "latency=%d" latency) "completed");
           if !in_flight = 0 && !delayed <> [] then
             Condition.broadcast cond_work;
           Mutex.unlock m
         | Error failure ->
           (* job-fatal: record the job's fate, then this worker dies *)
           let seed = attempt_seed config ~job ~attempt in
           (match failure with
            | Timed_out { steps } ->
              obs (fun m ->
                  Registry.incr m.Stats.timed_out;
                  flight m ~job:label ~attempt ~seed
                    ~detail:(Fmt.str "%d step(s)" steps) "timeout")
            | Crashed msg ->
              obs (fun m ->
                  flight m ~job:label ~attempt ~seed ~detail:msg "crashed")
            | Shed -> assert false (* shedding happens at admission *));
           if attempt < retries then begin
             let delay = backoff * (1 lsl attempt) in
             delayed := (!vtick + delay, job, attempt + 1) :: !delayed;
             obs (fun m ->
                 Registry.incr m.Stats.retried;
                 flight m ~job:label ~attempt:(attempt + 1)
                   ~seed:(attempt_seed config ~job ~attempt:(attempt + 1))
                   ~detail:(Fmt.str "in %d tick(s)" delay) "retried")
           end
           else begin
             record job
               (Degraded_to_failure { attempts = attempt + 1; failure });
             obs (fun m ->
                 Registry.incr m.Stats.failed;
                 Registry.observe m.Stats.job_attempts (attempt + 1);
                 flight m ~job:label ~attempt ~seed
                   ~detail:"retries exhausted" "failed")
           end;
           dead := slot :: !dead;
           Condition.signal cond_change;
           tick ();
           if !in_flight = 0 && !delayed <> [] then
             Condition.broadcast cond_work;
           Mutex.unlock m;
           continue_ := false)
      end
    done
  in
  let spawn slot = handles.(slot) <- Some (Domain.spawn (fun () -> worker slot)) in
  for slot = 0 to domains - 1 do
    spawn slot
  done;
  let next = ref 0 in
  Mutex.lock m;
  while !recorded < n do
    (* bury and replace dead workers *)
    (match !dead with
     | [] -> ()
     | slots ->
       dead := [];
       Mutex.unlock m;
       List.iter
         (fun slot ->
           match handles.(slot) with
           | Some d -> Domain.join d
           | None -> ())
         slots;
       Mutex.lock m;
       List.iter
         (fun slot ->
           spawn slot;
           obs (fun m ->
               Registry.incr m.Stats.respawned;
               flight m ~job:"" ~detail:(Fmt.str "worker %d" slot) "respawn"))
         slots);
    (* admit while the bounded queue has space — blocking here when it
       does not is the backpressure *)
    let progressed = ref false in
    while !next < n && Queue.length ready < queue_cap do
      let job = !next in
      incr next;
      progressed := true;
      let label = fst jobs.(job) in
      obs (fun m -> Registry.incr m.Stats.submitted);
      if admission_sheds config ~job then begin
        record job (Degraded_to_failure { attempts = 0; failure = Shed });
        obs (fun m ->
            Registry.incr m.Stats.shed;
            flight m ~job:label ~detail:"queue full" "shed")
      end
      else begin
        Queue.add (job, 0) ready;
        obs (fun m -> flight m ~job:label "enqueued");
        Condition.signal cond_work
      end
    done;
    if !recorded < n && (not !progressed) && !dead = [] then
      Condition.wait cond_change m
  done;
  shutdown := true;
  Condition.broadcast cond_work;
  Mutex.unlock m;
  Array.iter (function Some d -> Domain.join d | None -> ()) handles;
  Array.map
    (function
      | Some o -> o
      | None -> assert false (* recorded = n implies every slot is filled *))
    outcomes
