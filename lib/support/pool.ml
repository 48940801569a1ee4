type t = {
  jobs : int;
  lock : Mutex.t;
  cond : Condition.t;  (** signaled on enqueue, task completion, shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs
let fp_task = Faultpoint.site "pool.task"

(* Workers loop forever: run whatever is queued, sleep when idle, exit on
   shutdown.  Tasks never raise — [map] wraps user functions so failures
   are captured into the result slots. *)
let worker_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None -> if t.live then (Condition.wait t.cond t.lock; take ()) else None
    in
    match take () with
    | Some task ->
        Mutex.unlock t.lock;
        task ()
    | None ->
        Mutex.unlock t.lock;
        running := false
  done

let create ~jobs =
  let jobs = max 1 (min jobs 128) in
  let t =
    { jobs; lock = Mutex.create (); cond = Condition.create (); queue = Queue.create (); live = true; workers = [] }
  in
  if jobs > 1 then t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  if was_live then List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  if t.jobs <= 1 then List.map f xs
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
        let items = Array.of_list xs in
        let n = Array.length items in
        let results = Array.make n None in
        let remaining = ref n in
        (* Tasks run under the submitter's telemetry context and fault
           plan, whichever domain picks them up: counters and spans land
           in the scope that requested the work, and injected faults
           fire only in it.  Captured once per map, so a task carries its
           own map's scope into whichever domain runs it. *)
        let tele = Telemetry.current () and faults = Faultpoint.current () in
        let run i () =
          let r =
            Telemetry.with_ctx tele @@ fun () ->
            Faultpoint.with_plan faults (fun () ->
                (* span per task, on whichever domain executes it: the
                   trace's per-tid lanes show worker utilization directly *)
                Telemetry.begin_span ~cat:"pool" "task";
                let r =
                  (* the fault point is inside the capture: an injected
                     failure is recorded into the result slot and surfaces
                     through the deterministic earliest-index propagation,
                     exactly like a real task failure.  The site is
                     unscoped and hit from whichever domain runs the task,
                     so it is a diagnostic site — jobs-invariance is not
                     claimed for it. *)
                  try
                    Faultpoint.hit_unit fp_task;
                    Ok (f items.(i))
                  with e -> Error (e, Printexc.get_raw_backtrace ())
                in
                Telemetry.end_span "task";
                r)
          in
          Mutex.lock t.lock;
          results.(i) <- Some r;
          decr remaining;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock
        in
        Mutex.lock t.lock;
        for i = 0 to n - 1 do
          Queue.add (run i) t.queue
        done;
        Condition.broadcast t.cond;
        (* Participate until every slot of this map is filled: run queued
           tasks, and wait when the queue is empty but a task of ours is
           still running elsewhere.  The drain span covers exactly this
           participate-or-wait region, so the deterministic-merge stall
           (caller blocked on the last straggler) is visible in the trace
           as drain time not covered by task spans. *)
        Telemetry.begin_span ~cat:"pool" "drain";
        while !remaining > 0 do
          match Queue.take_opt t.queue with
          | Some task ->
              Mutex.unlock t.lock;
              task ();
              Mutex.lock t.lock
          | None -> if !remaining > 0 then Condition.wait t.cond t.lock
        done;
        Mutex.unlock t.lock;
        Telemetry.end_span "drain";
        (* Deterministic failure propagation: earliest input's exception. *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | _ -> ())
          results;
        Array.to_list
          (Array.map (function Some (Ok v) -> v | _ -> assert false) results)

let default_jobs () =
  match Sys.getenv_opt "DCA_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 128
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
