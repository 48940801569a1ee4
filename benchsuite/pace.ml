(* The machine's pace.

   The benchmark runs on shared virtual CPUs whose speed drifts by tens
   of percent within a minute as other tenants load the host, and the
   time of a fixed piece of work drifts with it.  So a fixed kernel,
   which does not use the code under test, is timed through the run:
   between items, once [every_ns] has passed since the last reading, on
   the thread that runs them (a kernel in another process, free to run
   on the other CPU, does not track the workload's speed).  The kernel
   allocates nothing, so the heap a workload leaves behind cannot slow
   it.

   A time the run reports is the wall time of its interval at the
   reference pace: each stretch between two readings is scaled by
   [reference_ns] over the mean of the two, so an item that ran in a slow
   spell and one that ran in a calm one report the same work alike.  The
   readings' own time is left out. *)

let now_ns = Dca_support.Telemetry.now_ns

(* The kernel's time, best of three, on an unloaded 2-vCPU Intel Xeon
   VM: a time at that pace is reported as measured. *)
let reference_ns = 250_000.0

let every_ns = 100_000_000

(* The kernel: a dispatch loop over a ten-instruction program of loads,
   stores and arithmetic on a 32 KiB memory, the kind of branchy
   interpretation the DCA interpreter does. *)
let memory = Array.make 4096 0

let kernel () =
  let regs = Array.make 8 0 and steps = ref 0 in
  for _ = 1 to 4 do
    let pc = ref 0 in
    regs.(5) <- 1;
    while !pc < 10 && !steps < 120_000 do
      incr steps;
      (match !pc with
      | 0 -> regs.(0) <- 0
      | 1 -> regs.(1) <- 1
      | 2 -> regs.(2) <- -3000
      | 3 -> regs.(3) <- memory.(regs.(0) land 4095)
      | 4 -> regs.(3) <- regs.(3) + regs.(1)
      | 5 -> memory.(regs.(0) land 4095) <- regs.(3)
      | 6 -> regs.(4) <- regs.(3) * regs.(3)
      | 7 -> regs.(0) <- regs.(0) + regs.(1)
      | 8 -> regs.(5) <- regs.(0) + regs.(2)
      | _ -> if regs.(5) <> 0 then pc := 2);
      incr pc
    done
  done;
  !steps + regs.(4)

(* A reading: when it started and ended, and the kernel's best time of
   three. *)
type reading = { r_start : int; r_end : int; r_ns : float }

let readings : reading list ref = ref [] (* newest first *)
let last = ref 0

let best_of_three () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let a = now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := min !best (now_ns () - a)
  done;
  float_of_int !best

let read () =
  let r_start = now_ns () in
  let r_ns = best_of_three () in
  last := now_ns ();
  readings := { r_start; r_end = !last; r_ns } :: !readings

(* Between items: a reading if the last one is [every_ns] old. *)
let tick () = if now_ns () - !last >= every_ns then read ()

(* Readings inside an item too, from a timer signal every [every_ns]: an
   item of a second would otherwise be scaled by the two readings around
   it alone.  Only around work in this process that makes no system call
   the signal could interrupt. *)
let within f =
  let arm period =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> read ()));
  arm (float_of_int every_ns /. 1e9);
  Fun.protect ~finally:(fun () -> arm 0.0) f

(* The time from [t0] to [t1], in nanoseconds at the reference pace,
   given the readings oldest first.  A stretch before the first reading or
   after the last is scaled by that reading alone; time inside a reading
   counts for nothing. *)
let at_pace rs t0 t1 =
  match rs with
  | [] -> float_of_int (t1 - t0)
  | first :: _ ->
      let span lo hi = float_of_int (max 0 (min t1 hi - max t0 lo)) in
      let rec go acc = function
        | a :: (b :: _ as rest) ->
            go (acc +. (span a.r_end b.r_start *. reference_ns /. ((a.r_ns +. b.r_ns) /. 2.0))) rest
        | [ z ] -> acc +. (span z.r_end max_int *. reference_ns /. z.r_ns)
        | [] -> acc
      in
      go (span min_int first.r_start *. reference_ns /. first.r_ns) rs

(* A span (start, end) of this run in milliseconds at the reference pace:
   exact once a reading follows its end. *)
let scaled_ms (t0, t1) = at_pace (List.rev !readings) t0 t1 /. 1e6

(* One factor for the whole run: the reference time over the median
   reading, and the number of readings.  The per-layer times, summed over
   many items, are scaled by it. *)
let factor () =
  read ();
  (reference_ns /. Stats.median (List.map (fun r -> r.r_ns) !readings), List.length !readings)
