(* Two-level content-addressed verdict cache.

   Level 1 is an in-memory LRU; level 2 is an on-disk store (one file
   per key) that survives daemon restarts.  Keys come from
   Progdigest.loop_key; values are the per-loop (decision, outcome)
   pair — everything Report needs to render a summary line and the
   counters footer byte-identically to a cold run.  The containing
   Loops.loop and the label are *not* stored: they are rebuilt from the
   fresh static analysis on every request (the cheap part), which also
   guarantees a hit can never resurrect stale structural data.

   Both levels hold an entry as its Marshal payload, and a hit decodes
   it afresh (microseconds, next to the request's frontend and static
   analyses).  A decoded entry is dozens of small blocks, born amid a
   miss's dynamic-stage garbage; kept resident in the OCaml 5 major
   heap, which never moves a block, they would pin pools that are
   otherwise free, and the daemon's heap would grow with every verdict
   stored by several times the verdict's own size.  A payload is one
   block.

   Disk format (all bytes after the header are Marshal output):

     DCAV3\n<hex md5 of payload>\n<payload>

   The magic names the payload's layout: Marshal checks no types, so a
   change to any type an entry holds (DCAV3: the entry lost its program
   digest) takes a new magic, and an entry of an older layout reads as
   corrupt.  The digest line makes torn writes and bit rot detectable:
   any mismatch, short file, bad magic, or Marshal failure counts in
   [cache.corrupt] and degrades to a recompute — never a crash.  Writes
   go through a temp file + rename, so a concurrently reading process
   sees either the old entry or the new one, never a torn one.

   An escalated verdict (one decided by whole-program verification)
   depends on the whole program, which the loop key does not cover, so
   it is stored under a pinned key: the digest of the loop key and the
   whole-program digest.  Verdicts of several versions of a program live
   side by side, and an edit's re-test never displaces the verdict of
   the version before it.  A probe tries the loop key and then the
   pinned key, in memory and then on disk; a non-escalated verdict is
   served to any program the loop key matches.

   The cache's facts — memory and disk hits, misses, stores, evictions,
   corrupt entries, the degrade latch, and the resident-entry gauge —
   are Telemetry descriptors, added into the context that was ambient
   at [create] (the daemon's) whether or not it is counting.

   One mutex serializes the whole cache — table and LRU clock.  The
   concurrent daemon probes and stores from many worker domains;
   holding the lock across the disk read/write keeps the
   hit/miss/store accounting a single consistent story per call,
   and the I/O it covers is small (one verdict record) next to the
   dynamic-stage work a miss implies.  Two *processes* sharing a
   directory still at worst recompute (atomic rename keeps the files
   well-formed). *)

module Driver = Dca_core.Driver
module Commutativity = Dca_core.Commutativity
module Report = Dca_core.Report
module Faultpoint = Dca_support.Faultpoint
module Telemetry = Dca_support.Telemetry

(* Fault site for the disk-write path: an injected raise here models
   ENOSPC/EIO and must downgrade the cache to memory-only, never fail
   the request. *)
let fp_write = Faultpoint.site "vcache.write"

type entry = {
  e_decision : Driver.decision;
  e_outcome : Commutativity.outcome option;
  e_provenance : Report.provenance;
}

let counter ?gauge name = Telemetry.counter ~kind:Telemetry.Diag ?gauge name
let c_mem_hits = counter "cache.mem_hits"
let c_disk_hits = counter "cache.disk_hits"
let c_misses = counter "cache.misses"
let c_stores = counter "cache.stores"
let c_evictions = counter "cache.evictions"
let c_corrupt = counter "cache.corrupt"
let c_degraded = counter "dca_cache_degraded_total"
let g_entries = counter ~gauge:true "cache.mem_entries"

(* A resident entry: its Marshal payload and its last-use tick. *)
type slot = { payload : string; mutable last : int }

type t = {
  dir : string option;
  capacity : int;
  on_degrade : string -> unit;
  tele : Telemetry.Ctx.t;  (* where the cache's facts are counted *)
  lock : Mutex.t;
  mem : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable degraded : bool;  (* disk writes disabled after the first failure *)
}

let magic = "DCAV3"

let default_capacity = 4096

let create ?dir ?(capacity = default_capacity) ?(on_degrade = fun _ -> ()) () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  {
    dir;
    capacity = max 1 capacity;
    on_degrade;
    tele = Telemetry.current ();
    lock = Mutex.create ();
    mem = Hashtbl.create 256;
    clock = 0;
    degraded = false;
  }

let add t c n = Telemetry.Ctx.add t.tele c n

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let path t key = match t.dir with None -> None | Some d -> Some (Filename.concat d (key ^ ".v"))

(* Evict the least-recently-used entries down to capacity.  A linear scan
   per eviction is O(capacity) — with the default capacity and one
   eviction per insert-at-full, amortized cost is negligible next to one
   dynamic-stage replay. *)
let enforce_capacity t =
  while Hashtbl.length t.mem > t.capacity do
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, lbest) when s.last >= lbest -> ()
        | _ -> victim := Some (k, s.last))
      t.mem;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove t.mem k;
        add t c_evictions 1;
        add t g_entries (-1)
    | None -> ()
  done

let mem_insert t key payload =
  if not (Hashtbl.mem t.mem key) then add t g_entries 1;
  Hashtbl.replace t.mem key { payload; last = tick t };
  enforce_capacity t

let decode payload : entry = Marshal.from_string payload 0

let disk_read t key =
  match path t key with
  | None -> None
  | Some file ->
      if not (Sys.file_exists file) then None
      else begin
        match
          let raw = In_channel.with_open_bin file In_channel.input_all in
          (* header: magic line, digest line, payload *)
          let nl1 = String.index raw '\n' in
          let nl2 = String.index_from raw (nl1 + 1) '\n' in
          let head = String.sub raw 0 nl1 in
          let want = String.sub raw (nl1 + 1) (nl2 - nl1 - 1) in
          let payload = String.sub raw (nl2 + 1) (String.length raw - nl2 - 1) in
          if head <> magic then failwith "bad magic";
          if Digest.to_hex (Digest.string payload) <> want then failwith "digest mismatch";
          (payload, decode payload)
        with
        | read -> Some read
        | exception _ ->
            add t c_corrupt 1;
            None
      end

(* A failed disk write (ENOSPC, EIO, read-only directory, injected
   [vcache.write] fault) latches [degraded]: the cache downgrades to
   memory-only operation — later stores skip the disk entirely rather
   than paying a doomed syscall per verdict — ticks
   [dca_cache_degraded_total], and fires [on_degrade] exactly once so
   the embedder can log the event.  Reads keep probing the disk: a
   read-only directory still serves its old entries.  A daemon restart
   re-probes the disk (degradation is per-instance). *)
let disk_write t key payload =
  match path t key with
  | None -> ()
  | Some file -> (
      if not t.degraded then
        try
          Faultpoint.hit_unit fp_write;
          let tmp = file ^ ".tmp" in
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc magic;
              output_char oc '\n';
              output_string oc (Digest.to_hex (Digest.string payload));
              output_char oc '\n';
              output_string oc payload);
          Sys.rename tmp file
        with e ->
          (* a full or read-only disk degrades the cache, never the reply *)
          add t c_degraded 1;
          t.degraded <- true;
          (try Sys.remove (file ^ ".tmp") with Sys_error _ -> ());
          t.on_degrade (Printexc.to_string e))

(* Where an escalated verdict lives: hex and 32 characters, like a loop
   key, so it names a file the same way. *)
let pinned_key key ~prog_digest = Digest.to_hex (Digest.string (key ^ "|" ^ prog_digest))

let find t ~prog_digest key =
  (* the loop key, and then the key pinned to this program *)
  let either probe =
    let at k = Option.map (fun v -> (k, v)) (probe k) in
    match at key with None -> at (pinned_key key ~prog_digest) | hit -> hit
  in
  Mutex.protect t.lock (fun () ->
      match either (Hashtbl.find_opt t.mem) with
      | Some (_, s) ->
          s.last <- tick t;
          add t c_mem_hits 1;
          Some (decode s.payload)
      | None -> (
          match either (disk_read t) with
          | Some (k, (payload, entry)) ->
              add t c_disk_hits 1;
              mem_insert t k payload;
              Some entry
          | None ->
              add t c_misses 1;
              None))

let store t ~prog_digest key entry =
  let key =
    match entry.e_outcome with
    | Some oc when oc.Commutativity.oc_escalated -> pinned_key key ~prog_digest
    | _ -> key
  in
  let payload = Marshal.to_string entry [] in
  Mutex.protect t.lock (fun () ->
      add t c_stores 1;
      mem_insert t key payload;
      disk_write t key payload)

