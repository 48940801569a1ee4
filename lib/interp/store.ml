open Dca_ir
open Dca_support
open Value

(* ------------------------------------------------------------------ *)
(* Checkpointing strategy                                              *)
(* ------------------------------------------------------------------ *)

type checkpoint_mode = Journal | Deep

(* An undo-journal entry, recorded by the write barrier on the first
   mutation of a block (or global slot) in the current generation.  A
   [Jblock] entry owns the cells array it references: the barrier installs
   a fresh copy into the store before the write, so the journaled array is
   immutable from that point on and [restore] is a pointer swap.  The
   third component of [Jblock] is the frozen array's own install stamp, so
   [restore] reinstates the array together with its provenance — whether a
   fork might still share it. *)
type jentry =
  | Jblock of int * Value.t array * int
  | Jglobal of int * Value.t

let jdummy = Jglobal (-1, VUndef)

(* Checkpointing statistics, kept as plain mutable fields: every bump sits
   on an already-expensive event (an array copy, a journal push, a
   snapshot), never on the per-write fast path, so the cost is one integer
   store.  [flush_telemetry] drains them into the process-wide diagnostic
   counters. *)
type stats = {
  mutable st_snapshots : int;  (** {!snapshot} calls *)
  mutable st_restores : int;  (** {!restore} calls *)
  mutable st_journal_entries : int;  (** undo-journal entries pushed *)
  mutable st_journal_peak : int;  (** longest the journal ever grew *)
  mutable st_blocks_privatized : int;  (** barrier-installed private copies *)
  mutable st_cells_dirtied : int;  (** total cells across those copies *)
  mutable st_snapshot_depth_peak : int;  (** deepest live-snapshot nesting *)
  mutable st_watermark_hits : int;
      (** privatizations forced by post-fork copy-on-write sharing
          (block stamp below the [shared_below] fork watermark) *)
  mutable st_forks : int;  (** [1] when this store was itself created by {!copy} *)
}

let fresh_stats () =
  {
    st_snapshots = 0;
    st_restores = 0;
    st_journal_entries = 0;
    st_journal_peak = 0;
    st_blocks_privatized = 0;
    st_cells_dirtied = 0;
    st_snapshot_depth_peak = 0;
    st_watermark_hits = 0;
    st_forks = 0;
  }

(* The replica records its own birth: concurrent forks of a quiescent
   parent must not race on the parent's stats record. *)
let forked_stats () =
  let s = fresh_stats () in
  s.st_forks <- 1;
  s

type t = {
  mutable blocks : Value.t array array;  (** indexed by block id; [||] = never allocated *)
  mutable owned : int array;
      (** per-block install stamp: the generation in which [blocks.(b)]'s
          current cells array was installed (allocation, privatization or
          journal-replay).  [owned.(b) = epoch] means the block needs no
          barrier work in the current generation. *)
  mutable next_block : int;
  globals : Value.t array;
  gowned : int array;  (** per-slot generation stamp for the global table *)
  mutable out_rev : string list;
  mutable rng : int64;
  input : int array;
  mutable input_pos : int;
  mode : checkpoint_mode;
  mutable epoch : int;
      (** current generation; bumped by {!snapshot}, {!restore} and
          {!copy}, staling every ownership stamp at once *)
  mutable shared_below : int;
      (** fork watermark: a cells array installed in a generation
          [>= shared_below] postdates the last {!copy} and is private to
          this store.  A stale-stamped but private block needs no copy
          when no journal snapshot is live — the barrier just refreshes
          its stamp and writes in place. *)
  mutable journal : jentry array;
  mutable jlen : int;
  mutable active_marks : int;  (** live journal snapshots; journaling is on iff > 0 *)
  stats : stats;  (** never shared: {!copy} gives the replica a fresh record *)
}

type snapshot =
  | SDeep of {
      s_blocks : Value.t array array;
      s_next_block : int;
      s_globals : Value.t array;
      s_out_rev : string list;
      s_rng : int64;
      s_input_pos : int;
    }
  | SMark of {
      mutable m_released : bool;
      m_mark : int;  (** journal length at creation *)
      m_next_block : int;
      m_out_rev : string list;
      m_rng : int64;
      m_input_pos : int;
    }

let initial_capacity = 1024

(* Doubling growth shared by [alloc_raw] and the deep [restore] path. *)
let ensure_capacity t n =
  let cap = Array.length t.blocks in
  if n > cap then begin
    let cap' = max (2 * cap) n in
    let blocks = Array.make cap' [||] in
    Array.blit t.blocks 0 blocks 0 cap;
    t.blocks <- blocks;
    let owned = Array.make cap' 0 in
    Array.blit t.owned 0 owned 0 cap;
    t.owned <- owned
  end

let alloc_raw t cells =
  let id = t.next_block in
  t.next_block <- id + 1;
  ensure_capacity t (id + 1);
  t.blocks.(id) <- cells;
  (* a fresh block is exclusively ours and needs no undo entry: restore
     re-dangles it via the [next_block] watermark *)
  t.owned.(id) <- t.epoch;
  id

let alloc t kinds ~count =
  let m = Array.length kinds in
  let cells = Array.init (count * m) (fun i -> zero_of_kind kinds.(i mod m)) in
  alloc_raw t cells

let create ?(mode = Journal) (p : Ir.program) ~input =
  let t =
    {
      blocks = Array.make initial_capacity [||];
      owned = Array.make initial_capacity 0;
      next_block = 0;
      globals = Array.make (Array.length p.Ir.p_globals) VUndef;
      gowned = Array.make (Array.length p.Ir.p_globals) 0;
      out_rev = [];
      rng = 0x2545F4914F6CDD1DL;
      input = Array.of_list input;
      input_pos = 0;
      mode;
      epoch = 0;
      shared_below = 0;
      journal = [||];
      jlen = 0;
      active_marks = 0;
      stats = fresh_stats ();
    }
  in
  Array.iteri
    (fun slot g ->
      if g.Ir.g_aggregate then begin
        let cells = Array.map zero_of_kind g.Ir.g_kinds in
        let id = alloc_raw t cells in
        t.globals.(slot) <- VPtr (id, 0)
      end
      else
        t.globals.(slot) <-
          (match g.Ir.g_init with
          | Some (Ir.Oint n) -> VInt n
          | Some (Ir.Ofloat f) -> VFloat f
          | Some Ir.Onull | None -> zero_of_kind g.Ir.g_kinds.(0)
          | Some (Ir.Ovar _) -> invalid_arg "Store.create: variable global initializer"))
    p.Ir.p_globals;
  t

let bounds_fail what block off =
  failwith (Printf.sprintf "memory trap: %s at block %d offset %d" what block off)

let load t ~block ~off =
  if block < 0 || block >= t.next_block then bounds_fail "load from invalid block" block off;
  let cells = t.blocks.(block) in
  if off < 0 || off >= Array.length cells then bounds_fail "out-of-bounds load" block off;
  cells.(off)

let journal_push t e =
  let cap = Array.length t.journal in
  if t.jlen = cap then begin
    let bigger = Array.make (max 256 (2 * cap)) jdummy in
    Array.blit t.journal 0 bigger 0 cap;
    t.journal <- bigger
  end;
  t.journal.(t.jlen) <- e;
  t.jlen <- t.jlen + 1;
  t.stats.st_journal_entries <- t.stats.st_journal_entries + 1;
  if t.jlen > t.stats.st_journal_peak then t.stats.st_journal_peak <- t.jlen

(* The write barrier.  A stale stamp means the current cells array may
   still be needed elsewhere: by the undo journal of a live snapshot (it
   holds the values [restore] must bring back), or by a forked replica (it
   was current when {!copy} shared the heap).  In either case the array is
   frozen — a private copy is installed and the frozen one journaled if a
   snapshot is live.  A stale stamp on a {e private} array with no live
   snapshot needs neither: the barrier just refreshes the stamp and the
   write goes in place.  In [Deep] mode the epoch never moves, every stamp
   stays current, and the barrier never fires. *)
let privatize t block cells =
  let fresh = Array.copy cells in
  t.blocks.(block) <- fresh;
  if t.active_marks > 0 then journal_push t (Jblock (block, cells, t.owned.(block)));
  t.owned.(block) <- t.epoch;
  t.stats.st_blocks_privatized <- t.stats.st_blocks_privatized + 1;
  t.stats.st_cells_dirtied <- t.stats.st_cells_dirtied + Array.length cells;
  fresh

let store t ~block ~off v =
  if block < 0 || block >= t.next_block then bounds_fail "store to invalid block" block off;
  let cells = t.blocks.(block) in
  if off < 0 || off >= Array.length cells then bounds_fail "out-of-bounds store" block off;
  let stamp = t.owned.(block) in
  let cells =
    if stamp >= t.epoch then cells
    else if t.active_marks > 0 || stamp < t.shared_below then begin
      if stamp < t.shared_below then t.stats.st_watermark_hits <- t.stats.st_watermark_hits + 1;
      privatize t block cells
    end
    else begin
      t.owned.(block) <- t.epoch;
      cells
    end
  in
  cells.(off) <- v

let block_size t id =
  if id < 0 || id >= t.next_block then None else Some (Array.length t.blocks.(id))

let block_cells t id =
  if id < 0 || id >= t.next_block then None else Some t.blocks.(id)

let read_global t slot = t.globals.(slot)

let write_global t slot v =
  if t.active_marks > 0 && t.gowned.(slot) < t.epoch then begin
    journal_push t (Jglobal (slot, t.globals.(slot)));
    t.gowned.(slot) <- t.epoch
  end;
  t.globals.(slot) <- v

let print_value t v = t.out_rev <- Value.to_string v :: t.out_rev
let print_string_ t s = t.out_rev <- s :: t.out_rev
let outputs t = List.rev t.out_rev

(* xorshift64* — deterministic, checkpointable in one int64. *)
let drand t =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  let mixed = Int64.mul x 0x2545F4914F6CDD1DL in
  Int64.to_float (Int64.shift_right_logical mixed 11) /. 9007199254740992.0

let dseed t seed = t.rng <- Int64.logor (Int64.of_int seed) 1L

let read_input t =
  if t.input_pos < Array.length t.input then begin
    let v = t.input.(t.input_pos) in
    t.input_pos <- t.input_pos + 1;
    v
  end
  else 0

let fp_snapshot = Dca_support.Faultpoint.site "store.snapshot"

let snapshot t =
  Dca_support.Faultpoint.hit_unit fp_snapshot;
  t.stats.st_snapshots <- t.stats.st_snapshots + 1;
  match t.mode with
  | Deep ->
      SDeep
        {
          s_blocks = Array.init t.next_block (fun i -> Array.copy t.blocks.(i));
          s_next_block = t.next_block;
          s_globals = Array.copy t.globals;
          s_out_rev = t.out_rev;
          s_rng = t.rng;
          s_input_pos = t.input_pos;
        }
  | Journal ->
      t.epoch <- t.epoch + 1;
      t.active_marks <- t.active_marks + 1;
      if t.active_marks > t.stats.st_snapshot_depth_peak then
        t.stats.st_snapshot_depth_peak <- t.active_marks;
      SMark
        {
          m_released = false;
          m_mark = t.jlen;
          m_next_block = t.next_block;
          m_out_rev = t.out_rev;
          m_rng = t.rng;
          m_input_pos = t.input_pos;
        }

let restore t s =
  t.stats.st_restores <- t.stats.st_restores + 1;
  match s with
  | SDeep s ->
      ensure_capacity t s.s_next_block;
      for i = 0 to s.s_next_block - 1 do
        t.blocks.(i) <- Array.copy s.s_blocks.(i)
      done;
      (* blocks allocated after the snapshot become dangling *)
      for i = s.s_next_block to t.next_block - 1 do
        t.blocks.(i) <- [||]
      done;
      t.next_block <- s.s_next_block;
      Array.blit s.s_globals 0 t.globals 0 (Array.length s.s_globals);
      t.out_rev <- s.s_out_rev;
      t.rng <- s.s_rng;
      t.input_pos <- s.s_input_pos
  | SMark m ->
      if m.m_released then invalid_arg "Store.restore: snapshot already released";
      if m.m_mark > t.jlen then
        invalid_arg "Store.restore: stale snapshot (an earlier snapshot was restored over it)";
      (* replay newest-first, so a block dirtied under several generations
         ends at its oldest (snapshot-time) frozen array *)
      for k = t.jlen - 1 downto m.m_mark do
        (match t.journal.(k) with
        | Jblock (b, cells, stamp) ->
            t.blocks.(b) <- cells;
            t.owned.(b) <- stamp
        | Jglobal (slot, v) -> t.globals.(slot) <- v);
        t.journal.(k) <- jdummy
      done;
      t.jlen <- m.m_mark;
      for i = m.m_next_block to t.next_block - 1 do
        t.blocks.(i) <- [||]
      done;
      t.next_block <- m.m_next_block;
      t.out_rev <- m.m_out_rev;
      t.rng <- m.m_rng;
      t.input_pos <- m.m_input_pos;
      (* the reinstalled arrays are referenced by nothing else now, but the
         next snapshot/restore cycle must re-freeze them *)
      t.epoch <- t.epoch + 1

let release t s =
  match s with
  | SDeep _ -> ()
  | SMark m ->
      if not m.m_released then begin
        m.m_released <- true;
        t.active_marks <- t.active_marks - 1;
        if t.active_marks = 0 then begin
          for k = 0 to t.jlen - 1 do
            t.journal.(k) <- jdummy
          done;
          t.jlen <- 0
        end
      end

let heap_blocks t = t.next_block

let copy t =
  match t.mode with
  | Deep ->
      {
        t with
        blocks = Array.init t.next_block (fun i -> Array.copy t.blocks.(i));
        owned = Array.make t.next_block 0;
        globals = Array.copy t.globals;
        gowned = Array.copy t.gowned;
        journal = [||];
        jlen = 0;
        active_marks = 0;
        stats = forked_stats ();
      }
  | Journal ->
      (* Copy-on-write: the replica shares every cells array with the
         parent; bumping the parent's epoch (and raising [shared_below] to
         it on both sides) stales both sides' stamps and marks every
         pre-fork array as potentially shared, so whichever store writes a
         shared block first privatizes its own copy.  Concurrent forks of
         a quiescent parent are safe: each writes the same bumped epoch
         and watermark values and shares the same frozen arrays.  Only
         the allocated prefix is copied: [alloc_raw] grows the arrays. *)
      t.epoch <- t.epoch + 1;
      t.shared_below <- t.epoch;
      {
        t with
        blocks = Array.sub t.blocks 0 t.next_block;
        owned = Array.make t.next_block (-1);
        globals = Array.copy t.globals;
        gowned = Array.make (Array.length t.gowned) (-1);
        journal = [||];
        jlen = 0;
        active_marks = 0;
        stats = forked_stats ();
      }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let d_snapshots = Telemetry.counter ~kind:Telemetry.Diag "store.snapshots"
let d_restores = Telemetry.counter ~kind:Telemetry.Diag "store.restores"
let d_journal_entries = Telemetry.counter ~kind:Telemetry.Diag "store.journal_entries"
let d_journal_peak = Telemetry.counter ~kind:Telemetry.Diag ~merge:Telemetry.Max "store.journal_peak"
let d_blocks_privatized = Telemetry.counter ~kind:Telemetry.Diag "store.blocks_privatized"
let d_cells_dirtied = Telemetry.counter ~kind:Telemetry.Diag "store.cells_dirtied"
let d_snapshot_depth_peak =
  Telemetry.counter ~kind:Telemetry.Diag ~merge:Telemetry.Max "store.snapshot_depth_peak"
let d_watermark_hits = Telemetry.counter ~kind:Telemetry.Diag "store.fork_watermark_hits"
let d_forks = Telemetry.counter ~kind:Telemetry.Diag "store.forks"

let flush_telemetry t =
  if Telemetry.counting () then begin
    let s = t.stats in
    Telemetry.add d_snapshots s.st_snapshots;
    Telemetry.add d_restores s.st_restores;
    Telemetry.add d_journal_entries s.st_journal_entries;
    Telemetry.add_max d_journal_peak s.st_journal_peak;
    Telemetry.add d_blocks_privatized s.st_blocks_privatized;
    Telemetry.add d_cells_dirtied s.st_cells_dirtied;
    Telemetry.add_max d_snapshot_depth_peak s.st_snapshot_depth_peak;
    Telemetry.add d_watermark_hits s.st_watermark_hits;
    Telemetry.add d_forks s.st_forks;
    (* drained: a later flush of the same store only adds the delta *)
    s.st_snapshots <- 0;
    s.st_restores <- 0;
    s.st_journal_entries <- 0;
    s.st_blocks_privatized <- 0;
    s.st_cells_dirtied <- 0;
    s.st_watermark_hits <- 0;
    s.st_forks <- 0
  end
