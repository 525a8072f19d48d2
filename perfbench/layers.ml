(* Per-layer metrics: deltas of the layers' counters over the measured phase
   only, read off [Obs.Registry] (plus the disk's and the log's own stats,
   which the registry does not carry), and ratios derived from them. *)

module Db = Sim.Db

(* Registry counters and gauges reported as deltas. *)
let counters =
  [
    "sched.dispatches";
    "lock.acquires";
    "lock.acquires.S";
    "lock.acquires.RX";
    "lock.waits";
    "lock.give_ups";
    "lock.deadlocks";
    "lock.scan_steps";
    "lock.instant_checks";
    "pager.hits";
    "pager.misses";
    "pager.evictions";
    "pager.flushes";
    "pager.dep_flushes";
    "wal.records";
    "wal.bytes";
    "wal.forced";
    "olc.reads";
    "olc.retries";
    "olc.fallbacks";
    "olc.version_bumps";
    "core.units";
    "core.unit_retries";
    "core.units_undone";
    "core.swap_units";
    "core.move_units";
    "core.records_moved";
    "core.log_bytes";
    "core.side_entries";
    "core.catchup_batches";
  ]

type snap = {
  reg : (string * int) list;
  disk : Pager.Disk.stats;
  truncated : int;
  minor_words : float;
  major_collections : int;
}

let snapshot reg (db : Db.t) =
  let st = Gc.quick_stat () in
  {
    reg =
      List.map (fun n -> (n, Option.value ~default:0 (Obs.Registry.value reg n))) counters;
    disk = Pager.Disk.stats db.disk;
    truncated = Wal.Log.truncated_records db.log;
    minor_words = st.Gc.minor_words;
    major_collections = st.Gc.major_collections;
  }

let frac a b = if b = 0.0 then 0.0 else a /. b

(* The measured phase's layer metrics.  [ops] is the number of committed
   client transactions, [write_commits] the committed writing ones,
   [group_commit] the pipeline's batcher stats (zero without a pipeline). *)
let delta reg ~before ~after ~ops ~write_commits ~(group_commit : Wal.Group_commit.stats)
    (db : Db.t) =
  let d n = float_of_int (List.assoc n after.reg - List.assoc n before.reg) in
  let disk =
    let a = after.disk and b = before.disk in
    Pager.Disk.
      {
        reads = a.reads - b.reads;
        writes = a.writes - b.writes;
        seq_reads = a.seq_reads - b.seq_reads;
        rand_reads = a.rand_reads - b.rand_reads;
        seq_writes = a.seq_writes - b.seq_writes;
        rand_writes = a.rand_writes - b.rand_writes;
      }
  in
  let blocked_p99 =
    match Obs.Registry.find reg "sched.blocked_ticks" with
    | Some (Obs.Registry.Histogram h) when Obs.Histogram.count h > 0 ->
      (Obs.Histogram.summary h).Util.Stats.p99
    | _ -> 0.0
  in
  let tree = Btree.Tree.stats db.tree in
  let ops = float_of_int ops in
  List.map (fun n -> (n, d n)) counters
  @ [
      ("sched.blocked_ticks_p99", blocked_p99);
      ("lock.waits_per_acquire", frac (d "lock.waits") (d "lock.acquires"));
      ("disk.reads", float_of_int disk.reads);
      ("disk.writes", float_of_int disk.writes);
      ("disk.io_cost", Pager.Disk.io_cost disk);
      ("disk.seq_write_frac", frac (float_of_int disk.seq_writes) (float_of_int disk.writes));
      ("pager.hit_rate", frac (d "pager.hits") (d "pager.hits" +. d "pager.misses"));
      ("pager.fixes_per_op", frac (d "pager.hits" +. d "pager.misses") ops);
      ("wal.truncated_records", float_of_int (after.truncated - before.truncated));
      ("wal.forces_per_commit", frac (d "wal.forced") (float_of_int write_commits));
      ("gc.batches", float_of_int group_commit.batches);
      ("gc.coalesced", float_of_int group_commit.coalesced);
      ("olc.useful_frac", frac (d "olc.reads") (d "olc.reads" +. d "olc.retries"));
      ("tree.height", float_of_int tree.height);
      ("tree.leaves", float_of_int tree.leaf_count);
      ("core.unit_useful_frac", frac (d "core.units") (d "core.units" +. d "core.unit_retries"));
      ("runtime.minor_words_per_op", frac (after.minor_words -. before.minor_words) ops);
      ( "runtime.major_collections",
        float_of_int (after.major_collections - before.major_collections) );
    ]
