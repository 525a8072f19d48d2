(* Experiment G1 — group commit and the asynchronous I/O pipeline.

   The same aged tree is reorganized twice under identical concurrent
   update-heavy user traffic.  The [sync] arm commits through the default
   synchronous path: every transaction commit forces the log, and dirty
   pages reach disk only through eviction and careful-writing prerequisite
   flushes — a random write stream.  The [pipelined] arm attaches the
   asynchronous durability pipeline: commit forces park on the group-commit
   batcher (one stable append per scheduler window covers every commit that
   arrived in it), a background elevator drains the buffer pool in
   ascending-page-id sweeps, and a fuzzy checkpointer bounds replay and
   truncates the WAL.  The claim the numbers must support: [wal.forced]
   drops by roughly the coalescing factor, the write stream shifts from
   random to sequential, and the io-cost model's total falls — without
   giving up any durability (the torture sweeps crash inside the same
   windows). *)

module Engine = Sched.Engine

let run_arm ~pipelined ~seed ~n ~users () =
  let db, _ = Scenario.aged ~seed ~n ~f1:0.3 () in
  (* Snapshot after the build: the arms compare only the reorganization
     phase, not the identical initial load. *)
  let reg = Probe.store_registry db in
  let before = Probe.counters reg in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.register_obs eng reg;
  Engine.set_tracer eng ctx.Reorg.Ctx.tracer;
  Db.set_tracers db ctx.Reorg.Ctx.tracer;
  let report = ref None in
  Engine.spawn eng ~name:"reorganizer" (fun () -> report := Some (Reorg.Driver.run ctx));
  let ustats =
    Workload.Mix.spawn_users eng ~access:db.Db.access ~seed:(seed + 1) ~users
      ~ops_per_user:10_000
      ~stop:(fun () -> !report <> None)
      ~mix:Workload.Mix.update_heavy ()
  in
  let ckpts = ref 0 in
  let gc =
    if pipelined then begin
      (* A 4-tick commit window batches the four users' commits; a 24-tick
         elevator period lets re-dirtied pages merge into one write per
         sweep instead of being rewritten every few ticks. *)
      let t =
        Pipeline.attach ~gc_every:4 ~flush_every:24 ~flush_limit:8 eng db ~stop:(fun () -> !report <> None)
      in
      (* The checkpointer is spawned here rather than through the pipeline so
         the arm can count how many checkpoints bounded replay. *)
      Sched.Daemon.spawn eng ~name:"checkpointer" ~every:150
        ~until:(fun () -> !report <> None)
        (fun () ->
          Reorg.Ctx.checkpoint ctx;
          incr ckpts);
      Fun.protect ~finally:(fun () -> Pipeline.detach t) (fun () -> Engine.run eng);
      Pipeline.stats t
    end
    else begin
      Engine.run eng;
      { Wal.Group_commit.batches = 0; coalesced = 0; max_batch = 0 }
    end
  in
  Db.flush_all db;
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  {
    Probe.label = (if pipelined then "pipelined" else "sync");
    counters = Probe.diff (Probe.counters reg) before;
    scalars =
      [ ("batches", gc.Wal.Group_commit.batches);
        ("coalesced", gc.Wal.Group_commit.coalesced);
        ("max_batch", gc.Wal.Group_commit.max_batch); ("checkpoints", !ckpts);
        ("wal_truncated", Wal.Log.truncated_records db.Db.log);
        ("user_committed", ustats.Workload.Mix.committed) ];
  }

let run_arms () =
  let seed = 42 and n = 1500 and users = 4 in
  let sync = run_arm ~pipelined:false ~seed ~n ~users () in
  let piped = run_arm ~pipelined:true ~seed ~n ~users () in
  (sync, piped)

let run () =
  let sync, piped = run_arms () in
  Probe.note [ sync; piped ];
  let table =
    Util.Table.create
      ~title:
        "G1 — group commit + async I/O pipeline vs synchronous durability\n\
         (same aged tree, reorganization with 4 concurrent update-heavy users)"
      [ ("arm", Util.Table.Left); ("forces", Util.Table.Right);
        ("gc batches", Util.Table.Right); ("coalesced", Util.Table.Right);
        ("max batch", Util.Table.Right); ("ckpts", Util.Table.Right);
        ("wal trunc", Util.Table.Right); ("seq w", Util.Table.Right);
        ("rand w", Util.Table.Right); ("io cost", Util.Table.Right);
        ("commits", Util.Table.Right) ]
  in
  let row (a : Probe.arm) =
    Util.Table.add_row table
      (a.Probe.label
       :: List.map
            (fun k -> string_of_int (Probe.get a k))
            [ "wal.forced"; "batches"; "coalesced"; "max_batch"; "checkpoints";
              "wal_truncated"; "disk.seq_writes"; "disk.rand_writes" ]
      @ [ Printf.sprintf "%.1f" (Probe.io_cost a.Probe.counters);
          string_of_int (Probe.get a "user_committed") ])
  in
  row sync;
  row piped;
  Util.Table.add_rule table;
  let ratio k =
    let a = Probe.get piped k and b = Probe.get sync k in
    Printf.sprintf "%.2fx" (if b = 0 then 1.0 else float_of_int a /. float_of_int b)
  in
  let io a = Probe.io_cost a.Probe.counters in
  Util.Table.add_row table
    [ "pipelined/sync"; ratio "wal.forced"; "-"; "-"; "-"; "-"; "-";
      ratio "disk.seq_writes"; ratio "disk.rand_writes";
      Printf.sprintf "%.2fx" (io piped /. Float.max 1.0 (io sync)); "-" ];
  table
