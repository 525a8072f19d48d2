(* Crash / restart tests: ARIES-style basics plus the paper's forward
   recovery, including a sweep of crash points across the whole three-pass
   reorganization. *)

module Engine = Sched.Engine
module Tree = Btree.Tree
module Invariant = Btree.Invariant
module Txn_mgr = Transact.Txn_mgr
module Db = Sim.Db
module Buffer_pool = Pager.Buffer_pool

let payload = Db.payload_for

let restart db =
  Reorg.Recovery.restart ~access:db.Db.access ~config:Reorg.Config.default ()

let test_committed_survive_losers_rollback () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 99 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  Txn_mgr.commit db.Db.mgr t1;
  (* A loser: inserts + a delete that must be rolled back. *)
  let t2 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 100 to 119 do
    Tree.insert db.Db.tree ~txn:t2 ~key:k ~payload:(payload k) ()
  done;
  ignore (Tree.delete db.Db.tree ~txn:t2 50);
  Db.crash_now ~flush_seed:7 db;
  let _, outcome = restart db in
  Alcotest.(check int) "one loser" 1 outcome.Reorg.Recovery.losers_undone;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(List.init 100 (fun k -> (k, payload k)));
  Alcotest.(check bool) "no reorg to resume" true
    (outcome.Reorg.Recovery.resume = Reorg.Recovery.No_reorg)

let test_redo_after_clean_flush () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 49 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  Txn_mgr.commit db.Db.mgr t1;
  (* Nothing flushed at all: redo must rebuild every page from the log. *)
  Db.crash_now db;
  let _, outcome = restart db in
  Alcotest.(check bool) "redo did work" true (outcome.Reorg.Recovery.redo_applied > 0);
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:(List.init 50 (fun k -> (k, payload k)))

let test_uncommitted_not_durable () =
  let db = Db.create () in
  let t1 = Txn_mgr.begin_txn db.Db.mgr in
  for k = 0 to 9 do
    Tree.insert db.Db.tree ~txn:t1 ~key:k ~payload:(payload k) ()
  done;
  (* No commit, no force: everything vanishes. *)
  Db.crash_now db;
  let _, _ = restart db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:[]

(* ---------------- forward recovery of the reorganizer ---------------- *)

let sparse_records n = List.init n (fun i -> (2 * i, payload (2 * i)))

let mk_sparse ?(n = 700) ?(seed = 5) () =
  let records = sparse_records n in
  let db = Db.load ~page_size:512 ~leaf_pages:2048 ~fill:0.3 records in
  let rng = Util.Rng.create seed in
  Workload.Scramble.spread_leaves db.Db.tree rng ~span_factor:1.3;
  Db.flush_all db;
  (db, records)

(* Run the reorganization but crash after [crash_at] scheduler ticks. *)
let crash_reorg_at db crash_at =
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let finished = ref false in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Driver.run ctx);
      finished := true);
  Engine.spawn eng (fun () ->
      Engine.sleep crash_at;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:(crash_at * 31) db;
  !finished

let recover_and_resume db =
  let ctx, outcome = restart db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.run eng;
  (ctx, outcome)

let test_crash_mid_pass1_forward_recovery () =
  let db, records = mk_sparse () in
  let finished = crash_reorg_at db 40 in
  Alcotest.(check bool) "crashed before completion" false finished;
  let ctx, _outcome = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records;
  (* Work finished before the crash is preserved: LK advanced monotonically
     and the resumed run started from it, rather than from scratch. *)
  Alcotest.(check bool) "LK advanced" true (Reorg.Rtable.lk ctx.Reorg.Ctx.rtable > min_int)

let test_crash_point_sweep () =
  (* The gold test: crash at many points through all three passes, recover,
     resume, and require full consistency every time. *)
  let points = [ 5; 15; 30; 60; 100; 150; 220; 300; 400; 550; 700; 900; 1200 ] in
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at * 7) () in
      let finished = crash_reorg_at db crash_at in
      ignore finished;
      let _ctx, _outcome = recover_and_resume db in
      (try Invariant.check ~alloc:db.Db.alloc db.Db.tree
       with Invariant.Violation msg ->
         Alcotest.failf "crash@%d: invariant violated: %s" crash_at msg);
      try Invariant.check_consistent_with db.Db.tree ~expected:records
      with Invariant.Violation msg -> Alcotest.failf "crash@%d: %s" crash_at msg)
    points

let test_double_crash () =
  let db, records = mk_sparse ~n:400 () in
  ignore (crash_reorg_at db 80);
  (* First recovery, then crash again mid-resume. *)
  let ctx, outcome = restart db in
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Recovery.resume_reorganization ctx outcome));
  Engine.spawn eng (fun () ->
      Engine.sleep 50;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:99 db;
  let _ctx, _ = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree ~expected:records

let test_crash_with_concurrent_updaters () =
  (* Crash while both the reorganizer and user transactions are running:
     committed user work must survive, uncommitted must roll back, and the
     reorganization must be resumable. *)
  let db, records = mk_sparse ~n:400 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  let committed : (int, string) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace committed k v) records;
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  for w = 0 to 2 do
    Engine.spawn eng (fun () ->
        let rng = Util.Rng.create (500 + w) in
        let continue_ = ref true in
        while !continue_ do
          let tx = Txn_mgr.begin_txn db.Db.mgr in
          (try
             let k = (2 * Util.Rng.int rng 2000) + 1 in
             Btree.Access.insert db.Db.access ~txn:tx ~key:k ~payload:(payload k);
             Txn_mgr.commit db.Db.mgr tx;
             Hashtbl.replace committed k (payload k)
           with
          | Transact.Lock_client.Deadlock_victim | Tree.Duplicate_key _ ->
            Txn_mgr.abort db.Db.mgr tx);
          Engine.sleep 3;
          if Engine.stopped eng then continue_ := false
        done)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 120;
      Engine.stop eng);
  Engine.run eng;
  Db.crash_now ~flush_seed:3 db;
  let _ctx, _ = recover_and_resume db in
  Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Invariant.check_consistent_with db.Db.tree
    ~expected:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) committed [])

let test_work_preserved_vs_rollback () =
  (* §8: forward recovery preserves the interrupted unit's work, while the
     Tandem baseline rolls its in-flight transaction back.  Measure: after
     an identical crash, our LK (completed prefix) is retained and the
     resumed run does not repeat completed units. *)
  let db, _records = mk_sparse ~n:400 () in
  let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
  Engine.spawn eng (fun () ->
      Engine.sleep 60;
      Engine.stop eng);
  Engine.run eng;
  let units_before = (Reorg.Metrics.units ctx.Reorg.Ctx.metrics) in
  Db.crash_now ~flush_seed:13 db;
  let ctx2, outcome = restart db in
  let lk = Reorg.Rtable.lk ctx2.Reorg.Ctx.rtable in
  Alcotest.(check bool) "some units had finished" true (units_before > 0);
  Alcotest.(check bool) "completed work survives (LK > -inf)" true (lk > min_int);
  (* Resume and ensure total progress completes. *)
  let eng2 = Engine.create () in
  Engine.spawn eng2 (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
  Engine.run eng2;
  Invariant.check ~alloc:db.Db.alloc db.Db.tree

let test_crash_with_checkpointer () =
  (* Frequent checkpoints while the reorganizer and users run: restart
     analysis starts from the latest stable checkpoint (carrying the §5
     system table) and everything still recovers exactly. *)
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at + 1) () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      let finished = ref false in
      Engine.spawn eng (fun () ->
          ignore (Reorg.Driver.run ctx);
          finished := true);
      Sched.Daemon.spawn eng ~name:"checkpointer" ~every:20 ~until:(fun () -> !finished)
        (fun () -> Reorg.Ctx.checkpoint ctx);
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:crash_at db;
      (* A checkpoint should be visible to analysis. *)
      Alcotest.(check bool)
        (Printf.sprintf "crash@%d: stable checkpoint exists" crash_at)
        true
        (crash_at < 25 || Wal.Log.last_checkpoint db.Db.log <> None);
      let _ctx, _ = recover_and_resume db in
      Invariant.check ~alloc:db.Db.alloc db.Db.tree;
      Invariant.check_consistent_with db.Db.tree ~expected:records)
    [ 30; 90; 200; 500 ]

let test_crash_point_sweep_lambda () =
  (* The crash sweep again, with the lambda-switch variant active. *)
  let config = { Reorg.Config.default with lambda_switch = true } in
  List.iter
    (fun crash_at ->
      let db, records = mk_sparse ~n:400 ~seed:(crash_at * 13) () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed:(crash_at * 5) db;
      let ctx2, outcome = Reorg.Recovery.restart ~access:db.Db.access ~config () in
      let eng2 = Engine.create () in
      Engine.spawn eng2 (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
      Engine.run eng2;
      (try
         Invariant.check ~alloc:db.Db.alloc db.Db.tree;
         Invariant.check_consistent_with db.Db.tree ~expected:records
       with Invariant.Violation msg -> Alcotest.failf "lambda crash@%d: %s" crash_at msg))
    [ 20; 80; 200; 350; 500; 800 ]

(* Property: for ANY (scenario seed, crash tick, flush pattern), crash +
   restart + resume ends fully consistent with all records intact. *)
let crash_anywhere_prop =
  QCheck.Test.make ~name:"crash anywhere, recover, resume: consistent" ~count:30
    QCheck.(
      make
        Gen.(
          triple (int_bound 1000) (int_range 5 800) (int_bound 1000)))
    (fun (seed, crash_at, flush_seed) ->
      let db, records = mk_sparse ~n:300 ~seed () in
      let ctx = Reorg.Ctx.make ~access:db.Db.access ~config:Reorg.Config.default () in
      let eng = Engine.create () in
      Engine.spawn eng (fun () -> ignore (Reorg.Driver.run ctx));
      Engine.spawn eng (fun () ->
          Engine.sleep crash_at;
          Engine.stop eng);
      Engine.run eng;
      Db.crash_now ~flush_seed db;
      let ctx2, outcome = restart db in
      let eng2 = Engine.create () in
      Engine.spawn eng2 (fun () ->
          ignore (Reorg.Recovery.resume_reorganization ctx2 outcome));
      Engine.run eng2;
      (try
         Invariant.check ~alloc:db.Db.alloc db.Db.tree;
         Invariant.check_consistent_with db.Db.tree ~expected:records
       with Invariant.Violation m ->
         QCheck.Test.fail_reportf "seed=%d crash=%d flush=%d: %s" seed crash_at flush_seed m);
      true)

let () =
  Alcotest.run "recovery"
    [
      ( "aries basics",
        [
          Alcotest.test_case "committed survive, losers roll back" `Quick
            test_committed_survive_losers_rollback;
          Alcotest.test_case "redo from log" `Quick test_redo_after_clean_flush;
          Alcotest.test_case "uncommitted not durable" `Quick test_uncommitted_not_durable;
        ] );
      ( "forward recovery",
        [
          Alcotest.test_case "crash mid-pass1" `Quick test_crash_mid_pass1_forward_recovery;
          Alcotest.test_case "crash point sweep" `Slow test_crash_point_sweep;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "crash with updaters" `Quick test_crash_with_concurrent_updaters;
          Alcotest.test_case "work preserved" `Quick test_work_preserved_vs_rollback;
          Alcotest.test_case "crash with checkpointer" `Quick test_crash_with_checkpointer;
          Alcotest.test_case "crash sweep (lambda)" `Quick test_crash_point_sweep_lambda;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest crash_anywhere_prop ]);
    ]
