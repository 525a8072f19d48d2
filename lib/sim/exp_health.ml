(* Experiment H1 — online tree-health telemetry through a sparsification
   and its repair.

   A densely loaded tree is thinned by transactional uniform deletes (the
   paper's motivating state: sparsely-populated leaves), then reorganized
   while a sampler process on the same scheduler records deterministic
   health snapshots every few ticks.  Two threshold watches are armed up
   front — "utilization < 0.55" and "fragmentation > 0.30" — and must fire
   on the degraded tree; the sampled series then shows utilization climbing
   back to f2 as the passes run.  The sampler's snapshots are reported to
   the ambient Probe collector, so `bench --json` emits them as this
   experiment's [timeseries] array. *)

module Buffer_pool = Pager.Buffer_pool
module Health = Obs.Health
module Sampler = Obs.Health.Sampler

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let run () =
  let db, expected = Scenario.thinned ~seed:42 ~n:6000 ~survive:0.35 () in
  let registry = Obs.Registry.create () in
  let tracer = Obs.Trace.create () in
  let health = db.Db.health in
  let sampler = Sampler.create ~tracer health in
  Sampler.add_probe sampler "pool.flushes" (fun () ->
      (Buffer_pool.stats db.Db.pool).Buffer_pool.s_flushes);
  Sampler.add_probe sampler "wal.bytes" (fun () -> (Wal.Log.stats db.Db.log).Wal.Log.bytes);
  let fires = ref [] in
  let note f = fires := f :: !fires in
  Health.watch health ~name:"util<0.55" ~signal:Health.Utilization ~op:`Lt ~threshold:0.55
    note;
  Health.watch health ~name:"frag>0.30" ~signal:Health.Fragmentation ~op:`Gt
    ~threshold:0.30 note;
  let before = Health.stats health in
  let _ctx, _report, _ustats =
    Scenario.run_reorg ~registry ~tracer ~sampler ~sample_every:25 db
  in
  let after = Health.stats health in
  Btree.Invariant.check ~alloc:db.Db.alloc db.Db.tree;
  Btree.Invariant.check_consistent_with db.Db.tree ~expected;
  (* Hand the series to the benchmark baseline when one is being written. *)
  Probe.note_timeseries (Sampler.snapshots sampler);
  let table =
    Util.Table.create
      ~title:
        "H1 — online tree-health telemetry: bulk-delete sparsification, then reorg\n\
         (incremental tracker, sampled every 25 logical ticks; no full-tree scans)"
      [ ("sample", Util.Table.Right); ("tick", Util.Table.Right);
        ("leaves", Util.Table.Right); ("util", Util.Table.Right);
        ("frag", Util.Table.Right); ("backlog", Util.Table.Right);
        ("free pages", Util.Table.Right); ("watch fired", Util.Table.Left) ]
  in
  List.iteri
    (fun i (s : Sampler.snapshot) ->
      Util.Table.add_row table
        [ string_of_int i; string_of_int s.Sampler.at;
          string_of_int s.Sampler.leaves; pct s.Sampler.utilization;
          pct s.Sampler.fragmentation; string_of_int s.Sampler.backlog;
          string_of_int s.Sampler.free_pages;
          String.concat " " s.Sampler.fired ])
    (Sampler.snapshots sampler);
  Util.Table.add_rule table;
  Util.Table.add_row table
    [ "before"; "-"; string_of_int before.Health.leaves; pct before.Health.utilization;
      pct before.Health.fragmentation; string_of_int before.Health.backlog;
      string_of_int before.Health.free_pages; "-" ];
  Util.Table.add_row table
    [ "after"; "-"; string_of_int after.Health.leaves; pct after.Health.utilization;
      pct after.Health.fragmentation; string_of_int after.Health.backlog;
      string_of_int after.Health.free_pages;
      Printf.sprintf "%d fire(s), %d unit(s), %d switch(es)"
        after.Health.watch_fires after.Health.units after.Health.switches ];
  table

(* The parts of the run a test (or the CLI) wants to assert on. *)
type outcome = {
  o_samples : Sampler.snapshot list;
  o_fires : Health.fire list;
  o_before_util : float;
  o_after_util : float;
  o_trace_fire_events : int;
}

let run_outcome () =
  let db, _expected = Scenario.thinned ~seed:42 ~n:6000 ~survive:0.35 () in
  let tracer = Obs.Trace.create () in
  let health = db.Db.health in
  let sampler = Sampler.create ~tracer health in
  let fires = ref [] in
  Health.watch health ~name:"util<0.55" ~signal:Health.Utilization ~op:`Lt ~threshold:0.55
    (fun f -> fires := f :: !fires);
  let before_util = Health.utilization health in
  let _ = Scenario.run_reorg ~tracer ~sampler ~sample_every:25 db in
  {
    o_samples = Sampler.snapshots sampler;
    o_fires = List.rev !fires;
    o_before_util = before_util;
    o_after_util = Health.utilization health;
    o_trace_fire_events = Obs.Trace.count_named tracer "health.watch-fire";
  }
