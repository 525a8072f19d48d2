(* Benchmark & experiment harness.

   With no arguments: run every experiment (the paper's table, figures and
   quantitative claims) and then the Bechamel micro-benchmarks.  With
   arguments: run only the named targets.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1 swaps recovery
     dune exec bench/main.exe micro      # microbenchmarks only
     dune exec bench/main.exe check F    # the CI gates on a --json baseline
     dune exec bench/main.exe compare OLD NEW  # exact diff of two baselines

   --trace FILE and/or --metrics run an instrumented canonical scenario
   (aged tree, concurrent users) and emit a Chrome trace_event timeline /
   a metrics-registry dump instead of the experiment suite. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ( "table1",
      "Table 1: lock-mode compatibility matrix",
      fun () ->
        let table, ok = Sim.Exp_lock_table.run () in
        Util.Table.print table;
        Printf.printf "Table 1 reproduced exactly: %b\n" ok );
    ( "figure1",
      "Figure 1: three-pass walkthrough",
      fun () -> Util.Table.print (Sim.Exp_passes.run_figure1 ()) );
    ( "figure2",
      "Figure 2: leaf-reorg main loop branch profile",
      fun () -> Util.Table.print (Sim.Exp_passes.run_figure2 ()) );
    ( "swaps",
      "E1: Find-Free-Space heuristic vs naive (swap reduction)",
      fun () -> Util.Table.print (Sim.Exp_swaps.run ()) );
    ( "concurrency",
      "E2: user throughput during reorganization vs Tandem",
      fun () -> Util.Table.print (Sim.Exp_concurrency.run ()) );
    ( "recovery",
      "E3: forward recovery vs rollback after a crash",
      fun () -> Util.Table.print (Sim.Exp_recovery.run ()) );
    ( "logsize",
      "E4: log volume with/without careful writing",
      fun () -> Util.Table.print (Sim.Exp_logsize.run ()) );
    ( "range",
      "E5: range-scan I/O before/after reorganization",
      fun () -> Util.Table.print (Sim.Exp_range.run ()) );
    ( "granularity",
      "E6: pages per unit and overhead vs Tandem",
      fun () -> Util.Table.print (Sim.Exp_granularity.run ()) );
    ( "shrink",
      "E7: pass-3 height reduction and lock footprint",
      fun () -> Util.Table.print (Sim.Exp_shrink.run ()) );
    ( "switch",
      "E8: switch latency under concurrent updates",
      fun () -> Util.Table.print (Sim.Exp_switch.run ()) );
    ( "ablation",
      "Design-knob ablations (pass 2/3 off, f2 sweep, careful writing, stable cadence)",
      fun () -> Util.Table.print (Sim.Exp_ablation.run ()) );
    ( "unitsize",
      "§6 trade-off: pages per lock envelope vs user blocking",
      fun () -> Util.Table.print (Sim.Exp_unitsize.run ()) );
    ( "parallel",
      "Future work: range-partitioned parallel pass 1",
      fun () -> Util.Table.print (Sim.Exp_parallel.run ()) );
    ( "health",
      "H1: online tree-health telemetry (sparsify, reorg, sampled series)",
      fun () -> Util.Table.print (Sim.Exp_health.run ()) );
    ( "shard",
      "S1: keyspace-sharded engine — per-shard reorganizers, makespan scaling",
      fun () -> Util.Table.print (Sim.Exp_shard.run ()) );
    ( "groupcommit",
      "G1: group commit + async I/O pipeline vs synchronous durability",
      fun () -> Util.Table.print (Sim.Exp_groupcommit.run ()) );
    ( "olc",
      "R1: optimistic version-validated reads vs the locked reader protocol",
      fun () -> Util.Table.print (Sim.Exp_olc.run ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let mk_loaded ?capacity n =
  let records = List.init n (fun i -> (2 * i, Sim.Db.payload_for (2 * i))) in
  Sim.Db.load ?capacity ~fill:0.9 records

let bench_page_checksum =
  let p = Pager.Page.create ~size:512 in
  for i = 0 to 511 do
    Pager.Page.set_u8 p i (i * 37)
  done;
  Test.make ~name:"page.checksum (512 B)"
    (Staged.stage (fun () -> ignore (Pager.Page.body_checksum p)))

(* Point search over a 20k-record tree (about 1250 leaves), in two arms.
   Pool-resident: the pool holds the whole tree and every page has been
   read once, so a search reads no page from disk.  Pool-miss: the default
   256-frame pool, about 1.7 simulated-disk reads per search, each with its
   copy, torn-page checksum and eviction. *)
let btree_search ~arm ?capacity () =
  let db = mk_loaded ?capacity 20_000 in
  if capacity <> None then
    for i = 0 to 19_999 do
      ignore (Btree.Tree.search db.Sim.Db.tree (2 * i))
    done;
  let rng = Util.Rng.create 1 in
  Test.make ~name:(Printf.sprintf "btree.search (20k, %s)" arm)
    (Staged.stage (fun () ->
         ignore (Btree.Tree.search db.Sim.Db.tree (2 * Util.Rng.int rng 20_000))))

let bench_btree_search_resident = btree_search ~arm:"pool-resident" ~capacity:4096 ()
let bench_btree_search_miss = btree_search ~arm:"pool-miss" ()

let bench_btree_insert_delete =
  let db = mk_loaded 20_000 in
  let tx = Transact.Txn_mgr.fresh_owner db.Sim.Db.mgr in
  let rng = Util.Rng.create 2 in
  Test.make ~name:"btree.insert+delete"
    (Staged.stage (fun () ->
         let k = (2 * Util.Rng.int rng 1_000_000) + 1 in
         (try Btree.Tree.insert db.Sim.Db.tree ~txn:tx ~key:k ~payload:"x" ()
          with Btree.Tree.Duplicate_key _ -> ());
         ignore (Btree.Tree.delete db.Sim.Db.tree ~txn:tx k)))

let bench_btree_range =
  let db = mk_loaded 20_000 in
  let rng = Util.Rng.create 3 in
  Test.make ~name:"btree.range (100 keys)"
    (Staged.stage (fun () ->
         let lo = 2 * Util.Rng.int rng 19_000 in
         ignore (Btree.Tree.range db.Sim.Db.tree ~lo ~hi:(lo + 200))))

let bench_leaf_insert =
  let page = Pager.Page.create ~size:512 in
  Btree.Leaf.init page ~low_mark:0;
  let rng = Util.Rng.create 4 in
  Test.make ~name:"leaf.insert/delete (in page)"
    (Staged.stage (fun () ->
         let k = Util.Rng.int rng 1_000_000 in
         if Btree.Leaf.insert page { Btree.Leaf.key = k; payload = "0123456789" } then
           ignore (Btree.Leaf.delete page k)))

let bench_lock_acquire =
  let locks = Lockmgr.Lock_mgr.create () in
  let rng = Util.Rng.create 5 in
  Test.make ~name:"lock.acquire+release (S)"
    (Staged.stage (fun () ->
         let page = Util.Rng.int rng 1000 in
         match
           Lockmgr.Lock_mgr.try_acquire locks ~owner:1 (Lockmgr.Resource.Page page)
             Lockmgr.Mode.S
         with
         | `Granted ->
           Lockmgr.Lock_mgr.release locks ~owner:1 (Lockmgr.Resource.Page page) Lockmgr.Mode.S
         | `Conflict _ -> ()))

let bench_log_append =
  let log = Wal.Log.create () in
  Test.make ~name:"wal.append (leaf insert record)"
    (Staged.stage (fun () ->
         ignore
           (Wal.Log.append log
              (Wal.Record.Leaf_insert
                 { txn = 1; page = 42; key = 7; payload = "payload!"; prev = 0 }))))

let bench_record_codec =
  let body =
    Wal.Record.Reorg_move
      {
        unit_id = 3;
        org = 11;
        dest = 14;
        payload = Wal.Record.Keys_only [ 1; 2; 3; 4; 5; 6; 7; 8 ];
        dest_init = None;
        prev = 9;
      }
  in
  Test.make ~name:"wal.record encode+decode"
    (Staged.stage (fun () -> ignore (Wal.Record.decode (Wal.Record.encode body))))

let bench_reorg_unit =
  Test.make ~name:"reorg pass (120 records, end to end)"
    (Staged.stage (fun () ->
         let db, _ = Sim.Scenario.aged ~seed:9 ~n:120 ~f1:0.3 ~leaf_pages:512 () in
         let config = { Reorg.Config.default with swap_pass = false; shrink_pass = false } in
         ignore (Sim.Scenario.run_reorg ~config db)))

let micro () =
  let tests =
    [
      bench_page_checksum;
      bench_leaf_insert;
      bench_btree_search_resident;
      bench_btree_search_miss;
      bench_btree_insert_delete;
      bench_btree_range;
      bench_lock_acquire;
      bench_log_append;
      bench_record_codec;
      bench_reorg_unit;
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  print_endline "Micro-benchmarks (monotonic clock):";
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols_results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            estimates := (name, est) :: !estimates;
            Printf.printf "  %-42s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
        ols_results)
    tests;
  List.rev !estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline (--json FILE)                             *)
(* ------------------------------------------------------------------ *)

(* Schema v6 (field list and v5 key map in EXPERIMENTS.md): one
   BENCH_<rev>.json per revision, committed next to the code, so any two
   revisions can be diffed field-by-field.  Every experiment entry carries
   wall-clock, the registry values the Probe collector summed over all its
   stores and engines ([totals]), and — only where the experiment reports
   them — its [arms] and its health [timeseries].  `bench check FILE` runs
   the CI gates on such a file. *)
let emit_experiment buf (wall, (s : Sim.Probe.sample)) =
  let module J = Obs.Json in
  let ints l b = J.obj b (List.map (fun (k, v) -> (k, fun b -> J.int b v)) l) in
  let io_cost c b = J.float b (Sim.Probe.io_cost c) in
  let arm (a : Sim.Probe.arm) b =
    J.obj b
      [
        ("label", fun b -> J.string b a.Sim.Probe.label);
        ("io_cost", io_cost a.Sim.Probe.counters);
        ("scalars", ints a.Sim.Probe.scalars);
        ("counters", ints a.Sim.Probe.counters);
      ]
  in
  let unless_empty k l emit = if l = [] then [] else [ (k, fun b -> J.arr b (List.map emit l)) ] in
  J.obj buf
    ([
       ("wall_clock_s", fun b -> J.float b wall);
       ("engines", fun b -> J.int b s.Sim.Probe.engines);
       ("io_cost", io_cost s.Sim.Probe.totals);
       ("totals", ints s.Sim.Probe.totals);
     ]
    @ unless_empty "arms" s.Sim.Probe.arms arm
    @ unless_empty "timeseries" s.Sim.Probe.timeseries (fun snap b ->
          Obs.Health.Sampler.emit_snapshot b snap))

let write_json ~file ~experiments:exps ~micro:micro_est =
  let module J = Obs.Json in
  let rev = try Sys.getenv "BENCH_REV" with Not_found -> "unknown" in
  let buf = Buffer.create 4096 in
  J.obj buf
    [
      ("schema_version", fun b -> J.int b Bench_check.schema_version);
      ("revision", fun b -> J.string b rev);
      ("generated_at_unix", fun b -> J.float b (Float.round (Unix.time ())));
      ( "experiments",
        fun b -> J.obj b (List.map (fun (name, e) -> (name, fun b -> emit_experiment b e)) exps)
      );
      ( "micro_ns_per_run",
        fun b -> J.obj b (List.map (fun (n, v) -> (n, fun b -> J.float b v)) micro_est) );
    ];
  Buffer.add_char buf '\n';
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nbench baseline -> %s (%d experiments, %d micro estimates)\n" file
    (List.length exps) (List.length micro_est)

(* ------------------------------------------------------------------ *)

(* Canonical instrumented run: same shape as `reorg-cli workload`, fixed
   seed, so traces are comparable across commits. *)
let instrumented ~trace ~metrics =
  let registry = if metrics then Some (Obs.Registry.create ()) else None in
  let tracer = if trace <> None then Some (Obs.Trace.create ()) else None in
  let db, _ = Sim.Scenario.aged ~seed:7 ~n:1500 ~f1:0.3 () in
  let ctx, report, _ = Sim.Scenario.run_reorg ?registry ?tracer ~users:4 db in
  Format.printf "report: %a@." Reorg.Driver.pp_report report;
  Format.printf "metrics: %a@." Reorg.Metrics.pp ctx.Reorg.Ctx.metrics;
  (match (trace, tracer) with
  | Some file, Some tr ->
    Obs.Trace.write_chrome tr file;
    Printf.printf "trace: %d events -> %s (chrome://tracing or ui.perfetto.dev)\n"
      (Obs.Trace.event_count tr) file
  | _ -> ());
  match registry with Some reg -> print_string (Obs.Registry.dump reg) | None -> ()

(* `main.exe check FILE`: the CI gates of [Bench_check] on a baseline. *)
let check file =
  match Bench_check.run (Obs.Json.parse (In_channel.with_open_bin file In_channel.input_all)) with
  | exception (Sys_error msg | Failure msg) ->
    Printf.eprintf "bench check FAILED: %s\n" msg;
    exit 1
  | [] ->
    Printf.printf "bench check OK: %s (%d gates)\n" file (List.length Bench_check.gates);
    exit 0
  | failures ->
    List.iter (fun (gate, msg) -> Printf.eprintf "bench check FAILED [%s]: %s\n" gate msg) failures;
    exit 1

(* `main.exe compare OLD NEW`: [Bench_check.diff] of two baselines; exit 1
   when a deterministic figure differs. *)
let compare_files old_file new_file =
  let read f = Obs.Json.parse (In_channel.with_open_bin f In_channel.input_all) in
  match Bench_check.diff ~old:(read old_file) ~new_:(read new_file) with
  | exception (Sys_error msg | Failure msg | Bench_check.Fail msg) ->
    Printf.eprintf "bench compare FAILED: %s\n" msg;
    exit 1
  | c ->
    Printf.printf "bench compare %s -> %s\n" old_file new_file;
    let ok, lines = Bench_check.report c in
    List.iter print_endline lines;
    exit (if ok then 0 else 1)

let run_experiment (name, title, f) =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" name title;
  Printf.printf "================================================================\n%!";
  f ();
  print_newline ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Strip the observability flags; what remains are experiment targets. *)
  let rec split ~trace ~metrics ~json ~rev_targets = function
    | [] -> (trace, metrics, json, List.rev rev_targets)
    | "--metrics" :: rest -> split ~trace ~metrics:true ~json ~rev_targets rest
    | "--trace" :: file :: rest -> split ~trace:(Some file) ~metrics ~json ~rev_targets rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
      split ~trace:(Some (String.sub a 8 (String.length a - 8))) ~metrics ~json ~rev_targets rest
    | "--json" :: file :: rest -> split ~trace ~metrics ~json:(Some file) ~rev_targets rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--json=" ->
      split ~trace ~metrics ~json:(Some (String.sub a 7 (String.length a - 7))) ~rev_targets rest
    | a :: rest -> split ~trace ~metrics ~json ~rev_targets:(a :: rev_targets) rest
  in
  let trace, metrics, json, args =
    split ~trace:None ~metrics:false ~json:None ~rev_targets:[] args
  in
  let known = List.map (fun (n, _, _) -> n) experiments @ [ "micro" ] in
  (match args with
  | [ "check"; file ] -> check file
  | "check" :: _ ->
    prerr_endline "usage: main.exe check FILE";
    exit 2
  | [ "compare"; old_file; new_file ] -> compare_files old_file new_file
  | "compare" :: _ ->
    prerr_endline "usage: main.exe compare OLD NEW";
    exit 2
  | _ -> ());
  (* Reject a mistyped target before running anything: a CI target list
     must not silently lose an experiment. *)
  (match List.filter (fun t -> not (List.mem t known)) args with
  | [] -> ()
  | bad ->
    List.iter
      (fun t -> Printf.eprintf "unknown target %S; known: %s\n" t (String.concat " " known))
      bad;
    exit 2);
  if trace <> None || metrics then instrumented ~trace ~metrics;
  let targets =
    if args = [] then if (trace <> None || metrics) && json = None then [] else known else args
  in
  let exp_samples = ref [] in
  let micro_est = ref [] in
  List.iter
    (fun target ->
      if target = "micro" then micro_est := micro ()
      else
        match List.find_opt (fun (n, _, _) -> n = target) experiments with
        | Some ((name, _, _) as e) ->
          if json = None then run_experiment e
          else begin
            (* Same console output, but the run happens under the Probe
               collector and a wall clock, feeding the JSON baseline. *)
            let t0 = Unix.gettimeofday () in
            let (), sample = Sim.Probe.with_collector (fun () -> run_experiment e) in
            let wall = Unix.gettimeofday () -. t0 in
            exp_samples := (name, (wall, sample)) :: !exp_samples
          end
        | None -> assert false)
    targets;
  match json with
  | Some file -> write_json ~file ~experiments:(List.rev !exp_samples) ~micro:!micro_est
  | None -> ()
