(* The three workloads.  Each builds its database, runs closed-loop client
   fibers (and the reorganizer, and crashes) on a [Sched.Engine] through the
   engine's public entry points only, checks every result against the
   shadow map, and returns one iteration's measurements. *)

module Db = Sim.Db
module Engine = Sched.Engine
module Access = Btree.Access
module Txn_mgr = Transact.Txn_mgr

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

type size = {
  online_n : int;  (** reorg-online records (f1 = 0.3) *)
  oltp_n : int;  (** oltp-resident records (f1 = 0.7) *)
  oltp_ops : int;  (** oltp-resident operations per client *)
  crash_n : int;  (** crash-restart records (f1 = 0.3) *)
  crash_points : int;  (** crash-restart crash points per iteration *)
  reference_runs : int;  (** crash-restart reference runs per iteration *)
  restarts : int;  (** reorg-online / oltp-resident crash-restart cycles after the run *)
  leaf_pages : int;
  online_capacity : int option;  (** reorg-online pool frames (default: the pool's own) *)
}

let full =
  {
    online_n = 20_000;
    oltp_n = 20_000;
    oltp_ops = 5_000;
    crash_n = 20_000;
    crash_points = 6;
    reference_runs = 4;
    restarts = 5;
    leaf_pages = 8192;
    online_capacity = None;
  }

(* Small enough for the benchmark's own tests to run in seconds.  The
   reorg-online tree still outgrows the pool (48 frames, the crash-torture
   harness's tight pool), so the pager misses as it does at full size.
   Both a pool that holds the whole tree and one of 32 frames or fewer hit
   known engine defects (README.md, "Known engine defects"). *)
let test =
  {
    online_n = 1_500;
    oltp_n = 1_500;
    oltp_ops = 300;
    crash_n = 1_500;
    crash_points = 4;
    reference_runs = 2;
    restarts = 2;
    leaf_pages = 1024;
    online_capacity = Some 48;
  }

(* ------------------------------------------------------------------ *)
(* Per-iteration accounting                                            *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type acc = {
  read_t : Samples.t;
  write_t : Samples.t;
  scan_t : Samples.t;
  mutable attempted : int;  (** operation attempts, deadlock retries included *)
  mutable committed : int;
  mutable write_commits : int;
  mutable aborts : int;  (** deadlock-victim aborts (the operation is retried) *)
  mutable checks : int;  (** tree verifications run *)
  mutable failed : int;  (** wrong results plus failed verifications *)
  mutable messages : string list;  (** the first few failures, newest first *)
}

let new_acc () =
  {
    read_t = Samples.create ();
    write_t = Samples.create ();
    scan_t = Samples.create ();
    attempted = 0;
    committed = 0;
    write_commits = 0;
    aborts = 0;
    checks = 0;
    failed = 0;
    messages = [];
  }

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.messages < 5 then acc.messages <- msg :: acc.messages

(* Attempts, aborts, checks and failures of [a] counted in [into] too; its
   latencies are left out. *)
let add_counts into a =
  into.attempted <- into.attempted + a.attempted;
  into.aborts <- into.aborts + a.aborts;
  into.checks <- into.checks + a.checks;
  into.failed <- into.failed + a.failed;
  into.messages <- a.messages @ into.messages

(* What one iteration of a workload measured. *)
type iteration = {
  setups : float list;  (** wall seconds of every database build *)
  phases : float list;  (** wall seconds of each run of the measured client phase *)
  reorgs : float list;  (** wall seconds of each [Driver.run] timed for [reorg_s] *)
  reorg_ticks : int;
  restarts : float list;  (** wall seconds of every [Recovery.restart] *)
  space_amp : float;
  acc : acc;  (** the measured client phase *)
  layers : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Run-wide options                                                    *)
(* ------------------------------------------------------------------ *)

type env = {
  seed : int;
  size : size;
  spans : Obs.Trace.t option;  (** traced iteration: the benchmark's and reorganizer's spans *)
  mutable corrupt_next_read : bool;  (** mutation self-test *)
}

let fiber () = Engine.current_fiber ()

let span env ?op ~fiber name f =
  match env.spans with
  | None -> f ()
  | Some tr ->
    let args = match op with Some o -> [ ("op", Obs.Trace.Int o) ] | None -> [] in
    Obs.Trace.with_span tr ~tid:fiber ~args ~cat:"bench" name f

(* Builds and restarts are timed from a compacted heap, as they would run
   in a fresh process, so garbage left by earlier work is not billed to
   them. *)
let setup env f =
  Gc.compact ();
  timed (fun () -> span env ~fiber:(-1) "setup" f)

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

type mix = { read : float; scan : float; insert : float; delete : float }
type op = Read | Scan | Insert | Delete

type clients = {
  users : int;
  mix : mix;
  ops_per_user : int option;  (** [None]: run until [stop] *)
  key_space : int;  (** keys are drawn from [0, key_space) *)
  scan_keys : int;  (** base keys a scan covers *)
  attempted_keys : (int, string) Hashtbl.t option;  (** inserts tried (crash-restart) *)
}

let pick rng mix =
  let x = Util.Rng.float rng 1.0 in
  if x < mix.read then Read
  else if x < mix.read +. mix.scan then Scan
  else if x < mix.read +. mix.scan +. mix.insert then Insert
  else Delete

(* One closed-loop operation, retried after a deadlock-victim abort; its
   latency in ticks runs from the first attempt to the acknowledgement.
   Every result is compared with the shadow at the moment it returns. *)
let client_op env acc shadow (db : Db.t) c rng ~op_id =
  let mgr = db.mgr and access = db.access in
  let op = pick rng c.mix in
  let k = Util.Rng.int rng c.key_space in
  let key = match op with Insert -> k lor 1 | Delete -> k land lnot 1 | Read | Scan -> k in
  let fiber = fiber () in
  let sp name f = span env ~op:op_id ~fiber name f in
  let t0 = Engine.current_time () in
  let rec attempt () =
    acc.attempted <- acc.attempted + 1;
    match op with
    | Read | Scan -> (
      let tx = Txn_mgr.fresh_owner mgr in
      match
        if op = Read then begin
          let got = sp "Access.read" (fun () -> Access.read access ~txn:tx key) in
          let got =
            match got with
            | Some v when env.corrupt_next_read ->
              env.corrupt_next_read <- false;
              Some (v ^ "#")
            | g -> g
          in
          if got <> Shadow.find shadow key then
            fail acc (Printf.sprintf "read %d returned a value the shadow does not hold" key)
        end
        else begin
          let since = Shadow.seq shadow in
          let hi = key + (2 * c.scan_keys) - 1 in
          let got =
            sp "Access.range_read" (fun () -> Access.range_read access ~txn:tx ~lo:key ~hi)
          in
          if not (Shadow.check_scan shadow ~lo:key ~hi ~since ~payload:Db.payload_for got) then
            fail acc (Printf.sprintf "scan [%d, %d] disagrees with the shadow" key hi)
        end
      with
      | () -> sp "Txn_mgr.finish_read_only" (fun () -> Txn_mgr.finish_read_only mgr tx)
      | exception Transact.Lock_client.Deadlock_victim ->
        Txn_mgr.finish_read_only mgr tx;
        acc.aborts <- acc.aborts + 1;
        attempt ())
    | Insert | Delete -> (
      let tx = Txn_mgr.begin_txn mgr in
      let payload = Db.payload_for key in
      match
        if op = Insert then begin
          Option.iter (fun t -> Hashtbl.replace t key payload) c.attempted_keys;
          match sp "Access.insert" (fun () -> Access.insert access ~txn:tx ~key ~payload) with
          | () ->
            if Shadow.mem shadow key then fail acc (Printf.sprintf "insert of present key %d" key);
            fun () -> Shadow.ack_insert shadow key payload
          | exception Btree.Tree.Duplicate_key _ ->
            if not (Shadow.mem shadow key) then
              fail acc (Printf.sprintf "insert of absent key %d reported a duplicate" key);
            ignore
        end
        else begin
          let got = sp "Access.delete" (fun () -> Access.delete access ~txn:tx key) in
          if got <> Shadow.find shadow key then
            fail acc (Printf.sprintf "delete %d returned a value the shadow does not hold" key);
          if got = None then ignore else fun () -> Shadow.ack_delete shadow key
        end
      with
      | ack ->
        sp "Txn_mgr.commit" (fun () -> Txn_mgr.commit mgr tx);
        ack ();
        acc.write_commits <- acc.write_commits + 1
      | exception Transact.Lock_client.Deadlock_victim ->
        Txn_mgr.abort mgr tx;
        acc.aborts <- acc.aborts + 1;
        attempt ())
  in
  attempt ();
  acc.committed <- acc.committed + 1;
  let took = Engine.current_time () - t0 in
  Samples.add
    (match op with Read -> acc.read_t | Scan -> acc.scan_t | Insert | Delete -> acc.write_t)
    took

(* [users] fibers with a think time of one tick; each has its own rng on a
   lattice derived from the run seed.  [finished] counts fibers done. *)
let spawn_clients env eng acc shadow db c ~stop =
  let finished = ref 0 in
  for u = 0 to c.users - 1 do
    Engine.spawn eng ~name:(Printf.sprintf "client-%d" u) (fun () ->
        let rng = Util.Rng.create ((env.seed * 7919) + (u * 104_729) + 1) in
        let n = ref 0 in
        let more () = match c.ops_per_user with Some m -> !n < m | None -> true in
        while more () && not (stop ()) do
          incr n;
          client_op env acc shadow db c rng ~op_id:((u lsl 32) lor !n);
          Engine.sleep 1
        done;
        incr finished)
  done;
  finished

(* ------------------------------------------------------------------ *)
(* Checks and shared phases                                            *)
(* ------------------------------------------------------------------ *)

(* Invariants, exact contents (even keys exactly, odd keys only where an
   insert was attempted, every acknowledged key present) and no unit begun
   without an end — [Sim.Torture.verify] against the shadow. *)
let verify acc (db : Db.t) shadow ~attempted label =
  acc.checks <- acc.checks + 1;
  let acked = Hashtbl.create 1024 and tried = Hashtbl.create 1024 in
  let evens =
    List.filter
      (fun (k, v) ->
        if k land 1 = 1 then begin
          Hashtbl.replace acked k v;
          Hashtbl.replace tried k v
        end;
        k land 1 = 0)
      (Shadow.contents shadow)
  in
  Option.iter (Hashtbl.iter (fun k v -> Hashtbl.replace tried k v)) attempted;
  try Sim.Torture.verify db { Sim.Torture.base = evens; attempted = tried; acked }
  with Sim.Torture.Failed msg -> fail acc (label ^ ": " ^ msg)

(* Tree pages times page size over live record bytes. *)
let space_amp (db : Db.t) =
  let st = Btree.Tree.stats db.tree in
  let live =
    List.fold_left
      (fun n (key, payload) -> n + Btree.Leaf.record_bytes { Btree.Leaf.key; payload })
      0
      (Btree.Invariant.contents db.tree)
  in
  float_of_int ((st.leaf_count + st.internal_count) * Pager.Buffer_pool.page_size db.pool)
  /. float_of_int (max 1 live)

(* Stable log records that survived a crash: the log restart must read. *)
let stable_records (db : Db.t) =
  let n = ref 0 in
  Wal.Log.iter db.log (fun _ _ -> incr n);
  !n

let run_driver env ctx =
  let k0 = Engine.current_time () in
  let report, s =
    timed (fun () -> span env ~fiber:(fiber ()) "Driver.run" (fun () -> Reorg.Driver.run ctx))
  in
  (report, s, Engine.current_time () - k0)

(* Restart after [Db.crash_now], then let the relaunched reorganizer finish
   whatever restart says is left. *)
let restart env (db : Db.t) ~config =
  Gc.compact ();
  let (ctx, outcome), s =
    timed (fun () ->
        span env ~fiber:(-1) "Recovery.restart" (fun () ->
            Reorg.Recovery.restart ~access:db.access ~config ()))
  in
  let eng = Engine.create () in
  Engine.spawn eng ~name:"resume" (fun () ->
      ignore (Reorg.Recovery.resume_reorganization ctx outcome : Reorg.Driver.report option));
  Engine.run eng;
  Db.flush_all db;
  (outcome, s)

(* The recovery layer, summed over the crashes of one iteration. *)
let recovery_layers crashes =
  let sum f = float_of_int (List.fold_left (fun n c -> n + f c) 0 crashes) in
  Reorg.Recovery.
    [
      ("recovery.redo_applied", sum (fun (o, _) -> o.redo_applied));
      ("recovery.losers_undone", sum (fun (o, _) -> o.losers_undone));
      ("recovery.units_finished", sum (fun (o, _) -> o.units_finished));
      ("recovery.torn_pages", sum (fun (o, _) -> o.torn_pages));
      ("recovery.log_records_at_crash", sum snd);
    ]

(* The machine dies as soon as the measured phase ends, and every
   acknowledged commit must come back; then it dies again right after each
   restart, [size.restarts] times in all.  The recovery layer counts the
   first restart, the one with work left by the run. *)
let crash_at_end env acc (db : Db.t) shadow ~config =
  let cycle i =
    Db.crash_now db;
    let log_records = stable_records db in
    let outcome, s = restart env db ~config in
    verify acc db shadow ~attempted:None (Printf.sprintf "after restart %d" i);
    (s, (outcome, log_records))
  in
  let cycles = List.init env.size.restarts (fun i -> cycle (i + 1)) in
  (List.map fst cycles, recovery_layers [ snd (List.hd cycles) ])

let no_group_commit = { Wal.Group_commit.batches = 0; coalesced = 0; max_batch = 0 }

let check_switched acc (report : Reorg.Driver.report) =
  if not report.switched then fail acc "the reorganization did not switch to the new tree"

(* ------------------------------------------------------------------ *)
(* reorg-online                                                        *)
(* ------------------------------------------------------------------ *)

(* The paper's scenario: a full three-pass reorganization of an aged sparse
   tree, much larger than the buffer pool, under eight clients that stop
   when the switch completes. *)
let build_online env () =
  Sim.Scenario.aged ~seed:env.seed ~n:env.size.online_n ~f1:0.3 ~leaf_pages:env.size.leaf_pages
    ?capacity:env.size.online_capacity ()

let reorg_online env =
  let n = env.size.online_n in
  let (db, base), setup_s = setup env (build_online env) in
  let shadow = Shadow.create base and acc = new_acc () in
  let reg = Obs.Registry.create () in
  Db.register_obs db reg;
  let config = Reorg.Config.default in
  let ctx = Reorg.Ctx.make ~registry:reg ?tracer:env.spans ~access:db.access ~config () in
  let eng = Engine.create () in
  Engine.register_obs eng reg;
  let before = Layers.snapshot reg db in
  let reorg = ref None in
  Engine.spawn eng ~name:"reorganizer" (fun () -> reorg := Some (run_driver env ctx));
  let clients =
    {
      users = 8;
      mix = { read = 0.7; scan = 0.1; insert = 0.1; delete = 0.1 };
      ops_per_user = None;
      key_space = 2 * n;
      scan_keys = 64;
      attempted_keys = None;
    }
  in
  ignore (spawn_clients env eng acc shadow db clients ~stop:(fun () -> !reorg <> None) : int ref);
  let (), phase_s = timed (fun () -> Engine.run eng) in
  let after = Layers.snapshot reg db in
  let report, reorg_s, reorg_ticks = Option.get !reorg in
  check_switched acc report;
  verify acc db shadow ~attempted:None "after the reorganization";
  let layers =
    Layers.delta reg ~before ~after ~ops:acc.committed ~write_commits:acc.write_commits
      ~group_commit:no_group_commit db
  in
  let space_amp = space_amp db in
  let restarts, recovery = crash_at_end env acc db shadow ~config in
  {
    setups = [ setup_s ];
    phases = [ phase_s ];
    reorgs = [ reorg_s ];
    reorg_ticks;
    restarts;
    space_amp;
    acc;
    layers = layers @ recovery;
  }

(* ------------------------------------------------------------------ *)
(* oltp-resident                                                       *)
(* ------------------------------------------------------------------ *)

(* The user path alone: a denser tree that fits the pool, optimistic reads,
   group commit with elevator writeback and fuzzy checkpoints, and a fixed
   number of operations per client.  Once the clients are done the machine
   crashes and restarts, and the reorganizer then compacts what the
   clients left, with nobody else running. *)
let build_oltp env () =
  let leaf_pages = env.size.leaf_pages in
  Sim.Scenario.aged ~seed:env.seed ~n:env.size.oltp_n ~f1:0.7 ~leaf_pages ~capacity:(2 * leaf_pages)
    ()

let oltp_resident env =
  let n = env.size.oltp_n in
  let (db, base), setup_s = setup env (build_oltp env) in
  Access.set_olc db.access true;
  let shadow = Shadow.create base and acc = new_acc () in
  let reg = Obs.Registry.create () in
  Db.register_obs db reg;
  let eng = Engine.create () in
  Engine.register_obs eng reg;
  let before = Layers.snapshot reg db in
  let clients =
    {
      users = 8;
      mix = { read = 0.6; scan = 0.1; insert = 0.15; delete = 0.15 };
      ops_per_user = Some env.size.oltp_ops;
      key_space = 2 * n;
      scan_keys = 64;
      attempted_keys = None;
    }
  in
  let finished = spawn_clients env eng acc shadow db clients ~stop:(fun () -> false) in
  let pipe =
    Sim.Pipeline.attach ~ckpt_every:500 eng db ~stop:(fun () -> !finished = clients.users)
  in
  let (), phase_s =
    timed (fun () ->
        Fun.protect ~finally:(fun () -> Sim.Pipeline.detach pipe) (fun () -> Engine.run eng))
  in
  let after = Layers.snapshot reg db in
  verify acc db shadow ~attempted:None "after the clients";
  let layers =
    Layers.delta reg ~before ~after ~ops:acc.committed ~write_commits:acc.write_commits
      ~group_commit:(Sim.Pipeline.stats pipe) db
  in
  let space_amp = space_amp db in
  let config = Reorg.Config.default in
  let restarts, recovery = crash_at_end env acc db shadow ~config in
  let ctx = Reorg.Ctx.make ?tracer:env.spans ~access:db.access ~config () in
  let eng = Engine.create () in
  let reorg = ref None in
  Engine.spawn eng ~name:"reorganizer" (fun () -> reorg := Some (run_driver env ctx));
  Engine.run eng;
  let report, reorg_s, reorg_ticks = Option.get !reorg in
  check_switched acc report;
  verify acc db shadow ~attempted:None "after the maintenance reorganization";
  {
    setups = [ setup_s ];
    phases = [ phase_s ];
    reorgs = [ reorg_s ];
    reorg_ticks;
    restarts;
    space_amp;
    acc;
    layers = layers @ recovery;
  }

(* ------------------------------------------------------------------ *)
(* crash-restart                                                       *)
(* ------------------------------------------------------------------ *)

(* A reorganization without pass 2 under four inserting clients, first run
   to the end (the reference run, which gives the boundary counts and the
   client-side figures), then crashed at a fixed, seeded set of page-write
   and log-force boundaries, each followed by a timed restart and a full
   verification. *)
let build_crash env faults () =
  Sim.Scenario.aged ~faults ~seed:env.seed ~n:env.size.crash_n ~f1:0.3
    ~leaf_pages:env.size.leaf_pages ()

let crash_restart env =
  let n = env.size.crash_n in
  let config = { Reorg.Config.default with swap_pass = false } in
  let build = build_crash env in
  let clients attempted =
    {
      users = 4;
      mix = { read = 0.4; scan = 0.1; insert = 0.5; delete = 0.0 };
      ops_per_user = None;
      key_space = 2 * n;
      scan_keys = 64;
      attempted_keys = Some attempted;
    }
  in
  let forward env ?registry ?tracer (db : Db.t) shadow attempted acc =
    let ctx = Reorg.Ctx.make ?registry ?tracer ~access:db.access ~config () in
    let eng = Engine.create () in
    Option.iter (Engine.register_obs eng) registry;
    let reorg = ref None in
    Engine.spawn eng ~name:"reorganizer" (fun () -> reorg := Some (run_driver env ctx));
    ignore
      (spawn_clients env eng acc shadow db (clients attempted) ~stop:(fun () -> !reorg <> None)
        : int ref);
    let (), phase_s = timed (fun () -> Engine.run eng) in
    (Option.get !reorg, phase_s)
  in
  (* The reference run. *)
  let faults = Pager.Fault.create () in
  let (db, base), setup_s = setup env (build faults) in
  let shadow = Shadow.create base and attempted = Hashtbl.create 1024 and acc = new_acc () in
  let reg = Obs.Registry.create () in
  Db.register_obs db reg;
  let before = Layers.snapshot reg db and forced0 = (Wal.Log.stats db.log).forced in
  let (report, reorg_s, reorg_ticks), phase_s =
    forward env ~registry:reg ?tracer:env.spans db shadow attempted acc
  in
  let after = Layers.snapshot reg db in
  (* Write-back is part of the boundary space, as in [Sim.Torture]. *)
  Db.flush_all db;
  let writes = (Pager.Disk.stats db.disk).writes - before.disk.writes
  and forces = (Wal.Log.stats db.log).forced - forced0 in
  check_switched acc report;
  verify acc db shadow ~attempted:(Some attempted) "after the reference run";
  let layers =
    Layers.delta reg ~before ~after ~ops:acc.committed ~write_commits:acc.write_commits
      ~group_commit:no_group_commit db
  in
  let space_amp = space_amp db in
  let cycles = new_acc () in
  (* The reference run again, on fresh copies of the database: a single run
     is a tenth of a second, too short for a steady median on its own.
     Each repeat must reproduce the first run's tick and count figures.  The
     repeats are never traced: in a traced iteration only the first run's
     wall times are traced ones. *)
  let setups = ref [ setup_s ] and phases = ref [ phase_s ] and reorgs = ref [ reorg_s ] in
  let quiet = { env with spans = None } in
  for r = 2 to env.size.reference_runs do
    let (db, base), s = setup quiet (build (Pager.Fault.create ())) in
    setups := s :: !setups;
    let shadow = Shadow.create base and attempted = Hashtbl.create 1024 and again = new_acc () in
    let (report, rs, ticks), ps = forward quiet db shadow attempted again in
    let label = Printf.sprintf "reference run %d" r in
    check_switched again report;
    verify again db shadow ~attempted:(Some attempted) label;
    let figures a =
      (a.attempted, a.committed, a.aborts, List.map Samples.to_array [ a.read_t; a.write_t; a.scan_t ])
    in
    if ticks <> reorg_ticks || figures again <> figures acc then
      fail again (label ^ ": tick or count figures differ from the first");
    add_counts cycles again;
    phases := ps :: !phases;
    reorgs := rs :: !reorgs
  done;
  (* The crash points: even fractions of each boundary space, write and
     force points alternating, torn or not by the seed. *)
  let restarts = ref [] and crashes = ref [] in
  for j = 1 to env.size.crash_points do
    let prng = Util.Rng.create ((env.seed * 31) + j) in
    let at total = max 1 (total * j / (env.size.crash_points + 1)) in
    let plan =
      let torn = Util.Rng.bool prng and seed = env.seed + j in
      let open Pager.Fault in
      if j land 1 = 1 then
        { no_faults with crash_after_writes = Some (at writes); torn_write = torn; seed }
      else { no_faults with crash_after_forces = Some (at forces); torn_tail = torn; seed }
    in
    let label = Printf.sprintf "crash point %d" j in
    let faults = Pager.Fault.create () in
    let (db, base), s = setup env (build faults) in
    setups := s :: !setups;
    let shadow = Shadow.create base and attempted = Hashtbl.create 1024 in
    Pager.Fault.arm faults plan;
    match
      ignore (forward env db shadow attempted cycles);
      Db.flush_all db
    with
    | () -> fail cycles (label ^ ": the crash point was never reached")
    | exception Pager.Fault.Crash ->
      Db.crash_now db;
      let log_records = stable_records db in
      let outcome, rs = restart env db ~config in
      restarts := rs :: !restarts;
      crashes := (outcome, log_records) :: !crashes;
      verify cycles db shadow ~attempted:(Some attempted) label
  done;
  add_counts acc cycles;
  {
    setups = List.rev !setups;
    phases = List.rev !phases;
    reorgs = List.rev !reorgs;
    reorg_ticks;
    restarts = List.rev !restarts;
    space_amp;
    acc;
    layers = layers @ recovery_layers (List.rev !crashes);
  }

(* Each workload with its database build, which [Main] also times on
   its own to collect more set-up samples. *)
let all =
  [
    ("reorg-online", ((fun env -> ignore (build_online env ())), reorg_online));
    ("oltp-resident", ((fun env -> ignore (build_oltp env ())), oltp_resident));
    ( "crash-restart",
      ((fun env -> ignore (build_crash env (Pager.Fault.create ()) ())), crash_restart) );
  ]
