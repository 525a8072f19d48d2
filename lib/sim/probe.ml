(* Ambient per-experiment stat collector.

   Experiments build their databases and engines internally (often several of
   each: ours vs. Tandem vs. offline arms), so the benchmark harness cannot
   reach the components to read their counters.  Instead, a collector is made
   ambient for the duration of one experiment: the store-assembly and engine
   creation hooks give every component set its own registry, and at the end
   the collector sums every registry by name — totals over all arms, which is
   the right unit for regression tracking (the arms are part of the
   experiment's work). *)

type counters = (string * int) list

type arm = { label : string; counters : counters; scalars : (string * int) list }

type sample = {
  totals : counters;
  engines : int;
  timeseries : Obs.Health.Sampler.snapshot list;
  arms : arm list;
}

type state = {
  mutable regs : Obs.Registry.t list;
  mutable engines : int;
  mutable tseries : Obs.Health.Sampler.snapshot list; (* reversed *)
  mutable noted : arm list; (* reversed *)
}

let current : state option ref = ref None

let note arms =
  match !current with None -> () | Some c -> c.noted <- List.rev_append arms c.noted

let note_timeseries snaps =
  match !current with None -> () | Some c -> c.tseries <- List.rev_append snaps c.tseries

let store_registry (st : Shard.Store.t) =
  let reg = Obs.Registry.create () in
  Pager.Disk.register_obs st.Shard.Store.disk reg;
  Pager.Buffer_pool.register_obs st.Shard.Store.pool reg;
  Lockmgr.Lock_mgr.register_obs st.Shard.Store.locks reg;
  Wal.Log.register_obs st.Shard.Store.log reg;
  Btree.Olc.register_obs (Btree.Tree.olc st.Shard.Store.tree) reg;
  reg

let counters reg =
  List.filter_map
    (fun (name, _) -> Option.map (fun v -> (name, v)) (Obs.Registry.value reg name))
    (Obs.Registry.sorted reg)

module M = Map.Make (String)

let sum lists =
  let add m (k, v) = M.update k (fun o -> Some (v + Option.value o ~default:0)) m in
  M.bindings (List.fold_left (List.fold_left add) M.empty lists)

let diff after before = sum [ after; List.map (fun (k, v) -> (k, -v)) before ]

let get a k =
  match List.assoc_opt k a.scalars with Some v -> v | None -> List.assoc k a.counters

let io_cost c =
  let g k = Option.value (List.assoc_opt k c) ~default:0 in
  Pager.Disk.io_cost
    {
      Pager.Disk.reads = g "disk.reads";
      writes = g "disk.writes";
      seq_reads = g "disk.seq_reads";
      rand_reads = g "disk.rand_reads";
      seq_writes = g "disk.seq_writes";
      rand_writes = g "disk.rand_writes";
    }

let with_collector f =
  (match !current with
  | Some _ -> invalid_arg "Probe.with_collector: collector already active"
  | None -> ());
  let c = { regs = []; engines = 0; tseries = []; noted = [] } in
  current := Some c;
  (* Register by id so hooks installed by anyone else stay in place. *)
  let hook =
    Sched.Engine.add_create_hook (fun e ->
        let reg = Obs.Registry.create () in
        Sched.Engine.register_obs e reg;
        c.regs <- reg :: c.regs;
        c.engines <- c.engines + 1)
  in
  let store_hook = Shard.Store.add_assemble_hook (fun st -> c.regs <- store_registry st :: c.regs) in
  Fun.protect
    ~finally:(fun () ->
      current := None;
      Sched.Engine.remove_create_hook hook;
      Shard.Store.remove_assemble_hook store_hook)
    (fun () ->
      let r = f () in
      ( r,
        {
          totals = sum (List.map counters c.regs);
          engines = c.engines;
          timeseries = List.rev c.tseries;
          arms = List.rev c.noted;
        } ))
