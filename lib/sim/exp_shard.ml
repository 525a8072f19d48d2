(* Experiment S1 — keyspace-sharded reorganization scaling.

   One fixed sparse workload (n records thinned to [survive]) is partitioned
   into 1, 2, 4 and 8 keyspace shards.  Each configuration runs two phases:

   - the embarrassingly-parallel phase: one engine per shard, each running
     that shard's reorganizer to completion.  Shards share nothing, so the
     makespan (max per-shard clock) is the aggregate figure a machine running
     them side by side would show — this is the number that must scale.
   - the contended phase: a fresh assembly of the same workload, every
     shard's reorganizer on ONE engine together with cross-shard client
     transactions committing through the shard-ordered 2PL protocol.

   Each sweep point is reported to the ambient Probe collector as one arm
   labelled [shards=N] (the point's figures, and counters summed over its
   shards) followed by one [shards=N/shard=i] arm per shard, read off that
   shard's registry after the parallel phase. *)

let seed = 42
let default_n = 4000
let survive = 0.35
let default_counts = [ 1; 2; 4; 8 ]

let run_point ~n shards =
  (* Phase A: parallel reorganization, engine per shard. *)
  let t, expected = Sharded.thinned ~seed ~n ~survive ~shards () in
  let outcome = Sharded.reorg_parallel t in
  Sharded.check_invariants t;
  if Sharded.contents t <> expected then
    failwith
      (Printf.sprintf "exp_shard: %d-shard parallel phase lost records" shards);
  let per_shard =
    List.mapi
      (fun i st ->
        {
          Probe.label = Printf.sprintf "shards=%d/shard=%d" shards i;
          counters = Probe.counters (Probe.store_registry st);
          scalars = [ ("shards", shards); ("shard", i); ("ticks", outcome.Sharded.ticks.(i)) ];
        })
      (Array.to_list t.Sharded.stores)
  in
  (* Phase B: fresh assembly, reorganizers and cross-shard users contending
     on one engine.  Same total client load at every shard count. *)
  let t2, _ = Sharded.thinned ~seed ~n ~survive ~shards () in
  let mixed, ustats =
    Sharded.reorg_with_users ~users:6 ~user_ops:40 ~seed:(seed + 1) ~key_space:(2 * n) t2
  in
  Sharded.check_invariants t2;
  let point =
    {
      Probe.label = Printf.sprintf "shards=%d" shards;
      counters = Probe.sum (List.map (fun (a : Probe.arm) -> a.Probe.counters) per_shard);
      scalars =
        [ ("shards", shards); ("parallel_makespan", outcome.Sharded.makespan);
          ("mixed_ticks", mixed.Sharded.makespan);
          ("user_committed", ustats.Workload.Mix.committed);
          ("user_aborted", ustats.Workload.Mix.aborted);
          ("ticks", outcome.Sharded.total_ticks) ];
    }
  in
  (point, per_shard)

let run_points ~n counts = List.map (run_point ~n) counts

let run () =
  let points = run_points ~n:default_n default_counts in
  Probe.note (List.concat_map (fun (p, per_shard) -> p :: per_shard) points);
  let makespan p = Probe.get p "parallel_makespan" in
  let base = match points with (p, _) :: _ -> float_of_int (makespan p) | [] -> 1.0 in
  let table =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "S1 — keyspace-sharded reorganization: %d records thinned to %.0f%%,\n\
            partitioned across N shards (parallel phase: engine per shard;\n\
            mixed phase: shared engine + 6 cross-shard 2PL users)"
           default_n (100.0 *. survive))
      [ ("shards", Util.Table.Right); ("makespan", Util.Table.Right);
        ("speedup", Util.Table.Right); ("total ticks", Util.Table.Right);
        ("io cost", Util.Table.Right); ("mixed ticks", Util.Table.Right);
        ("committed", Util.Table.Right); ("aborted", Util.Table.Right) ]
  in
  List.iter
    (fun (p, per_shard) ->
      let io =
        List.fold_left (fun acc (a : Probe.arm) -> acc +. Probe.io_cost a.Probe.counters) 0.0
          per_shard
      in
      let g = Probe.get p in
      Util.Table.add_row table
        [ string_of_int (g "shards");
          string_of_int (makespan p);
          Printf.sprintf "%.2fx" (base /. float_of_int (makespan p));
          string_of_int (g "ticks");
          Printf.sprintf "%.0f" io;
          string_of_int (g "mixed_ticks");
          string_of_int (g "user_committed");
          string_of_int (g "user_aborted") ])
    points;
  table

(* The parts of the sweep a test (or CI) wants to assert on. *)
type outcome = {
  o_points : (Probe.arm * Probe.arm list) list;  (** per point: its arm and its per-shard arms *)
  o_makespan_1 : int;  (** 1-shard parallel makespan *)
  o_makespan_4 : int;  (** 4-shard parallel makespan; criterion: <= 0.6x *)
}

let run_outcome ?(n = 2000) () =
  let points = run_points ~n [ 1; 4 ] in
  let find c =
    match List.find_opt (fun (p, _) -> Probe.get p "shards" = c) points with
    | Some (p, _) -> Probe.get p "parallel_makespan"
    | None -> failwith "exp_shard: missing sweep point"
  in
  { o_points = points; o_makespan_1 = find 1; o_makespan_4 = find 4 }
