(* The CI gates of `bench check`: a hand-built schema-v6 baseline passes
   every gate, and for each gate one edit of that baseline breaks exactly
   that gate — which must fail and name itself. *)

module J = Obs.Json

let ints l = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) l)

let arm label ?(io = 0.0) scalars counters =
  J.Obj
    [
      ("label", J.String label); ("io_cost", J.Float io); ("scalars", ints scalars);
      ("counters", ints counters);
    ]

(* A sweep point arm followed by its per-shard arms; the point's counters,
   ticks and io_cost are the per-shard sums, as Sim.Exp_shard reports them.
   [ticks] has one entry per per-shard arm written. *)
let shard_point n ticks =
  let per =
    List.mapi
      (fun i t ->
        arm (Printf.sprintf "shards=%d/shard=%d" n i) ~io:110.
          [ ("shards", n); ("shard", i); ("ticks", t) ]
          [ ("disk.reads", 10); ("lock.acquires", 7) ])
      ticks
  in
  let k = List.length ticks in
  arm (Printf.sprintf "shards=%d" n) ~io:(110. *. float_of_int k)
    [ ("shards", n); ("parallel_makespan", List.fold_left max 0 ticks); ("mixed_ticks", 900);
      ("user_committed", 100); ("user_aborted", 0); ("ticks", List.fold_left ( + ) 0 ticks) ]
    [ ("disk.reads", 10 * k); ("lock.acquires", 7 * k) ]
  :: per

let snap at util fired =
  J.Obj
    [
      ("at", J.Int at); ("leaves", J.Int 40); ("utilization", J.Float util);
      ("fragmentation", J.Float 0.3); ("backlog", J.Int 0);
      ("fired", J.List (List.map (fun s -> J.String s) fired));
    ]

let gc_arm label ~forced ~batches ~max_batch ~ckpts ~seq =
  arm label
    [ ("batches", batches); ("coalesced", batches + 40); ("max_batch", max_batch);
      ("checkpoints", ckpts); ("wal_truncated", 3000); ("user_committed", 300) ]
    [ ("wal.forced", forced); ("disk.seq_writes", seq); ("disk.rand_writes", 380) ]

let olc_arm label ~s ~olc_reads ~fallbacks ~probes =
  arm label
    [ ("reads", 2250); ("range_scans", 150); ("digest", 213585003) ]
    [ ("lock.acquires.S", s); ("olc.reads", olc_reads); ("olc.fallbacks", fallbacks);
      ("olc.version_bumps", 1900); ("lock.instant_checks", probes) ]

let base =
  let exp fields = J.Obj (("wall_clock_s", J.Float 0.5) :: fields) in
  J.Obj
    [
      ("schema_version", J.Int 6); ("revision", J.String "test");
      ( "experiments",
        J.Obj
          [
            ( "concurrency",
              exp
                [
                  ( "totals",
                    ints
                      [ ("disk.reads", 5); ("lock.acquires", 5); ("lock.instant_checks", 0);
                        ("lock.scan_steps", 5); ("pager.hits", 5); ("sched.time", 5) ] );
                ] );
            ( "health",
              exp [ ("timeseries", J.List [ snap 10 0.45 [ "util<0.55" ]; snap 35 0.7 [] ]) ] );
            ( "shard",
              exp [ ("arms", J.List (shard_point 1 [ 100 ] @ shard_point 4 [ 26; 25; 24; 26 ])) ] );
            ( "groupcommit",
              exp
                [
                  ( "arms",
                    J.List
                      [
                        gc_arm "sync" ~forced:243 ~batches:0 ~max_batch:0 ~ckpts:0 ~seq:100;
                        gc_arm "pipelined" ~forced:147 ~batches:98 ~max_batch:4 ~ckpts:9 ~seq:180;
                      ] );
                ] );
            ( "olc",
              exp
                [
                  ( "arms",
                    J.List
                      [
                        olc_arm "locked" ~s:7575 ~olc_reads:0 ~fallbacks:0 ~probes:0;
                        olc_arm "olc" ~s:77 ~olc_reads:2379 ~fallbacks:21 ~probes:2743;
                      ] );
                ] );
          ] );
    ]

(* Functional update at a path: [`K] selects an object field, [`L] the arms
   with that label, [`I] an array element. *)
let rec update path f v =
  match (path, v) with
  | [], v -> f v
  | `K k :: rest, J.Obj fields ->
    J.Obj (List.map (fun (k', x) -> (k', if k' = k then update rest f x else x)) fields)
  | `L l :: rest, J.List xs ->
    J.List
      (List.map (fun a -> if J.member "label" a = Some (J.String l) then update rest f a else a) xs)
  | `I i :: rest, J.List xs -> J.List (List.mapi (fun j x -> if j = i then update rest f x else x) xs)
  | _ -> invalid_arg "update: path does not fit the document"

let set path x = update path (fun _ -> x)
let exp name rest = `K "experiments" :: `K name :: rest
let scalar name label k v = set (exp name [ `K "arms"; `L label; `K "scalars"; `K k ]) (J.Int v)
let counter name label k v = set (exp name [ `K "arms"; `L label; `K "counters"; `K k ]) (J.Int v)
let gate_names = List.map fst Bench_check.gates
let with_prefix p = List.filter (fun g -> String.starts_with ~prefix:p g) gate_names

(* (gate, edit of [base], every gate the edited document must fail).  Most
   edits break their gate alone; removing every experiment or renaming an
   arm necessarily breaks each gate that reads it. *)
let cases =
  [
    ("schema", set [ `K "schema_version" ] (J.Int 5), [ "schema" ]);
    ("revision", set [ `K "revision" ] (J.String "other"), [ "revision" ]);
    ( "experiments",
      set [ `K "experiments" ] (J.Obj []),
      List.filter (fun g -> g <> "schema" && g <> "revision") gate_names );
    ( "concurrency.counters",
      set (exp "concurrency" [ `K "totals"; `K "pager.hits" ]) (J.Int 0),
      [ "concurrency.counters" ] );
    ( "concurrency.wall_clock",
      set (exp "concurrency" [ `K "wall_clock_s" ]) (J.Float (-1.0)),
      [ "concurrency.wall_clock" ] );
    ("health.series", set (exp "health" [ `K "timeseries" ]) (J.List []), [ "health.series" ]);
    ( "health.clock",
      set (exp "health" [ `K "timeseries"; `I 1; `K "at" ]) (J.Int 5),
      [ "health.clock" ] );
    ( "health.ranges",
      set (exp "health" [ `K "timeseries"; `I 1; `K "utilization" ]) (J.Float 1.2),
      [ "health.ranges" ] );
    ( "health.fired",
      set (exp "health" [ `K "timeseries"; `I 0; `K "fired" ]) (J.List []),
      [ "health.fired" ] );
    ( "shard.sweep",
      update
        (exp "shard" [ `K "arms" ])
        (function
          | J.List l ->
            J.List
              (l
              @ [
                  arm "shards=0"
                    [ ("shards", 0); ("parallel_makespan", 1); ("mixed_ticks", 1);
                      ("user_committed", 1); ("user_aborted", 0); ("ticks", 0) ]
                    [];
                ])
          | v -> v),
      [ "shard.sweep" ] );
    ( "shard.per_shard",
      set
        (exp "shard" [ `K "arms" ])
        (J.List (shard_point 1 [ 100 ] @ shard_point 4 [ 26; 25; 24 ])),
      [ "shard.per_shard" ] );
    ("shard.totals", counter "shard" "shards=4" "disk.reads" 41, [ "shard.totals" ]);
    ("shard.progress", scalar "shard" "shards=1" "mixed_ticks" 0, [ "shard.progress" ]);
    ( "shard.makespan_ratio",
      scalar "shard" "shards=4" "parallel_makespan" 61,
      [ "shard.makespan_ratio" ] );
    ( "groupcommit.arms",
      set (exp "groupcommit" [ `K "arms"; `L "pipelined"; `K "label" ]) (J.String "piped"),
      with_prefix "groupcommit." );
    ( "groupcommit.forces",
      counter "groupcommit" "pipelined" "wal.forced" 243,
      [ "groupcommit.forces" ] );
    ( "groupcommit.batching",
      scalar "groupcommit" "pipelined" "max_batch" 1,
      [ "groupcommit.batching" ] );
    ( "groupcommit.sync_unbatched",
      scalar "groupcommit" "sync" "batches" 1,
      [ "groupcommit.sync_unbatched" ] );
    ( "groupcommit.seq_writes",
      counter "groupcommit" "pipelined" "disk.seq_writes" 100,
      [ "groupcommit.seq_writes" ] );
    ( "groupcommit.checkpoints",
      scalar "groupcommit" "pipelined" "wal_truncated" 0,
      [ "groupcommit.checkpoints" ] );
    ( "groupcommit.commits",
      scalar "groupcommit" "sync" "user_committed" 0,
      [ "groupcommit.commits" ] );
    ( "olc.arms",
      set (exp "olc" [ `K "arms"; `L "olc"; `K "label" ]) (J.String "optimistic"),
      with_prefix "olc." );
    ("olc.same_reads", scalar "olc" "olc" "range_scans" 149, [ "olc.same_reads" ]);
    ("olc.digest", scalar "olc" "olc" "digest" 213585004, [ "olc.digest" ]);
    ("olc.optimistic_reads", counter "olc" "locked" "olc.reads" 1, [ "olc.optimistic_reads" ]);
    ("olc.s_acquires", counter "olc" "olc" "lock.acquires.S" 2273, [ "olc.s_acquires" ]);
    ("olc.fallbacks", counter "olc" "olc" "olc.fallbacks" 0, [ "olc.fallbacks" ]);
    ("olc.instant_checks", counter "olc" "olc" "lock.instant_checks" 0, [ "olc.instant_checks" ]);
    ( "olc.version_bumps",
      counter "olc" "locked" "olc.version_bumps" 0,
      [ "olc.version_bumps" ] );
  ]

let test_base_passes () =
  Alcotest.(check (list (pair string string))) "no gate fails" [] (Bench_check.run base)

let test_every_gate_has_a_case () =
  List.iter
    (fun g ->
      Alcotest.(check bool) (Printf.sprintf "gate %s has a breaking case" g) true
        (List.exists (fun (c, _, _) -> c = g) cases))
    gate_names

let test_case_breaks (gate, edit, expected) () =
  let failed = List.map fst (Bench_check.run (edit base)) in
  Alcotest.(check (list string)) (Printf.sprintf "gates failing after breaking %s" gate) expected
    failed

(* A bound sits exactly at its threshold: 0.6 and 0.30 themselves pass. *)
let test_bounds_inclusive () =
  let at_bounds =
    base
    |> scalar "shard" "shards=4" "parallel_makespan" 60
    |> fun d ->
    update (exp "shard" [ `K "arms"; `L "shards=4/shard=0"; `K "scalars"; `K "ticks" ])
      (fun _ -> J.Int 60)
      d
    |> scalar "shard" "shards=4" "ticks" (60 + 25 + 24 + 26)
    |> counter "olc" "olc" "lock.acquires.S" 2272
    |> counter "olc" "locked" "lock.acquires.S" 7575
  in
  Alcotest.(check (list (pair string string))) "bounds are inclusive" []
    (Bench_check.run at_bounds)

let () =
  Unix.putenv "BENCH_REV" "test";
  Alcotest.run "bench"
    [
      ( "check",
        Alcotest.test_case "valid baseline passes" `Quick test_base_passes
        :: Alcotest.test_case "every gate has a case" `Quick test_every_gate_has_a_case
        :: Alcotest.test_case "bounds inclusive" `Quick test_bounds_inclusive
        :: List.map
             (fun ((g, _, _) as c) -> Alcotest.test_case ("breaks " ^ g) `Quick (test_case_breaks c))
             cases );
    ]
