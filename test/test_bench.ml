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

(* ------------------------------------------------------------------ *)
(* bench compare                                                       *)
(* ------------------------------------------------------------------ *)

let with_micro l d =
  match d with
  | J.Obj fields ->
    J.Obj (fields @ [ ("micro_ns_per_run", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) l)) ])
  | d -> d

let diffs old new_ =
  List.map
    (fun (e, p, a, b) -> (e ^ " " ^ p, Bench_check.show a, Bench_check.show b))
    (Bench_check.diff ~old ~new_).Bench_check.diffs

let triples = Alcotest.(list (triple string string string))

let test_compare_identical () =
  let c = Bench_check.diff ~old:base ~new_:base in
  Alcotest.check triples "no differences" [] (diffs base base);
  Alcotest.(check (list string)) "every experiment compared, in OLD's order"
    [ "concurrency"; "health"; "shard"; "groupcommit"; "olc" ] c.Bench_check.common;
  let ok, lines = Bench_check.report c in
  Alcotest.(check bool) "ok" true ok;
  Alcotest.(check string) "summary"
    "bench compare OK: deterministic figures identical in 5 experiments"
    (List.nth lines (List.length lines - 1))

(* Wall-clock is reported as a ratio and never makes a difference. *)
let test_compare_wall_clock_ungated () =
  let slow =
    base
    |> set (exp "shard" [ `K "wall_clock_s" ]) (J.Float 2.0)
    |> with_micro [ ("page.checksum (512 B)", 400.0); ("old only", 1.0) ]
  in
  let fast = base |> with_micro [ ("page.checksum (512 B)", 100.0) ] in
  let c = Bench_check.diff ~old:slow ~new_:fast in
  Alcotest.check triples "no differences" [] (diffs slow fast);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "shard wall clock" (Some (2.0, 0.5))
    (List.find_map (fun (e, a, b) -> if e = "shard" then Some (a, b) else None) c.Bench_check.wall);
  Alcotest.(check (list (triple string (float 0.0) (float 0.0)))) "micro in both files"
    [ ("page.checksum (512 B)", 400.0, 100.0) ] c.Bench_check.micro;
  Alcotest.(check bool) "ok" true (fst (Bench_check.report c))

(* One changed counter, one changed scalar, one changed timeseries value:
   each is named by experiment and path, arms by label. *)
let test_compare_names_differences () =
  let changed =
    base
    |> counter "olc" "olc" "olc.reads" 2380
    |> scalar "shard" "shards=4/shard=2" "ticks" 23
    |> set (exp "health" [ `K "timeseries"; `I 1; `K "utilization" ]) (J.Float 0.75)
  in
  Alcotest.check triples "differences, by experiment in OLD's order"
    [
      ("health timeseries[1].utilization", "0.7", "0.75");
      ("shard arms[shards=4/shard=2].scalars.ticks", "24", "23");
      ("olc arms[olc].counters.olc.reads", "2379", "2380");
    ]
    (diffs base changed);
  let ok, lines = Bench_check.report (Bench_check.diff ~old:base ~new_:changed) in
  Alcotest.(check bool) "not ok" false ok;
  Alcotest.(check bool) "delta shown" true
    (List.mem "DIFF olc arms[olc].counters.olc.reads: 2379 -> 2380 (+1)" lines);
  Alcotest.(check string) "summary"
    "bench compare FAILED: 3 differences in 3 of 5 experiments (health olc shard)"
    (List.nth lines (List.length lines - 1))

(* A figure on one side only differs; an experiment on one side only is
   listed and not compared; numbers compare by value. *)
let test_compare_presence () =
  let add_total k v = function
    | J.Obj f -> J.Obj (f @ [ (k, J.Int v) ])
    | x -> x
  in
  let grown = update (exp "concurrency" [ `K "totals" ]) (add_total "disk.writes" 3) base in
  Alcotest.check triples "new counter" [ ("concurrency totals.disk.writes", "absent", "3") ]
    (diffs base grown);
  Alcotest.check triples "dropped counter" [ ("concurrency totals.disk.writes", "3", "absent") ]
    (diffs grown base);
  let fewer =
    update [ `K "experiments" ]
      (function J.Obj f -> J.Obj (List.remove_assoc "health" f) | x -> x)
      base
  in
  let changed_health = set (exp "health" [ `K "timeseries" ]) (J.List []) base in
  let c = Bench_check.diff ~old:changed_health ~new_:fewer in
  Alcotest.(check int) "health not compared" 0 (List.length c.Bench_check.diffs);
  Alcotest.(check (list string)) "only in OLD" [ "health" ] c.Bench_check.only_old;
  let as_float = set (exp "olc" [ `K "arms"; `L "olc"; `K "counters"; `K "olc.reads" ]) (J.Float 2379.0) base in
  Alcotest.check triples "2379 = 2379.0" [] (diffs base as_float)

let test_compare_schema () =
  match Bench_check.diff ~old:(set [ `K "schema_version" ] (J.Int 5) base) ~new_:base with
  | _ -> Alcotest.fail "a v5 file was compared"
  | exception Bench_check.Fail msg ->
    Alcotest.(check string) "names the version" "schema_version 5, expected 6" msg

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
      ( "compare",
        [
          Alcotest.test_case "identical files" `Quick test_compare_identical;
          Alcotest.test_case "wall clock is not gated" `Quick test_compare_wall_clock_ungated;
          Alcotest.test_case "differences named" `Quick test_compare_names_differences;
          Alcotest.test_case "one-sided figures and experiments" `Quick test_compare_presence;
          Alcotest.test_case "schema checked" `Quick test_compare_schema;
        ] );
    ]
