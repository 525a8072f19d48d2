(* The CI gates over a `bench --json` baseline.  The smoke run in
   ci/check.sh writes a baseline for table1, concurrency, health, shard,
   groupcommit and olc, and `bench check FILE` evaluates every gate below on
   it.  Each gate reads the parsed document and raises [Fail] saying what is
   wrong; [run] evaluates the gates independently and tags each failure with
   the gate's name, so one broken figure names exactly the claim it breaks. *)

module J = Obs.Json

let schema_version = 6

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt
let ensure ok fmt = Printf.ksprintf (fun s -> if not ok then raise (Fail s)) fmt
let field k v = match J.member k v with Some x -> x | None -> fail "missing field %S" k
let int k v = match field k v with J.Int i -> i | _ -> fail "%S is not an integer" k
let num k v = match J.to_float (field k v) with Some x -> x | None -> fail "%S is not a number" k
let list k v = match field k v with J.List l -> l | _ -> fail "%S is not an array" k
let str k v = match field k v with J.String s -> s | _ -> fail "%S is not a string" k
let obj k v = match field k v with J.Obj f -> f | _ -> fail "%S is not an object" k
let experiment d name = field name (field "experiments" d)
let total d exp k = int k (field "totals" (experiment d exp))

(* An arm's declared scalar, else its registry counter (as Sim.Probe.get). *)
let get arm k =
  let scalars = field "scalars" arm in
  if J.member k scalars <> None then int k scalars else int k (field "counters" arm)

(* The two arms of a comparison experiment, which must carry exactly these
   labels. *)
let arm_pair d exp (a, b) =
  let all = list "arms" (experiment d exp) in
  let labels = List.map (str "label") all in
  ensure
    (List.sort compare labels = List.sort compare [ a; b ])
    "%s arms are [%s], expected %s and %s" exp (String.concat ", " labels) a b;
  let find l = List.find (fun arm -> str "label" arm = l) all in
  (find a, find b)

let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* Shard sweep: point arms carry no [shard] scalar; per-shard arms do. *)
let shard_arms d = list "arms" (experiment d "shard")
let is_point arm = J.member "shard" (field "scalars" arm) = None
let points d = List.filter is_point (shard_arms d)
let per_shard d n = List.filter (fun a -> (not (is_point a)) && get a "shards" = n) (shard_arms d)

let makespan d n =
  match List.find_opt (fun p -> get p "shards" = n) (points d) with
  | Some p -> get p "parallel_makespan"
  | None -> fail "sweep has no %d-shard point" n

let series d = list "timeseries" (experiment d "health")
let gc d = arm_pair d "groupcommit" ("sync", "pipelined")
let olc d = arm_pair d "olc" ("locked", "olc")
let seq_ratio a = ratio (get a "disk.seq_writes") (get a "disk.rand_writes")

let gates : (string * (J.t -> unit)) list =
  [
    ( "schema",
      fun d ->
        let v = int "schema_version" d in
        ensure (v = schema_version) "schema_version %d, expected %d" v schema_version );
    ( "revision",
      fun d ->
        let r = str "revision" d in
        match Sys.getenv_opt "BENCH_REV" with
        | Some want -> ensure (r = want) "revision %S, but BENCH_REV is %S" r want
        | None -> () );
    ("experiments", fun d -> ensure (obj "experiments" d <> []) "no experiments recorded");
    ( "concurrency.counters",
      fun d ->
        List.iter
          (fun k ->
            let v = total d "concurrency" k in
            ensure (v > 0) "totals.%s should be positive, got %d" k v)
          [ "disk.reads"; "pager.hits"; "lock.acquires"; "lock.scan_steps"; "sched.time" ];
        ignore (total d "concurrency" "lock.instant_checks") );
    ( "concurrency.wall_clock",
      fun d ->
        let w = num "wall_clock_s" (experiment d "concurrency") in
        ensure (w >= 0.0) "wall_clock_s %g is negative" w );
    ("health.series", fun d -> ensure (series d <> []) "health experiment recorded no timeseries");
    ( "health.clock",
      fun d ->
        ignore
          (List.fold_left
             (fun prev s ->
               let at = int "at" s in
               ensure (at >= prev) "timeseries clock went backwards: %d after %d" at prev;
               at)
             (-1) (series d)) );
    ( "health.ranges",
      fun d ->
        List.iter
          (fun s ->
            List.iter
              (fun k ->
                let v = num k s in
                ensure (v >= 0.0 && v <= 1.0) "%s %g outside [0,1] at tick %d" k v (int "at" s))
              [ "utilization"; "fragmentation" ];
            ensure (int "leaves" s >= 0 && int "backlog" s >= 0) "negative leaves or backlog")
          (series d) );
    ( "health.fired",
      (* An empty series is health.series' failure, not this gate's. *)
      fun d ->
        let s = series d in
        ensure
          (s = [] || List.exists (fun s -> list "fired" s <> []) s)
          "no watch fired across the sparsification run" );
    ( "shard.sweep",
      fun d ->
        ensure (points d <> []) "shard experiment recorded no sweep points";
        List.iter (fun p -> ensure (get p "shards" >= 1) "shard count must be >= 1") (points d) );
    ( "shard.per_shard",
      fun d ->
        List.iter
          (fun p ->
            let n = get p "shards" in
            let ids = List.map (fun a -> get a "shard") (per_shard d n) in
            ensure
              (ids = List.init n Fun.id)
              "%d-shard point has per-shard blocks [%s], expected 0..%d in order" n
              (String.concat "," (List.map string_of_int ids))
              (n - 1))
          (points d) );
    ( "shard.totals",
      fun d ->
        List.iter
          (fun p ->
            let n = get p "shards" in
            let arms = per_shard d n in
            let sum k = List.fold_left (fun acc a -> acc + get a k) 0 arms in
            List.iter
              (fun k ->
                ensure (get p k = sum k) "%d shards: %s is %d, per-shard sum is %d" n k (get p k)
                  (sum k))
              ("ticks" :: List.map fst (obj "counters" p));
            let io = List.fold_left (fun acc a -> acc +. num "io_cost" a) 0.0 arms in
            ensure
              (Float.abs (num "io_cost" p -. io) < 1e-6)
              "%d shards: io_cost %g, per-shard sum %g" n (num "io_cost" p) io)
          (points d) );
    ( "shard.progress",
      fun d ->
        List.iter
          (fun p ->
            ensure
              (get p "parallel_makespan" > 0 && get p "mixed_ticks" > 0)
              "%d shards: zero makespan" (get p "shards");
            ensure (get p "user_committed" > 0) "%d shards: mixed phase committed nothing"
              (get p "shards"))
          (points d) );
    ( "shard.makespan_ratio",
      fun d ->
        let r = ratio (makespan d 4) (makespan d 1) in
        ensure (r <= 0.6) "4-shard makespan ratio %.2f exceeds 0.6" r );
    ("groupcommit.arms", fun d -> ignore (gc d));
    ( "groupcommit.forces",
      fun d ->
        let sync, piped = gc d in
        ensure
          (get piped "wal.forced" < get sync "wal.forced")
          "group commit did not reduce wal.forced: %d vs %d" (get piped "wal.forced")
          (get sync "wal.forced") );
    ( "groupcommit.batching",
      fun d ->
        let _, piped = gc d in
        ensure
          (get piped "batches" > 0 && get piped "coalesced" >= get piped "batches")
          "pipelined arm batched no commits";
        ensure (get piped "max_batch" >= 2) "no force covered more than one commit" );
    ( "groupcommit.sync_unbatched",
      fun d ->
        let sync, _ = gc d in
        ensure (get sync "batches" = 0) "sync arm must not group-commit" );
    ( "groupcommit.seq_writes",
      fun d ->
        let sync, piped = gc d in
        ensure
          (seq_ratio piped > seq_ratio sync)
          "elevator did not improve the seq/rand write ratio: %.3f vs %.3f" (seq_ratio piped)
          (seq_ratio sync) );
    ( "groupcommit.checkpoints",
      fun d ->
        let _, piped = gc d in
        ensure (get piped "checkpoints" > 0) "no fuzzy checkpoint taken";
        ensure (get piped "wal_truncated" > 0) "checkpoints reclaimed no WAL records" );
    ( "groupcommit.commits",
      fun d ->
        let sync, piped = gc d in
        ensure
          (get sync "user_committed" > 0 && get piped "user_committed" > 0)
          "an arm committed no user transactions" );
    ("olc.arms", fun d -> ignore (olc d));
    ( "olc.same_reads",
      fun d ->
        let locked, o = olc d in
        List.iter
          (fun k ->
            ensure
              (get locked k = get o k && get o k > 0)
              "arms did different %s: %d vs %d" k (get locked k) (get o k))
          [ "reads"; "range_scans" ] );
    ( "olc.digest",
      fun d ->
        let locked, o = olc d in
        ensure
          (get locked "digest" = get o "digest")
          "optimistic results diverge from locked results: %08x vs %08x" (get locked "digest")
          (get o "digest") );
    ( "olc.optimistic_reads",
      fun d ->
        let locked, o = olc d in
        ensure (get locked "olc.reads" = 0) "locked arm took the optimistic path";
        ensure (get o "olc.reads" > 0) "olc arm committed no optimistic reads" );
    ( "olc.s_acquires",
      fun d ->
        let locked, o = olc d in
        let s = "lock.acquires.S" in
        let r = ratio (get o s) (get locked s) in
        ensure (r <= 0.30) "olc arm kept %.2fx of the locked arm's S acquires (want <= 0.30x: %d vs %d)"
          r (get o s) (get locked s) );
    ( "olc.fallbacks",
      fun d ->
        let _, o = olc d in
        ensure (get o "olc.fallbacks" > 0) "no optimistic read ever fell back to the locked path" );
    ( "olc.instant_checks",
      fun d ->
        let _, o = olc d in
        ensure (get o "lock.instant_checks" > 0) "no non-enqueuing RX probe recorded" );
    ( "olc.version_bumps",
      fun d ->
        let locked, o = olc d in
        ensure
          (get o "olc.version_bumps" > 0 && get locked "olc.version_bumps" > 0)
          "an arm recorded no version bumps" );
  ]

let run d =
  List.filter_map
    (fun (name, gate) -> match gate d with () -> None | exception Fail msg -> Some (name, msg))
    gates
