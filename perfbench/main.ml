(* The repository benchmark: one workload per invocation, repeated until the
   measuring time is spent, with every result checked.

     main.exe --workload reorg-online --seed 1 --seconds 20 --trace 0

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  [--trace 0] reports the
   end-to-end metrics, [--trace 1] the per-layer ones (and runs a traced
   iteration next to each untraced one).  The exit code is 1 when any
   output check failed, 2 on a usage error. *)

module W = Workloads

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile samples p =
  let xs = Array.map float_of_int (W.Samples.to_array samples) in
  if Array.length xs = 0 then 0.0 else Util.Stats.percentile xs p

let ops_per_s (i : W.iteration) = List.map (fun p -> float_of_int i.acc.committed /. p) i.phases
let reorgs (i : W.iteration) = i.reorgs

(* Metric name, unit, and where it comes from.  Tick and count metrics are
   deterministic for a seed; wall-clock ones are medians over iterations. *)
let end_to_end (its : W.iteration list) ~setups ~heap_words =
  let first = List.hd its in
  let a = first.acc in
  [
    ("setup_s", "s", median (List.concat_map (fun (i : W.iteration) -> i.setups) its @ setups));
    ("ops_per_s", "1/s", median (List.concat_map ops_per_s its));
    ("read_p50_ticks", "ticks", percentile a.read_t 50.0);
    ("read_p99_ticks", "ticks", percentile a.read_t 99.0);
    ("write_p50_ticks", "ticks", percentile a.write_t 50.0);
    ("write_p99_ticks", "ticks", percentile a.write_t 99.0);
    ("scan_p90_ticks", "ticks", percentile a.scan_t 90.0);
    ("reorg_s", "s", median (List.concat_map reorgs its));
    ("reorg_ticks", "ticks", float_of_int first.reorg_ticks);
    ("restart_s", "s", median (List.concat_map (fun (i : W.iteration) -> i.restarts) its));
    ("space_amp", "ratio", first.space_amp);
    ( "heap_peak_mb",
      "MB",
      float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0 );
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_frac" || ends "_share" || ends "_ratio" || ends "hit_rate" || ends "per_acquire" then
    "ratio"
  else if ends "_ticks_p99" then "ticks"
  else if ends "_us" then "us"
  else if ends "ops_per_s" then "1/s"
  else if ends "_s" then "s"
  else if ends "per_op" then "count/op"
  else if ends "per_commit" then "count/commit"
  else if name = "disk.io_cost" then "cost"
  else "count"

(* Deterministic figures of one iteration: equal across iterations of a run
   and across runs with the same seed.  The OCaml runtime's counters are
   left out: collections depend on the heap the previous iteration left. *)
let fingerprint (i : W.iteration) =
  let a = i.acc in
  let dist name s =
    [
      (name ^ ".n", float_of_int s.W.Samples.n);
      (name ^ ".p50", percentile s 50.0);
      (name ^ ".p90", percentile s 90.0);
      (name ^ ".p99", percentile s 99.0);
      (name ^ ".max", percentile s 100.0);
    ]
  in
  dist "read_ticks" a.read_t @ dist "write_ticks" a.write_t @ dist "scan_ticks" a.scan_t
  @ [
      ("ops.attempted", float_of_int a.attempted);
      ("ops.committed", float_of_int a.committed);
      ("ops.deadlock_aborts", float_of_int a.aborts);
      ("ops.failed", float_of_int a.failed);
      ("reorg_ticks", float_of_int i.reorg_ticks);
      ("space_amp", i.space_amp);
      ("restarts", float_of_int (List.length i.restarts));
    ]
  @ List.filter (fun (n, _) -> not (String.starts_with ~prefix:"runtime." n)) i.layers

let per_layer (its : W.iteration list) (traced : (W.iteration * Spans.summary list) list) =
  let first = List.hd its in
  let a = first.acc in
  let ops =
    [
      ("ops.deadlock_aborts", float_of_int a.aborts);
      ( "ops_failed_frac",
        float_of_int (a.aborts + a.failed) /. float_of_int (max 1 (a.attempted + a.checks)) );
    ]
  in
  let med f l = median (List.map f l) in
  let untraced_reorg = median (List.concat_map reorgs its) in
  let untraced_ops = median (List.concat_map ops_per_s its) in
  (* A traced iteration's first run is its traced one. *)
  let traced_reorg = med (fun (i, _) -> List.hd (reorgs i)) traced in
  let traced_ops = med (fun (i, _) -> List.hd (ops_per_s i)) traced in
  let pass_s name = med (fun (_, s) -> Spans.total s name) traced in
  let span_stat name f =
    med (fun (_, s) -> match Spans.find s name with Some x -> f x | None -> 0.0) traced
  in
  let trace =
    [
      ("trace.pass1_s", pass_s "pass1");
      ("trace.pass2_s", pass_s "pass2");
      ("trace.pass3_s", pass_s "pass3");
      ( "trace.pass2_share",
        med (fun (_, s) -> Spans.total s "pass2" /. Spans.total s "Driver.run") traced );
      ("trace.untraced_reorg_s", untraced_reorg);
      ("trace.traced_reorg_s", traced_reorg);
      ("trace.reorg_s_ratio", traced_reorg /. untraced_reorg);
      ("trace.untraced_ops_per_s", untraced_ops);
      ("trace.traced_ops_per_s", traced_ops);
      ("trace.ops_per_s_ratio", traced_ops /. untraced_ops);
      ("trace.read_p50_us", span_stat "Access.read" (fun x -> x.Spans.p50_us));
      ("trace.read_p99_us", span_stat "Access.read" (fun x -> x.Spans.p99_us));
      ("trace.commit_p50_us", span_stat "Txn_mgr.commit" (fun x -> x.Spans.p50_us));
      ("trace.unit_p50_us", span_stat "unit.*" (fun x -> x.Spans.p50_us));
      ("trace.restart_p50_us", span_stat "Recovery.restart" (fun x -> x.Spans.p50_us));
    ]
  in
  List.map (fun (n, v) -> (n, unit_of n, v)) (first.layers @ ops @ trace)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref W.full and mutate = ref false and capacity = ref 0 in
  let det_only = ref false and spans_out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME reorg-online | oltp-resident | crash-restart");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S keep repeating iterations for this long");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end, or per-layer metrics with a traced run");
      ( "--scale",
        Arg.Symbol ([ "full"; "test" ], fun s -> size := if s = "test" then W.test else W.full),
        " database sizes (test: the benchmark's own tests)" );
      ( "--capacity",
        Arg.Set_int capacity,
        "N reorg-online buffer-pool frames (default: the pool's default, 256; the known-defect \
         reproducers in dune set it)" );
      ( "--mutate",
        Arg.Symbol ([ "corrupt-read" ], fun _ -> mutate := true),
        " corrupt one point-read result (the checks must catch it)" );
      ("--det-only", Arg.Set det_only, " one iteration; print only its deterministic figures");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced run's spans (Chrome JSON)");
    ]
  in
  let bad msg =
    prerr_endline msg;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  let build, run =
    match List.assoc_opt !workload W.all with
    | Some f -> f
    | None -> bad (Printf.sprintf "unknown workload %S\n%s" !workload usage)
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let traced_run = !trace = 1 in
  let size = if !capacity > 0 then { !size with W.online_capacity = Some !capacity } else !size in
  let env spans = { W.seed = !seed; size; spans; corrupt_next_read = !mutate } in
  let t0 = W.now_s () in
  (* Keep iterating until the measuring time is spent (at least twice, so
     the determinism check has something to compare), but never start an
     iteration that would end past the hard cap. *)
  let hard_cap = 150.0 in
  let untraced = ref [] and traced = ref [] and first_spans = ref None and last = ref 0.0 in
  let heap_words = ref 0 in
  let more () =
    let n = List.length !untraced and elapsed = W.now_s () -. t0 in
    if !det_only then n < 1 else (n < 2 || elapsed < !seconds) && elapsed +. !last < hard_cap
  in
  (* Every iteration starts from a compacted heap, so the garbage the
     previous one left does not bill its collection to the next. *)
  while more () do
    let s0 = W.now_s () in
    Gc.compact ();
    untraced := run (env None) :: !untraced;
    (* The heap peak of one iteration: the same work in every run, however
       many iterations the measuring time holds. *)
    if !heap_words = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if traced_run && not !det_only then begin
      let sp = Spans.create () in
      Gc.compact ();
      let it = run (env (Some sp)) in
      traced := (it, Spans.summarize sp) :: !traced;
      if !first_spans = None then first_spans := Some sp
    end;
    last := W.now_s () -. s0
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  (* Set-up time is a median over at least seven builds. *)
  let setups =
    let have = List.fold_left (fun n (i : W.iteration) -> n + List.length i.setups) 0 untraced in
    List.init
      (if !det_only then 0 else max 0 (7 - have))
      (fun _ -> snd (W.setup (env None) (fun () -> build (env None))))
  in
  let first = List.hd untraced in
  let reference = fingerprint first in
  let nondet =
    List.filter
      (fun i -> fingerprint i <> reference)
      (List.tl untraced @ List.map fst traced)
  in
  let print_failures (i : W.iteration) =
    List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev i.acc.messages)
  in
  if !det_only then begin
    List.iter (fun (n, v) -> Printf.printf "%s %s\n" n (json_number v)) reference;
    print_failures first;
    exit (if first.acc.failed = 0 then 0 else 1)
  end;
  let all = untraced @ List.map fst traced in
  let sum f = List.fold_left (fun n (i : W.iteration) -> n + f i.acc) 0 all in
  let attempted = sum (fun a -> a.attempted + a.checks) in
  let failed = sum (fun a -> a.failed) + List.length nondet in
  let correct = failed = 0 in
  Printf.printf "perfbench: workload %s, seed %d, %d iteration(s)%s, %.1f s\n" !workload !seed
    (List.length untraced)
    (if traced_run then Printf.sprintf " + %d traced" (List.length traced) else "")
    (W.now_s () -. t0);
  List.iter print_failures all;
  if nondet <> [] then
    Printf.printf "FAILED: %d iteration(s) differ from the first in a tick or count figure\n"
      (List.length nondet);
  let e2e = end_to_end untraced ~setups ~heap_words:!heap_words in
  let metrics =
    if traced_run then per_layer untraced traced else e2e
  in
  (* Everything goes to the human-readable report; the JSON line carries the
     set the [--trace] mode asks for. *)
  let pp (n, u, v) = Printf.printf "  %-32s %18s %s\n" n (json_number v) u in
  print_endline "end-to-end:";
  List.iter pp e2e;
  if traced_run then begin
    print_endline "per-layer (measured phase; trace.* from the traced iterations):";
    List.iter pp metrics;
    match (traced, !first_spans) with
    | (_, summary) :: _, Some sp ->
      print_endline "spans of the first traced iteration (wall clock):";
      Spans.pp_table Format.std_formatter summary;
      Format.pp_print_flush Format.std_formatter ();
      if !spans_out <> "" then Obs.Trace.write_chrome sp !spans_out
    | _ -> ()
  end;
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
