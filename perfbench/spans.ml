(* Wall-clock spans for the traced run, kept in memory and written out when
   the run ends.

   A traced iteration records into one [Obs.Trace] whose clock is the
   monotonic clock in nanoseconds.  The benchmark opens a span around every
   call it makes into a layer's public entry point, on the calling fiber's
   row, with the client operation id as an argument; the same trace is
   handed to [Reorg.Ctx.make], so the reorganizer's own pass and unit spans
   land beside them on the same clock.  Fibers are cooperative, so a span on
   one fiber can contain slices of others: such spans are reported
   inclusive, never as self time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = Obs.Trace.create ~clock:now_ns ()

type span = {
  name : string;
  fiber : int;  (** scheduler fiber id; -1 outside any engine *)
  start : int;  (** ns, monotonic *)
  stop : int;
}

(* The trace's spans, read back from its text timeline: each span line is
   "<ts> tid-<fiber> span <cat>:<name> dur=<ns> ...".  A span still open
   when its fiber died in a simulated crash was never recorded. *)
let spans trace =
  String.split_on_char '\n' (Obs.Trace.to_timeline trace)
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | ts :: tid :: "span" :: catname :: dur :: _ ->
           let name =
             match String.index_opt catname ':' with
             | Some i -> String.sub catname (i + 1) (String.length catname - i - 1)
             | None -> catname
           in
           let start = int_of_string ts in
           Some
             {
               name;
               fiber = Scanf.sscanf tid "tid-%d" Fun.id;
               start;
               stop = start + Scanf.sscanf dur "dur=%d" Fun.id;
             }
         | _ -> None)

type summary = {
  s_name : string;
  n : int;
  total_s : float;
  p50_us : float;
  p99_us : float;
  self_s : float option;  (** [None]: other fibers interleave, time is inclusive *)
}

(* Per-name count, total, p50 and p99, plus self time (duration minus
   same-fiber children) for names no other fiber ever interleaves with.
   The ["unit.*"] row sums the reorganizer's unit spans of every kind. *)
let summarize trace =
  let all = Array.of_list (spans trace) in
  let n = Array.length all in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare all.(a).start all.(b).start) order;
  (* Nesting on one fiber: a stack sweep in start order gives the parent of
     every span. *)
  let parent = Array.make n (-1) in
  let stacks = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      let s = all.(i) in
      let rec pop = function
        | p :: rest when all.(p).stop <= s.start -> pop rest
        | st -> st
      in
      let st = pop (Option.value ~default:[] (Hashtbl.find_opt stacks s.fiber)) in
      (match st with p :: _ -> parent.(i) <- p | [] -> ());
      Hashtbl.replace stacks s.fiber (i :: st))
    order;
  let child_time = Array.make n 0 in
  Array.iteri
    (fun i s ->
      let p = parent.(i) in
      if p >= 0 then child_time.(p) <- child_time.(p) + (s.stop - s.start))
    all;
  (* [next_other.(j)]: the first position after [j] (in start order) whose
     span runs on a different fiber.  A span interleaves with another fiber
     iff that position starts before it ends. *)
  let next_other = Array.make (n + 1) n in
  for j = n - 2 downto 0 do
    next_other.(j) <-
      (if all.(order.(j + 1)).fiber <> all.(order.(j)).fiber then j + 1 else next_other.(j + 1))
  done;
  let by_name = Hashtbl.create 32 in
  Array.iteri
    (fun j i ->
      let s = all.(i) in
      let inter = next_other.(j) < n && all.(order.(next_other.(j))).start < s.stop in
      let note name =
        let durs, self, inclusive =
          Option.value ~default:([], 0, false) (Hashtbl.find_opt by_name name)
        in
        Hashtbl.replace by_name name
          ( (s.stop - s.start) :: durs,
            self + (s.stop - s.start - child_time.(i)),
            inclusive || inter )
      in
      note s.name;
      (* Reorganization units of every kind, together. *)
      if String.starts_with ~prefix:"unit." s.name then note "unit.*")
    order;
  Hashtbl.fold
    (fun name (durs, self, inclusive) acc ->
      let xs = Array.of_list (List.map float_of_int durs) in
      let total = Array.fold_left ( +. ) 0.0 xs in
      {
        s_name = name;
        n = Array.length xs;
        total_s = total /. 1e9;
        p50_us = Util.Stats.percentile xs 50.0 /. 1e3;
        p99_us = Util.Stats.percentile xs 99.0 /. 1e3;
        self_s = (if inclusive then None else Some (float_of_int self /. 1e9));
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let find summaries name = List.find_opt (fun s -> s.s_name = name) summaries
let total summaries name = match find summaries name with Some s -> s.total_s | None -> 0.0

let pp_table ppf summaries =
  Format.fprintf ppf "%-22s %8s %12s %10s %10s %12s@." "span" "count" "total_s" "p50_us" "p99_us"
    "self_s";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-22s %8d %12.6f %10.1f %10.1f %12s@." s.s_name s.n s.total_s s.p50_us
        s.p99_us
        (match s.self_s with Some x -> Printf.sprintf "%.6f" x | None -> "inclusive"))
    summaries
