exception Cycle of int * int
exception Torn_page of int

type frame = {
  pid : int;
  data : Page.t;
  mutable dirty : bool;
  mutable rec_lsn : int64; (* page LSN when the frame last went clean->dirty *)
  mutable pins : int;
  mutable referenced : bool; (* clock second-chance bit *)
  mutable slot : int; (* index of this frame's entry in the clock ring *)
}

(* Every table here is keyed by page id.  An int-specialised table skips the
   generic structural hash and compare on each lookup; iteration order is
   irrelevant because every walk over these tables sorts ([flush_all],
   [dirty_pages]), takes a minimum ([min_rec_lsn]) or edits each entry
   independently ([discharge_deps_on]). *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash pid = pid land max_int
end)

type stats = {
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_dep_flushes : int;
  s_evictions : int;
  s_torn_detected : int;
}

type t = {
  backend : Backend.t;
  capacity : int;
  frames : frame Tbl.t;
  (* Clock ring over resident frames, in arrival order.  Entries are pids;
     eviction leaves a [-1] tombstone (O(1) removal) which the next
     growth-time compaction squeezes out. *)
  mutable ring : int array;
  mutable ring_len : int; (* used prefix of [ring], tombstones included *)
  mutable ring_live : int; (* non-tombstone entries *)
  mutable hand : int;
  mutable before_write : int64 -> unit;
  (* blocked pid -> prerequisite pids that must be durable before it may be
     written.  Entries are removed as they are satisfied. *)
  deps : int list ref Tbl.t;
  waiters : (unit -> unit) list ref Tbl.t;
  mutable flushes : int;
  mutable hits : int;
  mutable misses : int;
  mutable dep_flushes : int; (* flushes forced by careful-writing prerequisites *)
  mutable evictions : int;
  mutable torn_detected : int;
  mutable read_repair : bool;
  mutable sweep_pid : int; (* elevator hand: next pid the flusher visits *)
  mutable tracer : Obs.Trace.t option;
  (* Every page mutation in the system funnels through [mark_dirty]; the
     health tracker hooks it to learn which pages to re-examine. *)
  mutable dirty_hook : (int -> unit) option;
}

(* Default bound: enough that the repo's own workloads rarely thrash, small
   enough that eviction is actually exercised — an unbounded pool hides every
   write-ordering bug the careful-writing machinery exists to catch. *)
let default_capacity = 256

let create ?(capacity = default_capacity) backend =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity must be >= 1";
  {
    backend;
    capacity;
    frames = Tbl.create 64;
    ring = Array.make 16 (-1);
    ring_len = 0;
    ring_live = 0;
    hand = 0;
    before_write = (fun _ -> ());
    deps = Tbl.create 16;
    waiters = Tbl.create 16;
    flushes = 0;
    hits = 0;
    misses = 0;
    dep_flushes = 0;
    evictions = 0;
    torn_detected = 0;
    read_repair = false;
    sweep_pid = 0;
    tracer = None;
    dirty_hook = None;
  }

let set_dirty_hook t hook = t.dirty_hook <- hook

let capacity t = t.capacity

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_flushes = t.flushes;
    s_dep_flushes = t.dep_flushes;
    s_evictions = t.evictions;
    s_torn_detected = t.torn_detected;
  }

let set_tracer t tracer = t.tracer <- tracer

let register_obs t reg =
  Obs.Registry.gauge reg "pager.hits" (fun () -> t.hits);
  Obs.Registry.gauge reg "pager.misses" (fun () -> t.misses);
  Obs.Registry.gauge reg "pager.flushes" (fun () -> t.flushes);
  Obs.Registry.gauge reg "pager.dep_flushes" (fun () -> t.dep_flushes);
  Obs.Registry.gauge reg "pager.evictions" (fun () -> t.evictions);
  Obs.Registry.gauge reg "pager.torn_detected" (fun () -> t.torn_detected);
  Obs.Registry.gauge reg "pager.frames" (fun () -> Tbl.length t.frames)

let backend t = t.backend
let page_size t = Backend.page_size t.backend
let set_read_repair t b = t.read_repair <- b
let torn_detected t = t.torn_detected

let set_before_write t f = t.before_write <- f

let is_dirty t pid =
  match Tbl.find_opt t.frames pid with Some f -> f.dirty | None -> false

let in_pool t pid = Tbl.mem t.frames pid

let is_durable t pid = not (is_dirty t pid)

let prereqs t pid =
  match Tbl.find_opt t.deps pid with Some l -> !l | None -> []

(* Would adding blocked -> prereq close a cycle?  I.e. can we already reach
   [blocked] from [prereq] through the dependency graph? *)
let reaches t ~src ~dst =
  let seen = Tbl.create 8 in
  let rec go p =
    p = dst
    || (not (Tbl.mem seen p)
        && begin
             Tbl.replace seen p ();
             List.exists go (prereqs t p)
           end)
  in
  go src

let add_dependency ?(force = false) t ~blocked ~prereq =
  if blocked = prereq then raise (Cycle (blocked, prereq));
  if force || not (is_durable t prereq) then begin
    if reaches t ~src:prereq ~dst:blocked then raise (Cycle (blocked, prereq));
    let l =
      match Tbl.find_opt t.deps blocked with
      | Some l -> l
      | None ->
        let l = ref [] in
        Tbl.replace t.deps blocked l;
        l
    in
    if not (List.mem prereq !l) then l := prereq :: !l
  end

let forget_dependencies t pid = Tbl.remove t.deps pid

let fire_waiters t pid =
  match Tbl.find_opt t.waiters pid with
  | None -> ()
  | Some fs ->
    Tbl.remove t.waiters pid;
    List.iter (fun f -> f ()) (List.rev !fs)

let on_durable t pid f =
  if is_durable t pid then f ()
  else
    match Tbl.find_opt t.waiters pid with
    | Some fs -> fs := f :: !fs
    | None -> Tbl.replace t.waiters pid (ref [ f ])

(* A write-order constraint is discharged the moment its prerequisite
   reaches disk; leaving it around would manufacture false cycles when the
   (by then durable) pages are recycled by later units. *)
let discharge_deps_on t pid =
  let empty = ref [] in
  Tbl.iter
    (fun blocked l ->
      l := List.filter (fun p -> p <> pid) !l;
      if !l = [] then empty := blocked :: !empty)
    t.deps;
  List.iter (Tbl.remove t.deps) !empty

let rec flush_frame t fr =
  if fr.dirty then begin
    (* Careful writing: prerequisites first. *)
    let ps = prereqs t fr.pid in
    Tbl.remove t.deps fr.pid;
    if ps <> [] then begin
      t.dep_flushes <- t.dep_flushes + List.length ps;
      match t.tracer with
      | Some tr ->
        List.iter
          (fun p ->
            Obs.Trace.instant tr ~cat:"pager" "pager.dep-flush"
              ~args:[ ("blocked", Obs.Trace.Int fr.pid); ("prereq", Obs.Trace.Int p) ])
          ps
      | None -> ()
    end;
    List.iter (fun p -> flush_page t p) ps;
    (* WAL rule. *)
    t.before_write (Page.lsn fr.data);
    Page.set_checksum fr.data (Page.body_checksum fr.data);
    Backend.write t.backend fr.pid fr.data;
    t.flushes <- t.flushes + 1;
    (match t.tracer with
    | Some tr ->
      Obs.Trace.instant tr ~cat:"pager" "pager.flush" ~args:[ ("pid", Obs.Trace.Int fr.pid) ]
    | None -> ());
    fr.dirty <- false;
    discharge_deps_on t fr.pid;
    fire_waiters t fr.pid
  end

and flush_page t pid =
  match Tbl.find_opt t.frames pid with
  | None ->
    (* Not cached: the disk image is current by definition. *)
    Tbl.remove t.deps pid;
    fire_waiters t pid
  | Some fr -> flush_frame t fr

(* --- clock ring maintenance --- *)

let ring_compact t =
  let live = Array.make (max 16 (2 * t.ring_live)) (-1) in
  let j = ref 0 in
  let new_hand = ref 0 in
  for i = 0 to t.ring_len - 1 do
    if i = t.hand then new_hand := !j;
    let pid = t.ring.(i) in
    if pid >= 0 then begin
      (match Tbl.find_opt t.frames pid with Some fr -> fr.slot <- !j | None -> ());
      live.(!j) <- pid;
      incr j
    end
  done;
  t.ring <- live;
  t.ring_len <- !j;
  t.hand <- (if !j = 0 then 0 else !new_hand mod !j)

let ring_push t fr =
  if t.ring_len = Array.length t.ring then
    if t.ring_live * 2 <= t.ring_len then ring_compact t
    else begin
      let bigger = Array.make (2 * Array.length t.ring) (-1) in
      Array.blit t.ring 0 bigger 0 t.ring_len;
      t.ring <- bigger
    end;
  fr.slot <- t.ring_len;
  t.ring.(t.ring_len) <- fr.pid;
  t.ring_len <- t.ring_len + 1;
  t.ring_live <- t.ring_live + 1

let ring_remove t fr =
  if fr.slot >= 0 && fr.slot < t.ring_len && t.ring.(fr.slot) = fr.pid then begin
    t.ring.(fr.slot) <- -1;
    t.ring_live <- t.ring_live - 1
  end;
  fr.slot <- -1

let evict_one t =
  (* Clock / second-chance: sweep the ring from the hand; a referenced frame
     surrenders its bit and gets one more revolution, a pinned frame is
     skipped.  Two full revolutions are enough to find a victim (the first
     clears every bit), so a dry sweep means every frame is pinned. *)
  let victim = ref None in
  let budget = ref ((2 * t.ring_len) + 2) in
  while !victim = None && !budget > 0 do
    decr budget;
    if t.ring_len = 0 then budget := 0
    else begin
      if t.hand >= t.ring_len then t.hand <- 0;
      let pid = t.ring.(t.hand) in
      if pid < 0 then t.hand <- t.hand + 1
      else begin
        let fr = Tbl.find t.frames pid in
        if fr.pins > 0 then t.hand <- t.hand + 1
        else if fr.referenced then begin
          fr.referenced <- false;
          t.hand <- t.hand + 1
        end
        else victim := Some fr
      end
    end
  done;
  match !victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some fr ->
    flush_frame t fr;
    t.evictions <- t.evictions + 1;
    ring_remove t fr;
    t.hand <- t.hand + 1;
    Tbl.remove t.frames fr.pid

let load t pid =
  if Tbl.length t.frames >= t.capacity then evict_one t;
  let data = Backend.read t.backend pid in
  (* Checksum verification: a stored checksum of 0 means the image was never
     stamped by a pool flush (virgin page, or written around the pool) and is
     accepted.  A mismatch is a torn write: the prefix landed but the (LSN,
     body) pair is the {e previous} flushed image, still mutually consistent.
     During recovery (read-repair mode) that survivor is simply accepted —
     its own LSN tells redo which log suffix to replay, and nothing older
     (in particular no careful-writing move whose origin page has since been
     recycled) is touched.  Outside recovery a torn page is a hard error. *)
  let stored = Page.checksum data in
  let repaired =
    stored <> 0
    && stored <> Page.body_checksum data
    && begin
         t.torn_detected <- t.torn_detected + 1;
         (match t.tracer with
         | Some tr ->
           Obs.Trace.instant tr ~cat:"pager" "pager.torn-page"
             ~args:[ ("pid", Obs.Trace.Int pid) ]
         | None -> ());
         if not t.read_repair then raise (Torn_page pid);
         Page.set_checksum data 0;
         true
       end
  in
  (* A repaired frame starts dirty: even if no log record ends up replayed
     against it, the final recovery flush must replace the torn on-disk
     image with a consistent one. *)
  let fr =
    {
      pid;
      data;
      dirty = repaired;
      rec_lsn = Page.lsn data;
      pins = 0;
      referenced = true;
      slot = -1;
    }
  in
  Tbl.replace t.frames pid fr;
  ring_push t fr;
  fr

let frame t pid =
  match Tbl.find_opt t.frames pid with
  | Some fr ->
    t.hits <- t.hits + 1;
    fr.referenced <- true;
    fr
  | None ->
    t.misses <- t.misses + 1;
    load t pid

let get t pid = (frame t pid).data

(* Read-only inspection for observers (the health refresher): leave the hit
   and miss counts, the referenced bits and the frame set exactly as they
   were.  A page that is not resident is clean, so its disk image is
   current; [Backend.peek] reads it without counting a read or passing a
   fault boundary.  The torn-page check still applies. *)
let peek t pid =
  match Tbl.find_opt t.frames pid with
  | Some fr -> fr.data
  | None ->
    let data = Backend.peek t.backend pid in
    let stored = Page.checksum data in
    if stored <> 0 && stored <> Page.body_checksum data && not t.read_repair then
      raise (Torn_page pid);
    data

let pin t pid =
  let fr = frame t pid in
  fr.pins <- fr.pins + 1;
  fr.data

let unpin t pid =
  match Tbl.find_opt t.frames pid with
  | Some fr when fr.pins > 0 -> fr.pins <- fr.pins - 1
  | _ -> invalid_arg "Buffer_pool.unpin: page not pinned"

let with_page t pid f =
  let data = pin t pid in
  Fun.protect ~finally:(fun () -> unpin t pid) (fun () -> f data)

let mark_dirty t pid =
  match Tbl.find_opt t.frames pid with
  | Some fr ->
    (* Capture the recovery LSN on the clean->dirty transition: callers stamp
       the page with the mutating record's LSN before marking, so this is the
       oldest record that might need replaying against the frame — the
       checkpoint's WAL-truncation floor for this page. *)
    if not fr.dirty then begin
      fr.dirty <- true;
      fr.rec_lsn <- Page.lsn fr.data
    end;
    (match t.dirty_hook with Some hook -> hook pid | None -> ())
  | None -> invalid_arg "Buffer_pool.mark_dirty: page not cached"

let flush_all t =
  let pids = Tbl.fold (fun pid _ acc -> pid :: acc) t.frames [] in
  List.iter (fun pid -> flush_page t pid) (List.sort compare pids)

let dirty_pages t =
  Tbl.fold (fun pid fr acc -> if fr.dirty then pid :: acc else acc) t.frames []
  |> List.sort compare

(* Background-flusher entry point: drain up to [limit] dirty frames in
   ascending-pid order starting at the persistent sweep hand, wrapping once —
   the elevator discipline that turns the flush stream sequential.  The log
   is forced once up to the batch's maximum page LSN first, so the per-frame
   WAL-rule forces inside [flush_frame] are already satisfied and the whole
   batch costs a single force. *)
let flush_elevator ?(limit = max_int) t =
  let dirty = dirty_pages t in
  if dirty = [] then 0
  else begin
    let above, below = List.partition (fun pid -> pid >= t.sweep_pid) dirty in
    let ordered = above @ below in
    let rec take k xs =
      match xs with [] -> [] | _ when k <= 0 -> [] | x :: rest -> x :: take (k - 1) rest
    in
    let batch = take limit ordered in
    let max_lsn =
      List.fold_left
        (fun m pid ->
          match Tbl.find_opt t.frames pid with
          | Some fr when fr.dirty -> max m (Page.lsn fr.data)
          | _ -> m)
        Int64.min_int batch
    in
    if max_lsn > Int64.min_int then t.before_write max_lsn;
    List.iter (fun pid -> flush_page t pid) batch;
    (match List.rev batch with last :: _ -> t.sweep_pid <- last + 1 | [] -> ());
    List.length batch
  end

(* Oldest recovery LSN over the dirty frames — together with the active-txn
   and reorg floors, this bounds how far the WAL may be truncated. *)
let min_rec_lsn t =
  Tbl.fold
    (fun _ fr acc ->
      if not fr.dirty then acc
      else match acc with None -> Some fr.rec_lsn | Some m -> Some (min m fr.rec_lsn))
    t.frames None

let crash t =
  Tbl.reset t.frames;
  Tbl.reset t.deps;
  Tbl.reset t.waiters;
  t.ring <- Array.make 16 (-1);
  t.ring_len <- 0;
  t.ring_live <- 0;
  t.hand <- 0;
  t.sweep_pid <- 0

let frame_count t = Tbl.length t.frames
let flushes t = t.flushes
