(** Write-back buffer pool with the WAL rule and {e careful writing}.

    The pool caches page frames over a {!Backend.t}.  Dirty frames reach the
    backend through {!flush_page} / {!flush_all} / eviction, and a crash
    ({!crash}) discards every frame, so only flushed state survives — exactly
    the failure model the paper's recovery section assumes.

    Every flush stamps the page's checksum (covering LSN and body) into its
    header; every load verifies it.  A mismatch means a torn write that left
    the {e previous} (LSN, body) pair on disk: outside recovery it raises
    {!Torn_page}; in read-repair mode (enabled by recovery) the survivor is
    accepted as-is, and its own LSN steers redo to replay exactly the log
    suffix the tear lost (the WAL rule forced the log past the torn write
    before it was issued).

    Two write-ordering mechanisms are provided:

    - {b WAL rule}: before a dirty page is written, the hook installed with
      {!set_before_write} is called with the page's LSN; the log manager uses
      it to force the log up to that LSN.
    - {b Careful writing} (paper §5): {!add_dependency} records that page
      [blocked] must not be written to disk before page [prereq] is durable.
      Flushing a blocked page first flushes its prerequisites.  Registering a
      dependency that would close a cycle raises {!Cycle} — this is precisely
      the swap case where the paper says full-content logging cannot be
      avoided.

    {!on_durable} callbacks support the paper's deferred deallocation: a page
    whose contents were copied out "cannot be deallocated until the new page
    ... is on disk". *)

type t

exception Cycle of int * int
(** [Cycle (blocked, prereq)] — the requested write-order dependency would be
    circular. *)

exception Torn_page of int
(** A load hit a page whose stored checksum does not match its body and
    read-repair mode is off. *)

val create : ?capacity:int -> Backend.t -> t
(** [capacity] is the maximum number of frames, default
    {!default_capacity}.  When the pool is full, a victim is chosen by a
    clock (second-chance) sweep: each frame carries a referenced bit, set on
    every access; the clock hand clears the bit on its first visit and evicts
    on its second, skipping pinned frames.  A dirty victim is flushed (WAL
    rule and careful-writing prerequisites included) before being dropped.
    Raises [Invalid_argument] if [capacity < 1], [Failure] on eviction when
    every frame is pinned. *)

val default_capacity : int
(** 256 frames. *)

val capacity : t -> int

val backend : t -> Backend.t

val page_size : t -> int
(** Shorthand for [Backend.page_size (backend t)]. *)

val set_before_write : t -> (int64 -> unit) -> unit
(** Install the WAL-rule hook ([fun lsn -> Log.force log lsn]). *)

(** {2 Frame access} *)

val get : t -> int -> Page.t
(** [get t pid] returns the frame bytes for [pid], reading from disk on a
    miss.  The caller may mutate the bytes and must then call
    {!mark_dirty}. *)

val peek : t -> int -> Page.t
(** [peek t pid] returns the page's current contents without touching the
    pool's state: for a resident page the frame bytes, with no hit counted
    and the referenced bit left alone; otherwise the disk image through
    {!Backend.peek}, with no miss, no disk read, no frame loaded and no
    fault boundary.  The caller must not mutate the result.  A torn disk
    image raises {!Torn_page} as on a load (outside read-repair mode), but
    is not counted in {!torn_detected}. *)

val pin : t -> int -> Page.t
val unpin : t -> int -> unit

val with_page : t -> int -> (Page.t -> 'a) -> 'a
(** Pin, apply, unpin (also on exception). *)

val mark_dirty : t -> int -> unit

val set_dirty_hook : t -> (int -> unit) option -> unit
(** Observe every {!mark_dirty} (called with the pid, after the flag is
    set).  Every page mutation in the system funnels through the pool, so
    this is the one choke point the tree-health tracker needs; the hook must
    be O(1) and must not touch the pool. *)

val is_dirty : t -> int -> bool
val in_pool : t -> int -> bool

(** {2 Durability} *)

val flush_page : t -> int -> unit
(** Write the frame (and, first, its unsatisfied prerequisites) to disk.
    No-op if the page is not cached or clean. *)

val flush_all : t -> unit

val flush_elevator : ?limit:int -> t -> int
(** Background-flusher drain: write up to [limit] dirty frames (default all)
    in ascending-pid order starting from a persistent sweep hand, wrapping
    once past the end — the elevator discipline that makes the flush stream
    sequential on disk.  The WAL is forced once up to the batch's maximum
    page LSN before any frame is written, so the whole batch satisfies the
    WAL rule with a single force; careful-writing prerequisites are honored
    per frame as in {!flush_page}.  Returns the number of frames drained. *)

val min_rec_lsn : t -> int64 option
(** Oldest recovery LSN over the currently dirty frames: the page LSN each
    frame carried when it last went clean->dirty.  [None] when the pool is
    clean.  Fuzzy checkpoints use this as one of the WAL-truncation
    floors. *)

val is_durable : t -> int -> bool
(** True when the on-disk image is current (frame absent or clean). *)

val add_dependency : ?force:bool -> t -> blocked:int -> prereq:int -> unit
(** Careful-writing order: [blocked] cannot be written before [prereq] is
    durable.  Raises {!Cycle} when this would create a write-order cycle.
    No-op if [prereq] is already durable, unless [force] is set — used when
    the prerequisite is {e about} to be dirtied with the contents the
    constraint protects. *)

val forget_dependencies : t -> int -> unit
(** Drop any write-order constraints in which this page is the blocked one —
    called when a free page is recycled: a constraint still attached at that
    point is necessarily stale (the deallocation that freed the page already
    required its prerequisite to be durable). *)

val on_durable : t -> int -> (unit -> unit) -> unit
(** [on_durable t pid f] runs [f] as soon as [pid] is durable — immediately if
    it already is, otherwise right after the flush that makes it so.
    Callbacks do not survive a crash. *)

(** {2 Failure} *)

val crash : t -> unit
(** Discard all frames, dependencies and pending callbacks.  The disk image is
    untouched. *)

val set_read_repair : t -> bool -> unit
(** While on, a torn page is not an error: the surviving pre-tear image is
    accepted (and the frame marked dirty, so the recovery flush restores a
    good on-disk checksum) and redo replays from its LSN.  Only recovery
    should turn this on. *)

val torn_detected : t -> int
(** Torn pages detected by checksum verification since creation. *)

(** {2 Introspection} *)

val dirty_pages : t -> int list
val frame_count : t -> int
val flushes : t -> int
(** Number of page writes issued by this pool since creation. *)

type stats = {
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_dep_flushes : int;
  s_evictions : int;
  s_torn_detected : int;
}

val stats : t -> stats
(** Counter snapshot since creation — what the benchmark harness records. *)

(** {2 Observability} *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register [pager.hits], [pager.misses], [pager.flushes],
    [pager.dep_flushes] (flushes forced by careful-writing prerequisites),
    [pager.evictions], [pager.torn_detected] and [pager.frames] gauges. *)

val set_tracer : t -> Obs.Trace.t option -> unit
(** While set, every page flush is recorded as a [pager.flush] instant event
    and every careful-writing prerequisite flush as [pager.dep-flush]. *)
