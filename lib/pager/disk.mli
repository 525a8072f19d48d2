(** Simulated disk: an array of fixed-size pages with I/O accounting.

    The paper's evaluation concerns I/O counts and physical contiguity of leaf
    pages (range scans over a reorganized tree read sequential pages).  The
    disk therefore tracks, besides raw read/write counts, how many reads {e
    and} writes were {e sequential} — page id = previously {e read} id + 1
    for reads, previously {e written} id + 1 for writes.  The two streams
    keep independent cursors, so a read interleaved into an elevator write
    run does not misclassify the next write as random.  Experiments apply a
    seek/transfer cost model to both paths — pass 2's contiguity argument
    applies to the bottom-up build's write stream too. *)

type t

type stats = {
  reads : int;
  writes : int;
  seq_reads : int; (** reads at [last read + 1] *)
  rand_reads : int;
  seq_writes : int; (** writes at [last written + 1] *)
  rand_writes : int;
}

val create : ?initial_pages:int -> page_size:int -> unit -> t

val page_size : t -> int
val page_count : t -> int

val read : t -> int -> Page.t
(** [read disk pid] returns a {e copy} of the on-disk image.  Raises
    [Invalid_argument] if [pid] is out of range. *)

val write : t -> int -> Page.t -> unit
(** Store a copy of the page image. *)

val grow : t -> int -> unit
(** [grow disk n] ensures at least [n] pages exist (new ones zeroed/free). *)

val sync : t -> unit
(** Durability barrier.  A no-op for the in-memory disk (every {!write} is
    immediately "durable"), but part of the backend contract so wrappers can
    observe it. *)

val peek : t -> int -> Page.t
(** Like {!read} but without touching the I/O counters — for assertions and
    recovery-time scans, which the cost model should not observe. *)

val stats : t -> stats
val reset_stats : t -> unit

val io_cost : ?seek_cost:float -> ?transfer_cost:float -> stats -> float
(** Simple cost model: each random read or write pays
    [seek_cost + transfer_cost]; each sequential read or write pays
    [transfer_cost] only.  Defaults: seek 10.0, transfer 1.0. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register the {!stats} fields as [disk.*] gauges. *)
