(** Ambient per-experiment stat collector for the benchmark harness.

    Experiments assemble their databases and engines internally, so their
    counters are unreachable from the outside.  {!with_collector} makes a
    collector ambient: every {!Shard.Store.assemble} (via
    {!Shard.Store.add_assemble_hook}) and every engine created inside the
    callback (via {!Sched.Engine.add_create_hook}) gets an
    {!Obs.Registry.t} of its counters.  When the callback returns, every
    registry is read and the values are summed by name — the totals cover
    every arm an experiment runs, which is the unit the machine-readable
    benchmark baseline records.

    An experiment that compares arms (sync vs. pipelined commit, locked vs.
    optimistic reads, one shard count vs. another) reports each as an
    {!arm} through {!note}: a label, the registry values it measured and a
    few declared scalars the registry does not hold.

    The collector's hooks are registered and removed by id, so hooks
    installed by other parties keep firing.  Collectors themselves do not
    nest; only the benchmark harness should use this. *)

type counters = (string * int) list
(** Registry values by name, sorted by name. *)

type arm = {
  label : string;
  counters : counters;  (** registry values measured over the arm *)
  scalars : (string * int) list;
      (** declared values the registry does not hold (result digests,
          operation counts, makespans), in declaration order *)
}

type sample = {
  totals : counters;  (** summed over every store and engine assembled *)
  engines : int;  (** engines created inside the window *)
  timeseries : Obs.Health.Sampler.snapshot list;  (** reported via {!note_timeseries} *)
  arms : arm list;  (** reported via {!note}, in call order *)
}

val with_collector : (unit -> 'a) -> 'a * sample
(** Run the callback with the collector active (exceptions deactivate it
    too).  Raises [Invalid_argument] if a collector is already active. *)

val note : arm list -> unit
(** Report arms for the current experiment (appended in call order); a
    no-op when no collector is active. *)

val note_timeseries : Obs.Health.Sampler.snapshot list -> unit
(** Report health time-series snapshots for the current experiment
    (appended in call order); a no-op when no collector is active. *)

val store_registry : Shard.Store.t -> Obs.Registry.t
(** A fresh registry holding the store's [disk.*], [pager.*], [lock.*],
    [wal.*] and [olc.*] gauges.  [health.*] is left out: its gauges are
    tree-shape readings rather than work counters, and summing them over
    stores (several of them per-mille ratios) means nothing.  Reading
    [health.*] would be harmless to the other figures: its refresher peeks
    at pages with {!Pager.Buffer_pool.peek}, which counts no pool hit, miss
    or disk read. *)

val counters : Obs.Registry.t -> counters
(** Every integer value the registry holds (histograms give their sample
    count). *)

val sum : counters list -> counters
(** Values summed by name; a name missing from a list counts as 0. *)

val diff : counters -> counters -> counters
(** [diff after before]: per-name [after - before]. *)

val get : arm -> string -> int
(** A scalar, else a counter, of the arm.  Raises [Not_found]. *)

val io_cost : counters -> float
(** {!Pager.Disk.io_cost} (default cost model) of the [disk.*] values. *)
