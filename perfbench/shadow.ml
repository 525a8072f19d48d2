(* The benchmark's own copy of the database's acknowledged state.

   Writers update it in the same scheduler step in which [Txn_mgr.commit]
   returns; commit releases the transaction's locks without yielding, so a
   reader that could see a write can only run after the shadow has it.
   Every key carries the write sequence number of its last acknowledged
   change.  Scans are not atomic across leaves (the locked path couples S
   locks leaf to leaf, the optimistic path validates leaf by leaf), so a
   scan is judged exactly on the keys nobody touched while it ran. *)

type t = {
  live : (int, string) Hashtbl.t;
  changed : (int, int) Hashtbl.t;  (** key -> sequence number of its last acked change *)
  mutable seq : int;
}

let create base =
  let live = Hashtbl.create (2 * List.length base) in
  List.iter (fun (k, v) -> Hashtbl.replace live k v) base;
  { live; changed = Hashtbl.create 1024; seq = 0 }

let seq t = t.seq
let find t k = Hashtbl.find_opt t.live k
let mem t k = Hashtbl.mem t.live k

let ack_insert t k v =
  t.seq <- t.seq + 1;
  Hashtbl.replace t.live k v;
  Hashtbl.replace t.changed k t.seq

let ack_delete t k =
  t.seq <- t.seq + 1;
  Hashtbl.remove t.live k;
  Hashtbl.replace t.changed k t.seq

let contents t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.live [] |> List.sort compare

(* [check_scan t ~lo ~hi ~since ~payload got], [since] being [seq t] when
   the scan started: [got] must be strictly ascending inside [lo, hi] and
   carry every record's canonical payload.  A key with no acknowledged
   change since then must be present exactly when the shadow has it; a key
   changed during the scan may go either way. *)
let check_scan t ~lo ~hi ~since ~payload got =
  let moved k = match Hashtbl.find_opt t.changed k with Some s -> s > since | None -> false in
  let rec ascending prev = function
    | [] -> true
    | (r : Btree.Leaf.record) :: rest ->
      r.key > prev && r.key >= lo && r.key <= hi
      && String.equal r.payload (payload r.key)
      && (mem t r.key || moved r.key)
      && ascending r.key rest
  in
  ascending (lo - 1) got
  &&
  let returned = Hashtbl.create 64 in
  List.iter (fun (r : Btree.Leaf.record) -> Hashtbl.replace returned r.key ()) got;
  let ok = ref true in
  for k = lo to hi do
    if mem t k && (not (moved k)) && not (Hashtbl.mem returned k) then ok := false
  done;
  !ok
